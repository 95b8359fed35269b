#include "mem/cache.hpp"

#include <bit>

#include "common/check.hpp"

namespace prosim {

namespace {

bool is_pow2(int v) { return v > 0 && (v & (v - 1)) == 0; }

}  // namespace

Cache::Cache(const CacheGeometry& geometry) : geometry_(geometry) {
  PROSIM_CHECK(is_pow2(geometry_.line_bytes));
  PROSIM_CHECK(geometry_.ways > 0);
  PROSIM_CHECK(geometry_.size_bytes >=
               geometry_.line_bytes * geometry_.ways);
  num_sets_ = geometry_.size_bytes / (geometry_.line_bytes * geometry_.ways);
  PROSIM_CHECK_MSG(is_pow2(num_sets_), "cache sets must be a power of two");
  line_shift_ = std::countr_zero(static_cast<unsigned>(geometry_.line_bytes));
  tag_shift_ = line_shift_ + std::countr_zero(static_cast<unsigned>(num_sets_));
  lines_.resize(static_cast<std::size_t>(num_sets_) * geometry_.ways);
}

Cache::Line* Cache::find(Addr line_addr) {
  const int set = set_of(line_addr);
  const Addr tag = tag_of(line_addr);
  Line* base = &lines_[static_cast<std::size_t>(set) * geometry_.ways];
  for (int w = 0; w < geometry_.ways; ++w) {
    if (base[w].valid && base[w].tag == tag) return &base[w];
  }
  return nullptr;
}

const Cache::Line* Cache::find(Addr line_addr) const {
  return const_cast<Cache*>(this)->find(line_addr);
}

bool Cache::probe(Addr line_addr) const { return find(line_addr) != nullptr; }

bool Cache::access(Addr line_addr) {
  Line* line = find(line_addr);
  if (line == nullptr) return false;
  line->lru = ++lru_clock_;
  return true;
}

Cache::Victim Cache::fill(Addr line_addr, bool dirty) {
  Victim victim;
  if (Line* existing = find(line_addr)) {
    existing->lru = ++lru_clock_;
    existing->dirty = existing->dirty || dirty;
    return victim;
  }
  const int set = set_of(line_addr);
  Line* base = &lines_[static_cast<std::size_t>(set) * geometry_.ways];
  Line* slot = nullptr;
  for (int w = 0; w < geometry_.ways; ++w) {
    if (!base[w].valid) {
      slot = &base[w];
      break;
    }
  }
  if (slot == nullptr) {
    slot = base;
    for (int w = 1; w < geometry_.ways; ++w) {
      if (base[w].lru < slot->lru) slot = &base[w];
    }
    victim.valid = true;
    victim.dirty = slot->dirty;
    victim.line_addr = (slot->tag << tag_shift_) |
                       (static_cast<Addr>(set) << line_shift_);
  }
  slot->valid = true;
  slot->dirty = dirty;
  slot->tag = tag_of(line_addr);
  slot->lru = ++lru_clock_;
  return victim;
}

bool Cache::mark_dirty(Addr line_addr) {
  Line* line = find(line_addr);
  if (line == nullptr) return false;
  line->dirty = true;
  line->lru = ++lru_clock_;
  return true;
}

void Cache::invalidate(Addr line_addr) {
  if (Line* line = find(line_addr)) {
    line->valid = false;
    line->dirty = false;
  }
}

}  // namespace prosim
