// Functional global memory: a sparse 64-bit word store over a byte address
// space. Both the reference interpreter and the timing simulator read/write
// through this, so final memory contents can be compared exactly.
//
// All accesses are 8-byte words at 8-byte-aligned addresses (the ISA has a
// single access width; see DESIGN.md).
//
// Storage is paged: the word space is split into fixed 4096-word (32 KiB)
// pages allocated on first store, with a one-entry page cache exploiting
// the strong spatial locality of coalesced warp accesses. Absent words read
// as zero, exactly like the original hash-map representation.
#pragma once

#include <algorithm>
#include <cstdint>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/check.hpp"
#include "common/fingerprint.hpp"
#include "common/types.hpp"

namespace prosim {

class GlobalMemory {
 public:
  GlobalMemory() = default;
  GlobalMemory(const GlobalMemory& other) : pages_(other.pages_) {}
  GlobalMemory& operator=(const GlobalMemory& other) {
    pages_ = other.pages_;
    last_page_ = kNoPage;
    last_data_ = nullptr;
    return *this;
  }
  GlobalMemory(GlobalMemory&& other) noexcept
      : pages_(std::move(other.pages_)) {
    other.last_page_ = kNoPage;
    other.last_data_ = nullptr;
  }
  GlobalMemory& operator=(GlobalMemory&& other) noexcept {
    pages_ = std::move(other.pages_);
    last_page_ = kNoPage;
    last_data_ = nullptr;
    other.last_page_ = kNoPage;
    other.last_data_ = nullptr;
    return *this;
  }

  RegValue load(Addr addr) const {
    check_aligned(addr);
    const std::uint64_t word = addr >> 3;
    const RegValue* page = find_page(word >> kPageShift);
    return page == nullptr ? 0 : page[word & kPageMask];
  }

  void store(Addr addr, RegValue value) {
    check_aligned(addr);
    const std::uint64_t word = addr >> 3;
    ensure_page(word >> kPageShift)[word & kPageMask] = value;
  }

  /// Atomic read-modify-write add; returns the old value.
  RegValue atomic_add(Addr addr, RegValue delta) {
    check_aligned(addr);
    const std::uint64_t word = addr >> 3;
    RegValue& slot = ensure_page(word >> kPageShift)[word & kPageMask];
    const RegValue old = slot;
    slot = static_cast<RegValue>(static_cast<std::uint64_t>(slot) +
                                 static_cast<std::uint64_t>(delta));
    return old;
  }

  /// Compare-and-swap: stores `desired` only when the word equals
  /// `expected`; always returns the old value.
  RegValue atomic_cas(Addr addr, RegValue expected, RegValue desired) {
    check_aligned(addr);
    const std::uint64_t word = addr >> 3;
    RegValue& slot = ensure_page(word >> kPageShift)[word & kPageMask];
    const RegValue old = slot;
    if (old == expected) slot = desired;
    return old;
  }

  RegValue atomic_exch(Addr addr, RegValue value) {
    check_aligned(addr);
    const std::uint64_t word = addr >> 3;
    RegValue& slot = ensure_page(word >> kPageShift)[word & kPageMask];
    const RegValue old = slot;
    slot = value;
    return old;
  }

  /// Bulk initialization helper for workload generators.
  void fill(Addr base, const std::vector<RegValue>& values) {
    check_aligned(base);
    for (std::size_t i = 0; i < values.size(); ++i) {
      store(base + (static_cast<Addr>(i) << 3), values[i]);
    }
  }

  /// Folds the sparse image into `fp` deterministically: entries sorted by
  /// word address, explicit zeros skipped (absent == 0, so a stored zero
  /// and an untouched word hash identically). Lets workload fingerprints
  /// cover their init() data content-addressably.
  void hash_into(Fingerprint& fp) const {
    std::vector<std::uint64_t> page_ids;
    page_ids.reserve(pages_.size());
    for (const auto& [id, data] : pages_) page_ids.push_back(id);
    std::sort(page_ids.begin(), page_ids.end());
    std::uint64_t nonzero = 0;
    for (const std::uint64_t id : page_ids) {
      for (const RegValue v : pages_.at(id)) {
        if (v != 0) ++nonzero;
      }
    }
    fp.add(nonzero);
    for (const std::uint64_t id : page_ids) {
      const std::vector<RegValue>& data = pages_.at(id);
      for (std::size_t i = 0; i < kPageWords; ++i) {
        if (data[i] == 0) continue;
        fp.add((id << kPageShift) + i);
        fp.add(static_cast<std::int64_t>(data[i]));
      }
    }
  }

  bool operator==(const GlobalMemory& other) const {
    // Sparse compare that treats absent == 0.
    auto covers = [](const GlobalMemory& a, const GlobalMemory& b) {
      for (const auto& [id, data] : a.pages_) {
        const RegValue* theirs = b.find_page(id);
        for (std::size_t i = 0; i < kPageWords; ++i) {
          const RegValue v = theirs == nullptr ? 0 : theirs[i];
          if (data[i] != v) return false;
        }
      }
      return true;
    };
    return covers(*this, other) && covers(other, *this);
  }

 private:
  static constexpr int kPageShift = 12;  // 4096 words = 32 KiB per page
  static constexpr std::size_t kPageWords = std::size_t{1} << kPageShift;
  static constexpr std::uint64_t kPageMask = kPageWords - 1;
  static constexpr std::uint64_t kNoPage = ~std::uint64_t{0};

  const RegValue* find_page(std::uint64_t page_id) const {
    if (page_id == last_page_) return last_data_;
    auto it = pages_.find(page_id);
    if (it == pages_.end()) return nullptr;
    last_page_ = page_id;
    last_data_ = it->second.data();  // stable: pages are never resized
    return last_data_;
  }

  RegValue* ensure_page(std::uint64_t page_id) {
    if (page_id == last_page_) return const_cast<RegValue*>(last_data_);
    auto [it, inserted] = pages_.try_emplace(page_id);
    if (inserted) it->second.assign(kPageWords, 0);
    last_page_ = page_id;
    last_data_ = it->second.data();
    return it->second.data();
  }

  static void check_aligned(Addr addr) {
    PROSIM_CHECK_MSG((addr & 7) == 0, "unaligned 8-byte memory access");
  }

  std::unordered_map<std::uint64_t, std::vector<RegValue>> pages_;
  // One-entry page cache (reset on copy — it points into our own pages_).
  mutable std::uint64_t last_page_ = kNoPage;
  mutable const RegValue* last_data_ = nullptr;
};

}  // namespace prosim
