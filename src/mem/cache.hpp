// Set-associative tag-array cache model with true-LRU replacement.
//
// Tag-only: data always lives in the functional GlobalMemory; the cache
// decides *timing* (hit vs miss) and generates victim writebacks. Used for
// both the per-SM L1D and each L2 partition slice.
#pragma once

#include <cstdint>
#include <vector>

#include "common/types.hpp"
#include "mem/mem_config.hpp"

namespace prosim {

class Cache {
 public:
  explicit Cache(const CacheGeometry& geometry);

  struct Victim {
    bool valid = false;
    Addr line_addr = 0;
    bool dirty = false;
  };

  /// True if the line is present (does not update LRU).
  bool probe(Addr line_addr) const;

  /// Hit path: updates LRU. Returns false if the line is absent.
  bool access(Addr line_addr);

  /// Allocates the line (evicting LRU if needed); returns the victim so the
  /// caller can issue a writeback for dirty lines. Filling an already
  /// present line just refreshes it.
  Victim fill(Addr line_addr, bool dirty);

  /// Marks an existing line dirty; returns false if absent.
  bool mark_dirty(Addr line_addr);

  /// Removes the line if present (write-evict policy at L1).
  void invalidate(Addr line_addr);

  Addr line_of(Addr byte_addr) const {
    return byte_addr & ~static_cast<Addr>(geometry_.line_bytes - 1);
  }

  int num_sets() const { return num_sets_; }
  const CacheGeometry& geometry() const { return geometry_; }

  // Accounting (callers decide what counts as an access).
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;

 private:
  struct Line {
    bool valid = false;
    bool dirty = false;
    Addr tag = 0;
    std::uint64_t lru = 0;  // larger = more recently used
  };

  int set_of(Addr line_addr) const {
    return static_cast<int>((line_addr >> line_shift_) &
                            static_cast<Addr>(num_sets_ - 1));
  }
  Addr tag_of(Addr line_addr) const { return line_addr >> tag_shift_; }
  Line* find(Addr line_addr);
  const Line* find(Addr line_addr) const;

  CacheGeometry geometry_;
  int num_sets_;
  int line_shift_;  ///< log2(line_bytes)
  int tag_shift_;   ///< log2(line_bytes * num_sets_)
  std::uint64_t lru_clock_ = 0;
  std::vector<Line> lines_;  // num_sets * ways, row-major by set
};

}  // namespace prosim
