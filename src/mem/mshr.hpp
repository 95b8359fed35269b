// Miss-status holding registers. One entry per outstanding line; subsequent
// misses to the same line merge into the entry (up to max_merges tokens).
// When the fill arrives, release() hands back every waiting token.
//
// A fixed table sized from MshrConfig at construction: a miss, a merge or a
// release allocates nothing. The last lookup is remembered, so the
// has/can_merge/merge sequence of one request scans the table once.
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "common/check.hpp"
#include "common/types.hpp"
#include "mem/mem_config.hpp"

namespace prosim {

template <typename Token>
class Mshr {
 public:
  explicit Mshr(const MshrConfig& config)
      : config_(config),
        row_size_(std::max(config.max_merges, 1)),
        lines_(std::max(config.entries, 0), kFree),
        merged_(lines_.size()),
        tokens_(lines_.size() * row_size_) {}

  bool has(Addr line_addr) const { return find(line_addr) >= 0; }

  /// True if a *new* entry can be allocated.
  bool can_allocate() const { return occupancy_ < config_.entries; }

  /// True if a miss to this line can merge into an existing entry.
  bool can_merge(Addr line_addr) const {
    const int i = find(line_addr);
    return i >= 0 && merged_[i] < config_.max_merges;
  }

  void allocate(Addr line_addr, Token token) {
    PROSIM_CHECK(can_allocate());
    PROSIM_CHECK(!has(line_addr));
    const int i = static_cast<int>(
        std::find(lines_.begin(), lines_.end(), kFree) - lines_.begin());
    lines_[i] = line_addr;
    merged_[i] = 1;
    tokens_[i * row_size_] = std::move(token);
    ++occupancy_;
    memo_ = i;  // memo_line_ is line_addr after has()
  }

  void merge(Addr line_addr, Token token) {
    PROSIM_CHECK(can_merge(line_addr));
    const int i = find(line_addr);
    tokens_[i * row_size_ + merged_[i]++] = std::move(token);
  }

  /// Removes the entry and returns its tokens in merge order. The view
  /// stays valid until the next allocate().
  std::span<const Token> release(Addr line_addr) {
    const int i = find(line_addr);
    PROSIM_CHECK_MSG(i >= 0, "MSHR release of unknown line");
    lines_[i] = kFree;
    --occupancy_;
    memo_ = -1;
    return {&tokens_[i * row_size_], static_cast<std::size_t>(merged_[i])};
  }

  int occupancy() const { return occupancy_; }

  // Accounting.
  std::uint64_t merges = 0;

 private:
  /// lines_ value of a free entry; line addresses are line-aligned, so no
  /// line equals it.
  static constexpr Addr kFree = ~Addr{0};

  /// The entry holding line_addr, or -1. Exact for memo_line_, because
  /// allocate() and release() update the memo for the line they change.
  int find(Addr line_addr) const {
    if (line_addr != memo_line_) {
      memo_line_ = line_addr;
      const auto it = std::find(lines_.begin(), lines_.end(), line_addr);
      memo_ = it == lines_.end() ? -1 : static_cast<int>(it - lines_.begin());
    }
    return memo_;
  }

  MshrConfig config_;
  int row_size_;               ///< token slots per entry
  int occupancy_ = 0;
  std::vector<Addr> lines_;    ///< each entry's line, or kFree
  std::vector<int> merged_;    ///< tokens each entry holds
  std::vector<Token> tokens_;  ///< row_size_ slots per entry, merge order
  mutable Addr memo_line_ = kFree;  ///< the last line looked up ...
  mutable int memo_ = -1;           ///< ... and its entry, or -1
};

}  // namespace prosim
