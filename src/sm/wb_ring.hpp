// The SM's writeback queue: register releases and L1/constant hits that
// complete a fixed latency after they are scheduled.
//
// A calendar ring of power-of-two size R. Bucket `at & (R-1)` holds the
// events due at cycle `at`, and a bitset marks the nonempty buckets. Every
// pending event lies in (now, now + R): each is pushed at most the largest
// writeback latency ahead (R is sized above it), and the SM is ticked at
// every cycle next_after() names, so a bucket never mixes two due cycles.
// The earliest due cycle is kept as a member: a push lowers it, and a
// drain that empties its bucket finds the next one in the bitset (a few
// words at most). So a cycle with nothing due costs one compare, a drain
// one bucket walk, and next_after a read.
//
// Events due in the same cycle drain in push order: the ring's order is
// (at, push sequence). docs/ROBUSTNESS.md "Same-cycle order" says why that
// order can reach a result at all (it picks future pending-load tokens).
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <vector>

#include "common/check.hpp"
#include "common/types.hpp"

namespace prosim {

enum class WbKind : std::uint8_t { kRegRelease, kLoadComplete };

struct WbEvent {
  Cycle at;
  WbKind kind;
  int warp;
  std::uint8_t reg;
  std::uint32_t token;
};

class WbRing {
 public:
  /// `max_latency`: the largest distance between the cycle an event is
  /// pushed and the cycle it is due. The ring holds at least 64 buckets,
  /// so a small ring is one bitset word. It allocates nothing until the
  /// first push, so building a Gpu that is never stepped leaves the
  /// allocator's heap (and when glibc trims it) as it was.
  explicit WbRing(Cycle max_latency)
      : mask_(std::bit_ceil(std::max<Cycle>(max_latency + 1, 64)) - 1) {}

  /// Number of buckets, R.
  Cycle span() const { return mask_ + 1; }
  bool empty() const { return pending_ == 0; }
  std::size_t size() const { return pending_; }

  void push(const WbEvent& ev) {
    if (buckets_.empty()) [[unlikely]] {
      buckets_.resize(mask_ + 1);
      nonempty_.assign((mask_ + 1) / 64, 0);
    }
    const std::size_t b = ev.at & mask_;
    buckets_[b].push_back(ev);
    nonempty_[b / 64] |= 1ull << (b % 64);
    ++pending_;
    next_due_ = std::min(next_due_, ev.at);
  }

  /// Calls f(ev) for every event due at `now`, in push order; returns
  /// whether there was one. f must not push an event due at `now`.
  template <typename F>
  bool drain(Cycle now, F&& f) {
    if (next_due_ > now) return false;
#ifdef PROSIM_DEBUG_CHECKS
    PROSIM_CHECK_MSG(next_due_ == now, "writeback ring skipped a due cycle");
#endif
    const std::size_t b = now & mask_;
    std::vector<WbEvent>& bucket = buckets_[b];
    for (const WbEvent& ev : bucket) {
#ifdef PROSIM_DEBUG_CHECKS
      PROSIM_CHECK_MSG(ev.at == now, "writeback drained off its cycle");
#endif
      f(ev);
    }
    pending_ -= bucket.size();
    bucket.clear();
    nonempty_[b / 64] &= ~(1ull << (b % 64));
    next_due_ = next_from_bitset(now);
    return true;
  }

  /// The earliest cycle after `now` with an event due, or kNoCycle. Valid
  /// once the events due at `now` are drained.
  Cycle next_after([[maybe_unused]] Cycle now) const {
#ifdef PROSIM_DEBUG_CHECKS
    PROSIM_CHECK_MSG(next_due_ == next_by_scan(now) &&
                         next_due_ == next_from_bitset(now),
                     "writeback ring bitset disagrees with its buckets");
#endif
    return next_due_;
  }

 private:
  Cycle next_from_bitset(Cycle now) const {
    if (pending_ == 0) return kNoCycle;
    // Scan the bitset circularly from bucket `from`: the rest of its word,
    // the other words, then the low part of its word.
    const std::size_t from = (now + 1) & mask_;
    const std::size_t words = nonempty_.size();
    const std::size_t first = from / 64;
    const std::uint64_t high = ~std::uint64_t{0} << (from % 64);
    for (std::size_t i = 0; i <= words; ++i) {
      const std::size_t wi = (first + i) % words;
      std::uint64_t w = nonempty_[wi];
      if (i == 0) w &= high;
      if (i == words) w &= ~high;
      if (w == 0) continue;
      const std::size_t b = wi * 64 + static_cast<std::size_t>(std::countr_zero(w));
      return now + 1 + ((b - from) & mask_);
    }
    return kNoCycle;  // unreachable: pending_ > 0 sets some bit
  }

#ifdef PROSIM_DEBUG_CHECKS
  /// next_after from the buckets' own events, ignoring the bitset; also
  /// checks that no event is overdue or beyond the ring's reach.
  Cycle next_by_scan(Cycle now) const {
    Cycle t = kNoCycle;
    std::size_t count = 0;
    for (const std::vector<WbEvent>& bucket : buckets_) {
      for (const WbEvent& ev : bucket) {
        PROSIM_CHECK_MSG(ev.at > now && ev.at - now <= mask_,
                         "writeback outside the ring's window");
        t = std::min(t, ev.at);
        ++count;
      }
    }
    PROSIM_CHECK(count == pending_);
    return t;
  }
#endif

  Cycle mask_;  ///< R - 1
  std::vector<std::vector<WbEvent>> buckets_;
  std::vector<std::uint64_t> nonempty_;  ///< bit b: buckets_[b] nonempty
  std::size_t pending_ = 0;
  Cycle next_due_ = kNoCycle;  ///< earliest pending `at`
};

}  // namespace prosim
