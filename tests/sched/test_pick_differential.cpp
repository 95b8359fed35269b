// Differential tests of the mask-algebra picks: LRR, TL, GTO and PRO
// against the linear-scan picks they replaced, kept here as references.
// Seeded random ready masks, rotation pointers, launch sequences and
// policy events must give the same warp on every pick, for warps_per_tb in
// {1, 2, 3, 8, 16, 32} over 48 warp slots (TB masks that do not divide 64
// included) and one or two hardware schedulers.
#include <algorithm>
#include <deque>
#include <numeric>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "core/pro_scheduler.hpp"
#include "policy_test_util.hpp"
#include "sched/gto.hpp"
#include "sched/lrr.hpp"
#include "sched/tl.hpp"

namespace prosim {
namespace {

// ---- References: the linear-scan picks ------------------------------------

/// LRR (and TL's pick within its active set): scan slots circularly from
/// just after the previous pick.
struct LinearRoundRobin {
  std::vector<int> next;
  int pick(int n, int sched, std::uint64_t ready) {
    const int start = next[static_cast<std::size_t>(sched)];
    for (int i = 0; i < n; ++i) {
      const int w = (start + i) % n;
      if (ready & (1ull << w)) {
        next[static_cast<std::size_t>(sched)] = (w + 1) % n;
        return w;
      }
    }
    return -1;
  }
};

/// GTO: the greedy warp while ready, else the ready warp of the oldest TB
/// by launch sequence, tie-broken by lower slot, over every slot.
struct LinearGto {
  std::vector<int> last;
  int pick(const PolicyContext& ctx, int sched, std::uint64_t ready) {
    int& l = last[static_cast<std::size_t>(sched)];
    if (l >= 0 && (ready & (1ull << l))) return l;
    int best = -1;
    std::uint64_t best_seq = 0;
    for (int w = 0; w < ctx.num_warp_slots; ++w) {
      if ((ready & (1ull << w)) == 0) continue;
      const std::uint64_t seq = ctx.tb_launch_seq[w / ctx.warps_per_tb];
      if (best < 0 || seq < best_seq || (seq == best_seq && w < best)) {
        best = w;
        best_seq = seq;
      }
    }
    l = best;
    return best;
  }
  void on_warp_finish(int warp) {
    for (int& l : last) {
      if (l == warp) l = -1;
    }
  }
};

/// PRO: walk the flattened priority list, skipping other schedulers' warps.
int linear_pro_pick(const ProPolicy& pro, int num_schedulers, int sched,
                    std::uint64_t ready) {
  for (int w : pro.priority_list()) {
    if (w % num_schedulers != sched) continue;
    if (ready & (1ull << w)) return w;
  }
  return -1;
}

/// TL's active/pending bookkeeping with the active set as an ordered list,
/// as it was kept before the mask became its only record (plus the
/// on_tb_finish that drops a yielded TB's warps).
class ListTl {
 public:
  ListTl(const PolicyContext& ctx, int active_size)
      : ctx_(ctx),
        size_(active_size),
        active_(static_cast<std::size_t>(ctx.num_schedulers)),
        pending_(static_cast<std::size_t>(ctx.num_schedulers)),
        at_barrier_(static_cast<std::size_t>(ctx.num_warp_slots), false) {}

  std::uint64_t consider_mask(int sched) const {
    std::uint64_t m = 0;
    for (int w : active_[static_cast<std::size_t>(sched)]) m |= 1ull << w;
    return m;
  }
  void on_tb_launch(int tb) {
    for (int i = 0; i < ctx_.warps_per_tb; ++i) {
      const int w = tb * ctx_.warps_per_tb + i;
      auto& active = active_[sched_of(w)];
      at_barrier_[static_cast<std::size_t>(w)] = false;
      if (static_cast<int>(active.size()) < size_) {
        active.push_back(w);
      } else {
        pending_[sched_of(w)].push_back(w);
      }
    }
  }
  void on_warp_issue(int w, bool long_latency) {
    if (long_latency) demote(w);
  }
  void on_warp_barrier_arrive(int w) {
    at_barrier_[static_cast<std::size_t>(w)] = true;
    demote(w);
  }
  void on_barrier_release(int tb) {
    for (int i = 0; i < ctx_.warps_per_tb; ++i) {
      at_barrier_[static_cast<std::size_t>(tb * ctx_.warps_per_tb + i)] =
          false;
    }
    for (std::size_t s = 0; s < active_.size(); ++s) top_up(s);
  }
  void on_warp_finish(int w) {
    drop(w);
    top_up(sched_of(w));
  }
  void on_tb_finish(int tb) {
    for (int i = 0; i < ctx_.warps_per_tb; ++i) {
      const int w = tb * ctx_.warps_per_tb + i;
      if (drop(w)) top_up(sched_of(w));
    }
  }

 private:
  std::size_t sched_of(int w) const {
    return static_cast<std::size_t>(w % ctx_.num_schedulers);
  }
  bool drop(int w) {
    const std::size_t s = sched_of(w);
    auto it = std::find(active_[s].begin(), active_[s].end(), w);
    if (it != active_[s].end()) {
      active_[s].erase(it);
      return true;
    }
    auto pit = std::find(pending_[s].begin(), pending_[s].end(), w);
    if (pit == pending_[s].end()) return false;
    pending_[s].erase(pit);
    return true;
  }
  void promote_one(std::size_t s) {
    for (auto it = pending_[s].begin(); it != pending_[s].end(); ++it) {
      if (!at_barrier_[static_cast<std::size_t>(*it)]) {
        active_[s].push_back(*it);
        pending_[s].erase(it);
        return;
      }
    }
  }
  void top_up(std::size_t s) {
    while (static_cast<int>(active_[s].size()) < size_ &&
           !pending_[s].empty()) {
      const std::size_t before = active_[s].size();
      promote_one(s);
      if (active_[s].size() == before) break;
    }
  }
  void demote(int w) {
    const std::size_t s = sched_of(w);
    auto it = std::find(active_[s].begin(), active_[s].end(), w);
    if (it == active_[s].end() || pending_[s].empty()) return;
    active_[s].erase(it);
    pending_[s].push_back(w);
    promote_one(s);
  }

  PolicyContext ctx_;
  int size_;
  std::vector<std::vector<int>> active_;
  std::vector<std::deque<int>> pending_;
  std::vector<bool> at_barrier_;
};

// ---- The grid --------------------------------------------------------------

struct Shape {
  int warps_per_tb;
  int num_schedulers;
};

std::vector<Shape> shapes() {
  std::vector<Shape> out;
  for (int wpt : {1, 2, 3, 8, 16, 32}) {
    for (int ns : {1, 2}) out.push_back({wpt, ns});
  }
  return out;
}

/// 48 warp slots' worth of TB slots (one TB when a TB has 32 warps).
FakeSm make_sm(const Shape& shape) {
  return FakeSm(std::max(1, 48 / shape.warps_per_tb), shape.warps_per_tb,
                shape.num_schedulers);
}

std::uint64_t sched_bits(const PolicyContext& ctx, int sched) {
  std::uint64_t m = 0;
  for (int w = sched; w < ctx.num_warp_slots; w += ctx.num_schedulers) {
    m |= 1ull << w;
  }
  return m;
}

/// A random nonempty subset of `from` (which must be nonempty): each bit
/// kept with probability 1/2, or a single bit, or all of them.
std::uint64_t random_subset(Rng& rng, std::uint64_t from) {
  switch (rng.next_below(4)) {
    case 0: return from;
    case 1: {
      const auto k = static_cast<int>(rng.next_below(
          static_cast<std::uint64_t>(std::popcount(from))));
      std::uint64_t m = from;
      for (int i = 0; i < k; ++i) m &= m - 1;
      return m & (~m + 1);  // the k-th set bit
    }
    default: {
      const std::uint64_t m = from & rng.next_u64();
      return m != 0 ? m : from & (~from + 1);
    }
  }
}

/// Launch sequences: a random permutation, so age and slot order differ.
void shuffle_launch_seqs(Rng& rng, FakeSm& sm) {
  std::vector<std::uint64_t> seqs(sm.tb_launch_seq.size());
  std::iota(seqs.begin(), seqs.end(), 100);
  for (std::size_t i = seqs.size(); i > 1; --i) {
    std::swap(seqs[i - 1], seqs[rng.next_below(i)]);
  }
  sm.tb_launch_seq = seqs;
  sm.ctx.tb_launch_seq = sm.tb_launch_seq.data();
}

// ---- The tests -------------------------------------------------------------

TEST(PickDifferential, LrrMatchesLinearScan) {
  for (const Shape& shape : shapes()) {
    FakeSm sm = make_sm(shape);
    const int n = sm.ctx.num_warp_slots;
    for (std::uint64_t seed = 1; seed <= 6; ++seed) {
      SCOPED_TRACE(testing::Message() << "wpt " << shape.warps_per_tb
                                      << " ns " << shape.num_schedulers
                                      << " seed " << seed);
      Rng rng(seed);
      LrrPolicy lrr;
      lrr.attach(sm.ctx);
      LinearRoundRobin ref{std::vector<int>(
          static_cast<std::size_t>(shape.num_schedulers), 0)};
      for (int step = 0; step < 2000; ++step) {
        const int s = static_cast<int>(
            rng.next_below(static_cast<std::uint64_t>(shape.num_schedulers)));
        const std::uint64_t ready =
            random_subset(rng, sched_bits(sm.ctx, s));
        ASSERT_EQ(lrr.pick(s, ready, 0), ref.pick(n, s, ready))
            << "step " << step;
      }
    }
  }
}

TEST(PickDifferential, GtoMatchesLinearScan) {
  for (const Shape& shape : shapes()) {
    for (std::uint64_t seed = 1; seed <= 6; ++seed) {
      SCOPED_TRACE(testing::Message() << "wpt " << shape.warps_per_tb
                                      << " ns " << shape.num_schedulers
                                      << " seed " << seed);
      Rng rng(seed);
      FakeSm sm = make_sm(shape);
      shuffle_launch_seqs(rng, sm);
      GtoPolicy gto;
      gto.attach(sm.ctx);
      LinearGto ref{std::vector<int>(
          static_cast<std::size_t>(shape.num_schedulers), -1)};
      for (int step = 0; step < 2000; ++step) {
        if (rng.next_below(8) == 0) {
          // A TB relaunches into its slot: it is now the youngest.
          const auto t = rng.next_below(sm.tb_launch_seq.size());
          sm.tb_launch_seq[t] = 1000 + static_cast<std::uint64_t>(step);
        }
        if (rng.next_below(8) == 0) {
          const int w = static_cast<int>(rng.next_below(
              static_cast<std::uint64_t>(sm.ctx.num_warp_slots)));
          gto.on_warp_finish(w, w / shape.warps_per_tb);
          ref.on_warp_finish(w);
        }
        const int s = static_cast<int>(
            rng.next_below(static_cast<std::uint64_t>(shape.num_schedulers)));
        const std::uint64_t ready =
            random_subset(rng, sched_bits(sm.ctx, s));
        ASSERT_EQ(gto.pick(s, ready, 0), ref.pick(sm.ctx, s, ready))
            << "step " << step;
      }
    }
  }
}

TEST(PickDifferential, TlMatchesListActiveSetAndLinearScan) {
  for (const Shape& shape : shapes()) {
    for (int active_size : {1, 3, 6}) {
      for (std::uint64_t seed = 1; seed <= 4; ++seed) {
        SCOPED_TRACE(testing::Message()
                     << "wpt " << shape.warps_per_tb << " ns "
                     << shape.num_schedulers << " active " << active_size
                     << " seed " << seed);
        Rng rng(seed);
        FakeSm sm = make_sm(shape);
        const int wpt = shape.warps_per_tb;
        const int n = sm.ctx.num_warp_slots;
        TlPolicy tl(active_size);
        tl.attach(sm.ctx);
        ListTl ref(sm.ctx, active_size);
        LinearRoundRobin rr{std::vector<int>(
            static_cast<std::size_t>(shape.num_schedulers), 0)};
        // Per warp: 0 unallocated, 1 live, 2 at the barrier, 3 finished.
        std::vector<int> state(static_cast<std::size_t>(n), 0);
        auto tb_state_all = [&](int t, int s) {
          for (int i = 0; i < wpt; ++i) {
            const int st = state[static_cast<std::size_t>(t * wpt + i)];
            if (st != s && !(s == 0 && st == 3)) return false;
          }
          return true;
        };
        for (int step = 0; step < 3000; ++step) {
          const int t = static_cast<int>(rng.next_below(
              static_cast<std::uint64_t>(sm.ctx.num_tb_slots)));
          const int w = t * wpt + static_cast<int>(rng.next_below(
                                      static_cast<std::uint64_t>(wpt)));
          int& ws = state[static_cast<std::size_t>(w)];
          switch (rng.next_below(7)) {
            case 0:  // launch into a slot whose warps are all gone
              if (tb_state_all(t, 0)) {
                tl.on_tb_launch(t);
                ref.on_tb_launch(t);
                for (int i = 0; i < wpt; ++i) {
                  state[static_cast<std::size_t>(t * wpt + i)] = 1;
                }
              }
              break;
            case 1:
            case 2:
              if (ws == 1) {
                const bool long_latency = rng.next_below(2) != 0;
                tl.on_warp_issue(w, 32, long_latency);
                ref.on_warp_issue(w, long_latency);
              }
              break;
            case 3:
              if (ws == 1) {
                ws = 2;
                tl.on_warp_barrier_arrive(w, t);
                ref.on_warp_barrier_arrive(w);
              }
              break;
            case 4: {
              bool any_parked = false;
              for (int i = 0; i < wpt; ++i) {
                int& st = state[static_cast<std::size_t>(t * wpt + i)];
                if (st == 2) {
                  st = 1;
                  any_parked = true;
                }
              }
              if (any_parked) {
                tl.on_barrier_release(t);
                ref.on_barrier_release(t);
              }
              break;
            }
            case 5:
              if (ws == 1) {
                ws = 3;
                tl.on_warp_finish(w, t);
                ref.on_warp_finish(w);
              }
              break;
            default:  // the TB leaves: retired, or yielded mid-run
              if (!tb_state_all(t, 0)) {
                tl.on_tb_finish(t);
                ref.on_tb_finish(t);
                for (int i = 0; i < wpt; ++i) {
                  state[static_cast<std::size_t>(t * wpt + i)] = 0;
                }
              }
              break;
          }
          for (int s = 0; s < shape.num_schedulers; ++s) {
            const std::uint64_t consider = tl.consider_mask(s);
            ASSERT_EQ(consider, ref.consider_mask(s)) << "step " << step;
            std::uint64_t live = 0;
            for (int v = 0; v < n; ++v) {
              if (state[static_cast<std::size_t>(v)] == 1) live |= 1ull << v;
            }
            const std::uint64_t candidates =
                consider & live & sched_bits(sm.ctx, s);
            if (candidates == 0) continue;
            const std::uint64_t ready = random_subset(rng, candidates);
            ASSERT_EQ(tl.pick(s, ready, 0), rr.pick(n, s, ready))
                << "step " << step;
          }
        }
      }
    }
  }
}

TEST(PickDifferential, ProMatchesPriorityListWalk) {
  for (const Shape& shape : shapes()) {
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
      SCOPED_TRACE(testing::Message() << "wpt " << shape.warps_per_tb
                                      << " ns " << shape.num_schedulers
                                      << " seed " << seed);
      Rng rng(seed);
      FakeSm sm = make_sm(shape);
      const int wpt = shape.warps_per_tb;
      const int tbs = sm.ctx.num_tb_slots;
      ProConfig config;
      config.sort_threshold = 50;
      ProPolicy pro(config);
      pro.attach(sm.ctx);
      sm.tbs_waiting = true;
      std::vector<bool> active(static_cast<std::size_t>(tbs), false);
      int next_ctaid = 0;
      Cycle now = 0;
      for (int step = 0; step < 3000; ++step) {
        now += 1 + rng.next_below(20);
        for (auto& p : sm.warp_progress) p += rng.next_below(40);
        for (int t = 0; t < tbs; ++t) {
          std::uint64_t sum = 0;
          for (int i = 0; i < wpt; ++i) {
            sum += sm.warp_progress[static_cast<std::size_t>(t * wpt + i)];
          }
          sm.tb_progress[static_cast<std::size_t>(t)] = sum;
        }
        if (step == 1500) sm.tbs_waiting = false;  // into slowTBPhase
        pro.begin_cycle(now);
        const int t = static_cast<int>(
            rng.next_below(static_cast<std::uint64_t>(tbs)));
        const int w = t * wpt + static_cast<int>(rng.next_below(
                                    static_cast<std::uint64_t>(wpt)));
        const bool on = active[static_cast<std::size_t>(t)];
        switch (rng.next_below(6)) {
          case 0:
            if (!on) {
              sm.tb_ctaid[static_cast<std::size_t>(t)] = next_ctaid++;
              sm.tb_launch_seq[static_cast<std::size_t>(t)] = sm.next_seq++;
              for (int i = 0; i < wpt; ++i) {
                sm.warp_progress[static_cast<std::size_t>(t * wpt + i)] = 0;
              }
              pro.on_tb_launch(t);
              active[static_cast<std::size_t>(t)] = true;
            }
            break;
          case 1:
            if (on && rng.next_below(4) == 0) {
              pro.on_tb_finish(t);
              sm.tb_ctaid[static_cast<std::size_t>(t)] = -1;
              active[static_cast<std::size_t>(t)] = false;
            }
            break;
          case 2:
            if (on) pro.on_warp_barrier_arrive(w, t);
            break;
          case 3:
            if (on) pro.on_barrier_release(t);
            break;
          case 4:
            if (on) pro.on_warp_finish(w, t);
            break;
          default:
            break;
        }
        std::uint64_t resident = 0;
        for (int u = 0; u < tbs; ++u) {
          if (active[static_cast<std::size_t>(u)]) {
            resident |= tb_warp_mask(wpt, u);
          }
        }
        for (int s = 0; s < shape.num_schedulers; ++s) {
          const std::uint64_t candidates = resident & sched_bits(sm.ctx, s);
          if (candidates == 0) continue;
          const std::uint64_t ready = random_subset(rng, candidates);
          ASSERT_EQ(pro.pick(s, ready, now),
                    linear_pro_pick(pro, shape.num_schedulers, s, ready))
              << "step " << step;
        }
      }
    }
  }
}

}  // namespace
}  // namespace prosim
