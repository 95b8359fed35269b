// Differential test of the SM's writeback ring: WbRing against a binary
// heap ordered on (at, push sequence), the order the ring defines for
// events due in the same cycle. Seeded random push/drain sequences, with
// latencies drawn from what an SmConfig can schedule, must drain the same
// events in the same order at the same cycles and agree on next_after at
// every step, including configs whose largest latency exceeds 64 (a ring
// of several bitset words).
#include <algorithm>
#include <bit>
#include <queue>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "gpu/gpu.hpp"
#include "isa/builder.hpp"
#include "isa/interpreter.hpp"
#include "sm/sm_core.hpp"
#include "sm/wb_ring.hpp"

namespace prosim {
namespace {

/// The heap the ring replaced, with push sequence as the tie-break.
class HeapReference {
 public:
  void push(const WbEvent& ev) { heap_.push({ev.at, seq_++, ev}); }

  std::vector<WbEvent> drain(Cycle now) {
    std::vector<WbEvent> out;
    while (!heap_.empty() && heap_.top().at <= now) {
      out.push_back(heap_.top().ev);
      heap_.pop();
    }
    return out;
  }

  Cycle next() const { return heap_.empty() ? kNoCycle : heap_.top().at; }

 private:
  struct Entry {
    Cycle at;
    std::uint64_t seq;
    WbEvent ev;
    bool operator>(const Entry& o) const {
      return std::tie(at, seq) > std::tie(o.at, o.seq);
    }
  };
  std::priority_queue<Entry, std::vector<Entry>, std::greater<>> heap_;
  std::uint64_t seq_ = 0;
};

/// Every distance from an issue to its writeback that `sm` can produce.
std::vector<Cycle> latencies_of(const SmConfig& sm) {
  std::vector<Cycle> lat = {sm.alu_latency, sm.fp_latency, sm.sfu_latency,
                            sm.l1_hit_latency, sm.const_latency};
  for (int degree = 1; degree <= kWarpSize; ++degree) {
    lat.push_back(sm.smem_latency + static_cast<Cycle>(degree) - 1);
  }
  return lat;
}

struct RingCase {
  const char* name;
  SmConfig sm;
};

std::vector<RingCase> ring_cases() {
  std::vector<RingCase> cases;
  cases.push_back({"default", SmConfig{}});
  SmConfig slow_alu;
  slow_alu.alu_latency = 40;
  cases.push_back({"alu40", slow_alu});
  SmConfig slow_sfu;
  slow_sfu.sfu_latency = 100;
  cases.push_back({"sfu100", slow_sfu});
  SmConfig conflicts;  // 32-way conflicts reach 40 + 31 = 71
  conflicts.smem_banks = 32;
  conflicts.smem_latency = 40;
  cases.push_back({"smem40x32way", conflicts});
  SmConfig far;
  far.l1_hit_latency = 300;
  far.const_latency = 2;
  cases.push_back({"l1hit300", far});
  return cases;
}

TEST(WbRing, SizedAboveTheLargestLatency) {
  EXPECT_EQ(SmCore::max_writeback_latency(SmConfig{}), 24u + kWarpSize - 1);
  EXPECT_EQ(WbRing(SmCore::max_writeback_latency(SmConfig{})).span(), 64u);
  for (const RingCase& c : ring_cases()) {
    const Cycle max_lat = SmCore::max_writeback_latency(c.sm);
    for (Cycle l : latencies_of(c.sm)) EXPECT_LE(l, max_lat) << c.name;
    const WbRing ring(max_lat);
    EXPECT_GT(ring.span(), max_lat) << c.name;
    EXPECT_EQ(ring.span() % 64, 0u) << c.name;
    EXPECT_TRUE(std::has_single_bit(ring.span())) << c.name;
  }
  EXPECT_EQ(WbRing(100).span(), 128u);
  EXPECT_EQ(WbRing(300).span(), 512u);
}

TEST(WbRing, ZeroLatencyIsAStructuredError) {
  SmConfig sm;
  sm.const_latency = 0;
  EXPECT_THROW(SmCore::max_writeback_latency(sm), SimException);
}

TEST(WbRing, MatchesHeapOnRandomPushDrainSequences) {
  for (const RingCase& c : ring_cases()) {
    const std::vector<Cycle> lat = latencies_of(c.sm);
    for (std::uint64_t seed = 1; seed <= 8; ++seed) {
      SCOPED_TRACE(testing::Message() << c.name << " seed " << seed);
      Rng rng(seed * 7919 + lat.size());
      WbRing ring(SmCore::max_writeback_latency(c.sm));
      HeapReference ref;
      // Start anywhere, so bucket indices wrap at arbitrary points.
      Cycle now = rng.next_below(1u << 20);
      std::uint32_t token = 0;
      std::size_t pending = 0;
      for (int step = 0; step < 3000; ++step) {
        // Drain what is due now.
        std::vector<WbEvent> got;
        const bool any = ring.drain(now, [&](const WbEvent& ev) {
          got.push_back(ev);
        });
        const std::vector<WbEvent> want = ref.drain(now);
        ASSERT_EQ(any, !want.empty()) << "cycle " << now;
        ASSERT_EQ(got.size(), want.size()) << "cycle " << now;
        for (std::size_t i = 0; i < got.size(); ++i) {
          EXPECT_EQ(got[i].at, now);
          EXPECT_EQ(got[i].token, want[i].token) << "cycle " << now;
          EXPECT_EQ(got[i].kind, want[i].kind);
          EXPECT_EQ(got[i].warp, want[i].warp);
          EXPECT_EQ(got[i].reg, want[i].reg);
        }
        // Push a burst: often none, sometimes several in one cycle, with
        // repeated latencies so buckets hold same-cycle ties.
        const int pushes = static_cast<int>(rng.next_below(5)) - 1;
        for (int i = 0; i < pushes; ++i) {
          const Cycle l = lat[rng.next_below(lat.size())];
          const WbEvent ev{now + l,
                           rng.next_below(2) != 0 ? WbKind::kRegRelease
                                                  : WbKind::kLoadComplete,
                           static_cast<int>(rng.next_below(48)),
                           static_cast<std::uint8_t>(rng.next_below(64)),
                           token++};
          ring.push(ev);
          ref.push(ev);
        }
        pending += static_cast<std::size_t>(std::max(pushes, 0));
        pending -= want.size();
        ASSERT_EQ(ring.size(), pending);
        const Cycle next = ring.next_after(now);
        ASSERT_EQ(next, ref.next()) << "cycle " << now;
        ASSERT_EQ(ring.empty(), next == kNoCycle);
        // Advance as the SM is ticked: one cycle, or straight to the next
        // due event, or anywhere in between; never past it.
        if (next == kNoCycle) {
          now += 1 + rng.next_below(1000);
        } else {
          switch (rng.next_below(3)) {
            case 0: now += 1; break;
            case 1: now = next; break;
            default: now += 1 + rng.next_below(next - now); break;
          }
        }
      }
    }
  }
}

/// A kernel whose every lane hits shared-memory bank 0 (a 32-way
/// conflict) and then feeds the SFU.
Program conflict_sfu_kernel() {
  ProgramBuilder b("conflict_sfu");
  b.block_dim(64).grid_dim(6).smem(64 * 256);
  b.s2r(0, SpecialReg::kTid);
  b.ishli(1, 0, 8);  // 256-byte stride: every word in bank 0
  b.iaddi(2, 0, 3);
  b.sts(1, 0, 2);
  b.lds(3, 1, 0);
  b.rsqrt(4, 3);
  b.s2r(5, SpecialReg::kGlobalTid);
  b.ishli(5, 5, 3);
  b.stg(5, 0, 4);
  b.exit_();
  return b.build();
}

TEST(WbRing, MultiWordRingRunsKernelsCorrectly) {
  const Program p = conflict_sfu_kernel();
  GlobalMemory golden;
  interpret(p, golden);
  Cycle base_cycles = 0;
  for (const RingCase& c : ring_cases()) {
    SCOPED_TRACE(c.name);
    GpuConfig cfg = GpuConfig::test_config();
    cfg.sm = c.sm;
    GlobalMemory mem;
    const GpuResult r = simulate(cfg, p, mem);
    EXPECT_TRUE(mem == golden);
    if (base_cycles == 0) {
      base_cycles = r.cycles;  // the default config comes first
    } else if (c.sm.sfu_latency > SmConfig{}.sfu_latency ||
               c.sm.smem_latency > SmConfig{}.smem_latency) {
      EXPECT_GT(r.cycles, base_cycles);
    }
  }
}

}  // namespace
}  // namespace prosim
