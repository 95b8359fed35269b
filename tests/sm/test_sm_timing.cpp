// Timing-validation tests: measure latencies end-to-end through the SM
// pipeline with single-warp microkernels and check them against the
// configured machine parameters. These pin the timing model — if a
// refactor changes an effective latency, a test fails rather than the
// paper reproduction silently drifting.
#include <gtest/gtest.h>

#include "gpu/gpu.hpp"
#include "isa/builder.hpp"

namespace prosim {
namespace {

GpuConfig tiny() {
  GpuConfig cfg = GpuConfig::test_config();
  cfg.num_sms = 1;
  return cfg;
}

/// Cycles to run a single-warp kernel built by `body` (which must end with
/// exit_()). Returns total simulated cycles.
Cycle run_cycles(const std::function<void(ProgramBuilder&)>& body,
                 GlobalMemory* mem_out = nullptr) {
  ProgramBuilder b("micro");
  b.block_dim(32).grid_dim(1).smem(8192);
  body(b);
  GlobalMemory mem;
  for (int i = 0; i < 1024; ++i) mem.store(i * 8, i);
  GpuResult r = simulate(tiny(), b.build(), mem);
  if (mem_out != nullptr) *mem_out = mem;
  return r.cycles;
}

/// Measures the incremental cost of `n` extra instructions emitted by
/// `emit` in a dependent chain.
Cycle chain_cost(int n, const std::function<void(ProgramBuilder&)>& emit) {
  auto base = run_cycles([&](ProgramBuilder& b) {
    b.movi(1, 5);
    b.exit_();
  });
  auto with = run_cycles([&](ProgramBuilder& b) {
    b.movi(1, 5);
    for (int i = 0; i < n; ++i) emit(b);
    b.exit_();
  });
  return with - base;
}

TEST(SmTiming, DependentAluChainPaysAluLatency) {
  const SmConfig sm;
  // Each dependent iadd must wait for the previous writeback.
  const int n = 10;
  const Cycle cost = chain_cost(n, [](ProgramBuilder& b) {
    b.iaddi(1, 1, 1);  // depends on itself
  });
  EXPECT_GE(cost, n * sm.alu_latency);
  EXPECT_LE(cost, n * (sm.alu_latency + 3));
}

TEST(SmTiming, IndependentAluIssuesEveryCycle) {
  // Independent instructions should not pay the latency — issue rate 1.
  const int n = 20;
  const Cycle cost = chain_cost(n, [](ProgramBuilder& b) {
    static std::uint8_t r = 2;
    b.movi(2 + (r++ % 8), 7);  // all independent
  });
  EXPECT_LE(cost, n + 8);  // ~1 cycle each plus pipeline drain slack
}

TEST(SmTiming, FpChainSlowerThanIntChain) {
  const Cycle int_cost = chain_cost(8, [](ProgramBuilder& b) {
    b.iaddi(1, 1, 1);
  });
  const Cycle fp_cost = chain_cost(8, [](ProgramBuilder& b) {
    b.fadd(1, 1, 1);
  });
  EXPECT_GT(fp_cost, int_cost);
}

TEST(SmTiming, SfuChainPaysSfuLatency) {
  const SmConfig sm;
  const int n = 6;
  const Cycle cost = chain_cost(n, [](ProgramBuilder& b) {
    b.rsqrt(1, 1);
  });
  EXPECT_GE(cost, n * sm.sfu_latency);
}

TEST(SmTiming, SharedMemoryLoadToUse) {
  const SmConfig sm;
  const int n = 6;
  const Cycle cost = chain_cost(n, [](ProgramBuilder& b) {
    // Dependent shared-memory round trip via the address register.
    b.iandi(1, 1, 0xF8);
    b.lds(1, 1, 0);
  });
  // Each pair costs ~alu + smem latency.
  EXPECT_GE(cost, n * sm.smem_latency);
  EXPECT_LE(cost, n * (sm.smem_latency + sm.alu_latency + 6));
}

TEST(SmTiming, L1HitLatencyObserved) {
  const SmConfig sm;
  // First load misses (DRAM); subsequent dependent loads to the same line
  // hit the L1 and pay ~l1_hit_latency each.
  const int n = 8;
  auto one = run_cycles([&](ProgramBuilder& b) {
    b.movi(1, 0);
    b.ldg(2, 1, 0);   // warm the line
    b.iandi(3, 2, 0x78);
    b.ldg(2, 3, 0);
    b.exit_();
  });
  auto many = run_cycles([&](ProgramBuilder& b) {
    b.movi(1, 0);
    b.ldg(2, 1, 0);
    b.iandi(3, 2, 0x78);
    b.ldg(2, 3, 0);
    for (int i = 0; i < n; ++i) {
      b.iandi(3, 2, 0x78);  // dependent address
      b.ldg(2, 3, 0);       // L1 hit
    }
    b.exit_();
  });
  const Cycle per_hit = (many - one) / n;
  EXPECT_GE(per_hit, sm.l1_hit_latency);
  EXPECT_LE(per_hit, sm.l1_hit_latency + sm.alu_latency + 8);
}

TEST(SmTiming, GlobalMissCostsHundredsOfCycles) {
  // Uncontended DRAM round trip: the Fermi-era ballpark the DESIGN
  // documents (~450 cycles). Guard a generous band.
  auto base = run_cycles([&](ProgramBuilder& b) {
    b.movi(1, 0);
    b.exit_();
  });
  auto with = run_cycles([&](ProgramBuilder& b) {
    b.movi(1, 1 << 19);
    b.ldg(2, 1, 0);     // cold miss
    b.iadd(3, 2, 2);    // use it
    b.exit_();
  });
  const Cycle cost = with - base;
  EXPECT_GE(cost, 80u);
  EXPECT_LE(cost, 800u);
}

TEST(SmTiming, BankConflictsSerializeSharedAccess) {
  // 32-way conflict store vs conflict-free store.
  auto conflict_free = run_cycles([&](ProgramBuilder& b) {
    b.s2r(0, SpecialReg::kTid);
    b.ishli(1, 0, 3);  // one word per bank
    for (int i = 0; i < 8; ++i) b.sts(1, 0, 0);
    b.exit_();
  });
  auto conflicted = run_cycles([&](ProgramBuilder& b) {
    b.s2r(0, SpecialReg::kTid);
    b.imuli(1, 0, 32 * 8);  // all lanes on bank 0
    for (int i = 0; i < 8; ++i) b.sts(1, 0, 0);
    b.exit_();
  });
  EXPECT_GT(conflicted, conflict_free + 8 * 20);
}

TEST(SmTiming, CoalescingReducesMemoryTime) {
  auto coalesced = run_cycles([&](ProgramBuilder& b) {
    b.s2r(0, SpecialReg::kTid);
    b.ishli(1, 0, 3);
    b.ldg(2, 1, 0);
    b.iadd(3, 2, 2);
    b.exit_();
  });
  auto scattered = run_cycles([&](ProgramBuilder& b) {
    b.s2r(0, SpecialReg::kTid);
    b.imuli(1, 0, 4096);  // every lane its own line
    b.ldg(2, 1, 0);
    b.iadd(3, 2, 2);
    b.exit_();
  });
  EXPECT_GT(scattered, coalesced + 30);
}

/// Cycles of a kernel that runs `op` (r1 = its lane's byte address,
/// r4 = 1), then a chain of SFU ops hanging off r2, the destination an
/// atomic may name. The chain outlasts any one memory round trip, so the
/// total moves exactly with the cycle the chain's first op issues.
Cycle op_then_chain(int addr_scale,
                    const std::function<void(ProgramBuilder&)>& op) {
  return run_cycles([&](ProgramBuilder& b) {
    b.s2r(0, SpecialReg::kTid);
    b.imuli(1, 0, addr_scale);
    b.movi(4, 1);
    op(b);
    b.iadd(3, 2, 2);
    for (int i = 0; i < 40; ++i) b.rsqrt(3, 3);
    b.exit_();
  });
}

/// Stands in for an atomic without holding any register: reads r1 and r4.
void independent_op(ProgramBuilder& b) { b.iadd(5, 1, 4); }

TEST(SmTiming, GlobalAtomicHoldsOnlyANamedDestination) {
  const Cycle base = op_then_chain(8, independent_op);
  const Cycle no_dst = op_then_chain(
      8, [](ProgramBuilder& b) { b.atomg_exch(kNoReg, 1, 0, 4); });
  const Cycle dst = op_then_chain(
      8, [](ProgramBuilder& b) { b.atomg_exch(2, 1, 0, 4); });
  EXPECT_EQ(no_dst, base);      // the dependent op issues at once
  EXPECT_GE(dst, no_dst + 80);  // it waits for the L2's response
}

TEST(SmTiming, SharedAtomicHoldsOnlyANamedDestination) {
  const SmConfig sm;
  // One word per bank (degree 1), then every lane on bank 0 (degree 32).
  for (const int scale : {8, kWarpSize * 8}) {
    const Cycle degree = scale == 8 ? 1 : kWarpSize;
    const Cycle base = op_then_chain(scale, independent_op);
    const Cycle no_dst = op_then_chain(
        scale, [](ProgramBuilder& b) { b.atoms_cas(kNoReg, 1, 0, 4, 4); });
    const Cycle dst = op_then_chain(
        scale, [](ProgramBuilder& b) { b.atoms_cas(2, 1, 0, 4, 4); });
    EXPECT_EQ(no_dst, base) << scale;
    // The dependent op issues smem_latency + degree - 1 cycles after the
    // atomic instead of 1.
    EXPECT_EQ(dst, no_dst + sm.smem_latency + degree - 2) << scale;
  }
}

TEST(SmTiming, TakenBranchPaysFetchPenalty) {
  const SmConfig sm;
  const int n = 12;
  // Not-taken conditional branches (predicate 0) vs taken unconditional
  // jumps to the fall-through... instead compare loops: a loop of n
  // iterations pays the redirect penalty each back-edge.
  auto straight = run_cycles([&](ProgramBuilder& b) {
    for (int i = 0; i < n; ++i) {
      b.iaddi(1, 1, 1);
      b.movi(2, 0);  // filler, independent
    }
    b.exit_();
  });
  auto looped = run_cycles([&](ProgramBuilder& b) {
    b.movi(3, n);
    auto top = b.loop_begin();
    b.iaddi(1, 1, 1);
    b.movi(2, 0);
    b.iaddi(3, 3, -1);
    b.setpi(CmpOp::kGt, 4, 3, 0);
    b.loop_end_if(4, top);
    b.exit_();
  });
  // The loop does the same useful ALU work plus n*(2 overhead instrs +
  // redirect penalty). It must cost at least the redirect penalties.
  EXPECT_GT(looped, straight + (n - 1) * sm.branch_fetch_penalty);
}

TEST(SmTiming, BarrierCostsAtLeastSlowestWarp) {
  // Two warps; warp 0 does a long chain before the barrier. Total time
  // must cover that chain even though warp 1 finished its part early.
  const SmConfig sm;
  ProgramBuilder b("barrier_wait");
  b.block_dim(64).grid_dim(1);
  b.s2r(0, SpecialReg::kWarpId);
  b.setpi(CmpOp::kEq, 1, 0, 0);
  b.if_begin(1);
  for (int i = 0; i < 10; ++i) b.rsqrt(2, 2);  // 10 x sfu_latency chain
  b.if_end();
  b.bar();
  b.exit_();
  GlobalMemory mem;
  GpuResult r = simulate(tiny(), b.build(), mem);
  EXPECT_GE(r.cycles, 10 * sm.sfu_latency);
}

}  // namespace
}  // namespace prosim
