// SM-core behaviour tests, driven through a single-SM GPU instance.
#include "sm/sm_core.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <iterator>
#include <ostream>
#include <utility>
#include <vector>

#include "gpu/gpu.hpp"
#include "isa/builder.hpp"
#include "isa/interpreter.hpp"

namespace prosim {
namespace {

GpuConfig one_sm() {
  GpuConfig cfg = GpuConfig::test_config();
  cfg.num_sms = 1;
  cfg.record_registers = true;
  return cfg;
}

TEST(Residency, LimitedByMaxTbs) {
  SmConfig sm;
  KernelInfo info;
  info.block_dim = 32;
  info.regs_per_thread = 8;
  EXPECT_EQ(SmCore::compute_residency(sm, info), 8);  // TB cap
}

TEST(Residency, LimitedByThreads) {
  SmConfig sm;
  KernelInfo info;
  info.block_dim = 512;
  info.regs_per_thread = 8;
  EXPECT_EQ(SmCore::compute_residency(sm, info), 3);  // 1536/512
}

TEST(Residency, LimitedBySharedMemory) {
  SmConfig sm;
  KernelInfo info;
  info.block_dim = 64;
  info.regs_per_thread = 8;
  info.smem_bytes = 20 * 1024;
  EXPECT_EQ(SmCore::compute_residency(sm, info), 2);  // 48K/20K
}

TEST(Residency, LimitedByRegisters) {
  SmConfig sm;
  KernelInfo info;
  info.block_dim = 256;
  info.regs_per_thread = 32;  // 8192 regs per TB
  EXPECT_EQ(SmCore::compute_residency(sm, info), 4);  // 32768/8192
}

TEST(Residency, PartialWarpsPadToWarpSize) {
  SmConfig sm;
  sm.max_threads = 96;
  KernelInfo info;
  info.block_dim = 40;  // pads to 64 threads
  info.regs_per_thread = 4;
  EXPECT_EQ(SmCore::compute_residency(sm, info), 1);
}

TEST(SmCore, SingleTbComputesCorrectRegisters) {
  ProgramBuilder b("k");
  b.block_dim(64).grid_dim(1);
  b.s2r(0, SpecialReg::kTid);
  b.imuli(1, 0, 3);
  b.iaddi(1, 1, 10);
  b.exit_();
  Program p = b.build();
  GlobalMemory mem;
  GpuResult r = simulate(one_sm(), p, mem);
  for (int tid = 0; tid < 64; ++tid) {
    EXPECT_EQ(r.registers[(tid)*p.info.regs_per_thread + 1], tid * 3 + 10);
  }
  EXPECT_EQ(r.totals.tbs_executed, 1u);
}

TEST(SmCore, StallAccountingInvariant) {
  // issued + idle + scoreboard + pipeline == scheduler-cycles, always.
  ProgramBuilder b("k");
  b.block_dim(128).grid_dim(12);
  b.s2r(0, SpecialReg::kGlobalTid);
  b.ishli(1, 0, 3);
  b.ldg(2, 1, 0);
  b.imad(3, 2, 2, 0);
  b.rsqrt(4, 3);
  b.bar();
  b.stg(1, 1 << 20, 4);
  b.exit_();
  GlobalMemory mem;
  GpuResult r = simulate(one_sm(), b.build(), mem);
  EXPECT_EQ(r.totals.issued + r.totals.idle_stalls +
                r.totals.scoreboard_stalls + r.totals.pipeline_stalls,
            r.totals.sched_cycles);
  EXPECT_GT(r.totals.sched_cycles, 0u);
}

TEST(SmStats, DerivesLegacyCountsFromCauses) {
  // Cause c counts 10^c cycles, so each sum shows which causes it took.
  SmStats s;
  s.issued = s.idle_stalls = s.sched_cycles = s.warp_insts = 7;
  std::uint64_t count = 1;
  for (std::uint64_t& n : s.cause_cycles) {
    n = count;
    count *= 10;
  }
  s.derive_legacy_counts();
  EXPECT_EQ(s.issued, 1u);                    // issued
  EXPECT_EQ(s.pipeline_stalls, 10u);          // fu_busy
  EXPECT_EQ(s.scoreboard_stalls, 11'100u);    // mem, alu, spin_wait
  EXPECT_EQ(s.idle_stalls, 1'111'100'000u);   // barrier .. no_warp
  EXPECT_EQ(s.sched_cycles, 1'111'111'111u);  // every cause
  EXPECT_EQ(s.warp_insts, 1u);                // issued
}

TEST(SmCore, ThreadInstructionsMatchGoldenModel) {
  ProgramBuilder b("k");
  b.block_dim(96).grid_dim(5);
  b.s2r(0, SpecialReg::kTid);
  b.setpi(CmpOp::kLt, 1, 0, 48);
  b.if_begin(1);
  b.movi(2, 1);
  b.if_else();
  b.movi(2, 2);
  b.movi(3, 3);
  b.if_end();
  b.exit_();
  Program p = b.build();

  GlobalMemory ref;
  auto golden = interpret(p, ref);
  GlobalMemory mem;
  GpuResult r = simulate(one_sm(), p, mem);
  EXPECT_EQ(r.totals.thread_insts, golden.instructions_executed);
}

TEST(SmCore, BarrierSynchronizesWarpsInTime) {
  // Warp 0 does a long pre-barrier computation; warp 1 arrives first and
  // must wait. After the barrier, warp 1 reads what warp 0 wrote before it.
  ProgramBuilder b("k");
  b.block_dim(64).grid_dim(1).smem(64 * 8);
  b.s2r(0, SpecialReg::kTid);
  b.s2r(1, SpecialReg::kWarpId);
  b.setpi(CmpOp::kEq, 2, 1, 0);
  b.if_begin(2);  // warp 0 only: slow path with dependent SFU chain
  b.movi(3, 17);
  for (int i = 0; i < 8; ++i) b.rsqrt(3, 3);
  b.movi(3, 42);
  b.ishli(4, 0, 3);
  b.sts(4, 0, 3);
  b.if_end();
  b.bar();
  // Everyone reads lane slot (tid % 32) written by warp 0.
  b.iandi(5, 0, 31);
  b.ishli(5, 5, 3);
  b.lds(6, 5, 0);
  b.ishli(7, 0, 3);
  b.stg(7, 4096, 6);
  b.exit_();
  GlobalMemory mem;
  GpuResult r = simulate(one_sm(), b.build(), mem);
  (void)r;
  for (int tid = 0; tid < 64; ++tid) {
    EXPECT_EQ(mem.load(4096 + tid * 8), 42) << tid;
  }
}

TEST(SmCore, PartialLastWarpExecutes) {
  ProgramBuilder b("k");
  b.block_dim(40).grid_dim(2);  // warp 1 has only 8 lanes
  b.s2r(0, SpecialReg::kGlobalTid);
  b.ishli(1, 0, 3);
  b.movi(2, 7);
  b.stg(1, 0, 2);
  b.exit_();
  GlobalMemory mem;
  simulate(one_sm(), b.build(), mem);
  for (int gid = 0; gid < 80; ++gid) {
    EXPECT_EQ(mem.load(gid * 8), 7) << gid;
  }
}

TEST(SmCore, ExitWaitsForOutstandingLoads) {
  // A load whose result is never consumed must still drain before the warp
  // retires (otherwise the slot could be recycled with stale completions).
  ProgramBuilder b("k");
  b.block_dim(32).grid_dim(20);  // enough TBs to recycle slots
  b.s2r(0, SpecialReg::kGlobalTid);
  b.ishli(1, 0, 3);
  b.ldg(2, 1, 0);  // result unused
  b.exit_();
  GlobalMemory mem;
  GpuConfig cfg = one_sm();
  GpuResult r = simulate(cfg, b.build(), mem);  // must not abort
  EXPECT_EQ(r.totals.tbs_executed, 20u);
}

TEST(SmCore, TimelineEntriesWellFormed) {
  ProgramBuilder b("k");
  b.block_dim(64).grid_dim(10);
  b.movi(0, 5);
  b.imuli(0, 0, 3);
  b.exit_();
  GlobalMemory mem;
  GpuResult r = simulate(one_sm(), b.build(), mem);
  ASSERT_EQ(r.timelines.size(), 1u);
  int seen = 0;
  for (const TbTimelineEntry& e : r.timelines[0]) {
    EXPECT_GE(e.ctaid, 0);
    EXPECT_LT(e.ctaid, 10);
    EXPECT_LT(e.start, e.end);
    EXPECT_LE(e.end, r.cycles);
    ++seen;
  }
  EXPECT_EQ(seen, 10);
}

TEST(SmCore, DivergentExitRetiresWholeWarp) {
  // Half the lanes exit early through a guard; the warp (and TB) must
  // still retire exactly once.
  ProgramBuilder b("k");
  b.block_dim(32).grid_dim(1);
  b.s2r(0, SpecialReg::kTid);
  b.setpi(CmpOp::kLt, 1, 0, 16);
  auto lbl_end = b.new_label();
  b.bra(1, /*invert=*/false, lbl_end, lbl_end);  // lanes 0-15 skip work
  b.movi(2, 9);
  b.bind(lbl_end);
  b.exit_();
  GlobalMemory mem;
  GpuResult r = simulate(one_sm(), b.build(), mem);
  EXPECT_EQ(r.totals.tbs_executed, 1u);
  // Lanes >= 16 ran the extra movi.
  EXPECT_EQ(r.registers[17 * 3 + 2], 9);
  EXPECT_EQ(r.registers[3 * 3 + 2], 0);
}

TEST(SmCore, SfuInitiationIntervalThrottles) {
  // Back-to-back independent SFU ops from many warps: pipeline stalls must
  // appear (SFU initiation interval > 1).
  ProgramBuilder b("k");
  b.block_dim(256).grid_dim(2);
  b.s2r(0, SpecialReg::kTid);
  for (int i = 0; i < 8; ++i) b.rsqrt(static_cast<std::uint8_t>(1 + i), 0);
  b.exit_();
  GlobalMemory mem;
  GpuResult r = simulate(one_sm(), b.build(), mem);
  EXPECT_GT(r.totals.pipeline_stalls, 0u);
}

TEST(SmCore, SharedMemoryBankConflictsCounted) {
  ProgramBuilder b("k");
  b.block_dim(64).grid_dim(1).smem(64 * 32 * 8);
  b.s2r(0, SpecialReg::kTid);
  // addr = tid * 32 words * 8 -> every lane hits bank 0.
  b.imuli(1, 0, 32 * 8);
  b.sts(1, 0, 0);
  b.exit_();
  GlobalMemory mem;
  GpuResult r = simulate(one_sm(), b.build(), mem);
  EXPECT_GT(r.totals.smem_conflict_extra_cycles, 0u);
}

TEST(SmCore, L1BypassMakesEveryAccessMiss) {
  ProgramBuilder b("k");
  b.block_dim(32).grid_dim(1);
  b.movi(0, 0);
  b.ldg(1, 0, 0);
  b.iadd(2, 1, 1);
  b.ldg(3, 0, 0);  // would hit with the L1 on
  b.exit_();
  Program p = b.build();
  GlobalMemory mem;
  GpuConfig cfg = one_sm();
  cfg.sm.l1_enabled = false;
  GpuResult r = simulate(cfg, p, mem);
  EXPECT_EQ(r.l1_hits, 0u);
  // Both misses reach the L2 instead.
  EXPECT_EQ(r.l2_hits + r.l2_misses, 2u);
}

TEST(SmCore, WarpFinishDisparityTracksDivergentRuntimes) {
  // Warp 0 runs a long SFU chain; warp 1 exits immediately: the TB's warp
  // finish disparity must be large. A uniform kernel's must be small.
  ProgramBuilder div("divergent");
  div.block_dim(64).grid_dim(1);
  div.s2r(0, SpecialReg::kWarpId);
  div.setpi(CmpOp::kEq, 1, 0, 0);
  div.if_begin(1);
  for (int i = 0; i < 10; ++i) div.rsqrt(2, 2);
  div.if_end();
  div.exit_();
  GlobalMemory m1;
  GpuResult r_div = simulate(one_sm(), div.build(), m1);

  ProgramBuilder uni("uniform");
  uni.block_dim(64).grid_dim(1);
  uni.movi(0, 1);
  uni.exit_();
  GlobalMemory m2;
  GpuResult r_uni = simulate(one_sm(), uni.build(), m2);

  EXPECT_GT(r_div.totals.warp_finish_disparity_sum, 100u);
  EXPECT_LT(r_uni.totals.warp_finish_disparity_sum, 20u);
}

TEST(SmCore, BarrierWaitCyclesAccumulate) {
  ProgramBuilder b("k");
  b.block_dim(64).grid_dim(1);
  b.s2r(0, SpecialReg::kWarpId);
  b.setpi(CmpOp::kEq, 1, 0, 0);
  b.if_begin(1);
  for (int i = 0; i < 6; ++i) b.rsqrt(2, 2);  // warp 0 is slow
  b.if_end();
  b.bar();  // warp 1 waits here for a long time
  b.exit_();
  GlobalMemory mem;
  GpuResult r = simulate(one_sm(), b.build(), mem);
  const SmConfig sm;
  EXPECT_GT(r.totals.barrier_wait_cycles, 4 * sm.sfu_latency);
}

TEST(SmCore, L1CachesRepeatedLoads) {
  ProgramBuilder b("k");
  b.block_dim(32).grid_dim(1);
  b.movi(0, 0);
  b.ldg(1, 0, 0);      // miss
  b.iadd(2, 1, 1);     // consume to order the loads
  b.ldg(3, 0, 0);      // hit (same line)
  b.exit_();
  GlobalMemory mem;
  GpuResult r = simulate(one_sm(), b.build(), mem);
  EXPECT_EQ(r.l1_misses, 1u);
  EXPECT_EQ(r.l1_hits, 1u);
}

// ---------------------------------------------------------------------------
// One micro-kernel per fine stall cause. Each pins the whole cause_cycles
// array, so a change to any branch of the issue-stage classification shows
// up as a changed count, spin_wait and throttled included, which no Fig. 4
// cell reaches.
// ---------------------------------------------------------------------------

using CauseArray = std::array<std::uint64_t, kNumStallCauses>;

constexpr std::int64_t kFlagAddr = 1 << 16;

/// TB 0 polls a flag until TB 1 sets it after a dependent SFU chain of
/// `delay` rsqrts. The poll loop (ldg, setp, bra) is a detected spin loop.
Program flag_poll_kernel(int delay) {
  ProgramBuilder b("flag_poll");
  b.block_dim(32).grid_dim(2);
  b.s2r(0, SpecialReg::kCtaId);
  b.movi(1, kFlagAddr);
  b.setpi(CmpOp::kEq, 2, 0, 0);
  b.if_begin(2);
  auto top = b.loop_begin();
  b.ldg(3, 1, 0);
  b.setpi(CmpOp::kEq, 4, 3, 0);
  b.loop_end_if(4, top);
  b.if_else();
  b.movi(5, 3);
  for (int i = 0; i < delay; ++i) b.rsqrt(5, 5);
  b.movi(6, 1);
  b.stg(1, 0, 6);
  b.if_end();
  b.exit_();
  return b.build();
}

CauseArray causes_of(const SmStats& stats) {
  CauseArray out{};
  std::copy(std::begin(stats.cause_cycles), std::end(stats.cause_cycles),
            out.begin());
  return out;
}

CauseArray run_single(const GpuConfig& cfg, const Program& p) {
  GlobalMemory mem;
  return causes_of(simulate(cfg, p, mem).totals);
}

CauseArray fu_busy_case() {
  // Back-to-back independent SFU ops from many warps, then every lane of
  // every warp storing to shared-memory bank 0.
  ProgramBuilder b("fu_busy");
  b.block_dim(128).grid_dim(2).smem(128 * 32 * 8);
  b.s2r(0, SpecialReg::kTid);
  for (int i = 0; i < 4; ++i) b.rsqrt(static_cast<std::uint8_t>(1 + i), 0);
  b.imuli(5, 0, 32 * 8);
  b.sts(5, 0, 0);
  b.sts(5, 0, 1);
  b.exit_();
  return run_single(one_sm(), b.build());
}

CauseArray scoreboard_mem_case() {
  // One warp: a global load consumed by the next instruction.
  ProgramBuilder b("load_to_use");
  b.block_dim(32).grid_dim(1);
  b.s2r(0, SpecialReg::kTid);
  b.ishli(1, 0, 3);
  b.ldg(2, 1, 0);
  b.iadd(3, 2, 2);
  b.stg(1, 4096, 3);
  b.exit_();
  return run_single(one_sm(), b.build());
}

CauseArray scoreboard_alu_case() {
  // One warp: a chain of dependent integer multiplies.
  ProgramBuilder b("alu_chain");
  b.block_dim(32).grid_dim(1);
  b.movi(0, 3);
  for (int i = 0; i < 8; ++i) b.imuli(0, 0, 3);
  b.exit_();
  return run_single(one_sm(), b.build());
}

CauseArray spin_wait_case() {
  // Both TBs resident: TB 0 spins on an in-flight poll load while TB 1
  // works toward setting the flag.
  return run_single(one_sm(), flag_poll_kernel(8));
}

CauseArray barrier_wait_case() {
  // Warp 1 (scheduler 1's only warp) waits at the barrier for slow warp 0.
  ProgramBuilder b("barrier_wait");
  b.block_dim(64).grid_dim(1);
  b.s2r(0, SpecialReg::kWarpId);
  b.setpi(CmpOp::kEq, 1, 0, 0);
  b.if_begin(1);
  for (int i = 0; i < 6; ++i) b.rsqrt(2, 2);
  b.if_end();
  b.bar();
  b.exit_();
  return run_single(one_sm(), b.build());
}

CauseArray finish_wait_case() {
  // Warp 1 exits at once; its TB stays resident until slow warp 0 retires.
  ProgramBuilder b("finish_wait");
  b.block_dim(64).grid_dim(1);
  b.s2r(0, SpecialReg::kWarpId);
  b.setpi(CmpOp::kEq, 1, 0, 0);
  b.if_begin(1);
  for (int i = 0; i < 6; ++i) b.rsqrt(2, 2);
  b.if_end();
  b.exit_();
  return run_single(one_sm(), b.build());
}

CauseArray fetch_case() {
  // One warp: a counted loop whose taken backward branch redirects fetch.
  ProgramBuilder b("taken_branch");
  b.block_dim(32).grid_dim(1);
  b.movi(0, 0);
  auto top = b.loop_begin();
  b.iaddi(0, 0, 1);
  b.setpi(CmpOp::kLt, 1, 0, 8);
  b.loop_end_if(1, top);
  b.exit_();
  return run_single(one_sm(), b.build());
}

CauseArray throttled_case() {
  // One resident TB under TL: TB 0 spins on a flag only TB 1 sets, so
  // preemptive admission yields TB 0. While its in-flight poll drains, its
  // live warp is excluded from issue: the scheduler is throttled.
  GpuConfig cfg = one_sm();
  cfg.sm.max_tbs = 1;
  cfg.scheduler.kind = SchedulerKind::kTl;
  GlobalMemory mem;
  KernelLaunch launch;
  launch.name = "flag_poll";
  launch.program = flag_poll_kernel(1);
  launch.memory = &mem;
  std::vector<KernelLaunch> launches;
  launches.push_back(std::move(launch));
  Gpu gpu(cfg, std::move(launches), "preemptive_slo");
  return causes_of(gpu.run().totals);
}

CauseArray no_warp_case() {
  // One warp: scheduler 1 never owns an allocated warp.
  ProgramBuilder b("one_warp");
  b.block_dim(32).grid_dim(1);
  b.movi(0, 1);
  b.exit_();
  return run_single(one_sm(), b.build());
}

struct CauseCase {
  const char* name;
  StallCause cause;
  CauseArray (*run)();
  /// Indexed by StallCause, recorded before the issue stage became mask
  /// algebra.
  CauseArray expected;
};

const CauseCase kCauseCases[] = {
    {"fu_busy", StallCause::kFuBusy, fu_busy_case,
     {72, 816, 0, 36, 0, 0, 256, 4, 0, 0}},
    {"scoreboard_mem", StallCause::kScoreboardMem, scoreboard_mem_case,
     {6, 0, 94, 27, 0, 0, 0, 1, 0, 162}},
    {"scoreboard_alu", StallCause::kScoreboardAlu, scoreboard_alu_case,
     {10, 0, 0, 81, 0, 0, 0, 1, 0, 92}},
    {"spin_wait", StallCause::kSpinWait, spin_wait_case,
     {37, 0, 0, 289, 308, 0, 0, 20, 0, 70}},
    {"barrier_wait", StallCause::kBarrierWait, barrier_wait_case,
     {16, 0, 0, 221, 0, 157, 29, 6, 0, 1}},
    {"finish_wait", StallCause::kFinishWait, finish_wait_case,
     {14, 0, 0, 222, 0, 0, 188, 5, 0, 1}},
    {"fetch", StallCause::kFetch, fetch_case,
     {26, 0, 0, 153, 0, 0, 0, 22, 0, 201}},
    {"throttled", StallCause::kThrottled, throttled_case,
     {18, 0, 0, 72, 104, 0, 0, 9, 1, 204}},
    {"no_warp", StallCause::kNoWarp, no_warp_case,
     {2, 0, 0, 9, 0, 0, 0, 1, 0, 12}},
};

// gtest prints the parameter into the test's name; keep it the case name.
void PrintTo(const CauseCase& c, std::ostream* os) { *os << c.name; }

class StallCauseKernel : public ::testing::TestWithParam<CauseCase> {};

TEST_P(StallCauseKernel, CountsItsCauseAndPinsEveryCause) {
  const CauseCase& c = GetParam();
  const CauseArray got = c.run();
  EXPECT_GT(got[static_cast<std::size_t>(c.cause)], 0u)
      << stall_cause_name(c.cause);
  EXPECT_EQ(got, c.expected);
}

INSTANTIATE_TEST_SUITE_P(
    Causes, StallCauseKernel, ::testing::ValuesIn(kCauseCases),
    [](const ::testing::TestParamInfo<CauseCase>& param) {
      return std::string(param.param.name);
    });

}  // namespace
}  // namespace prosim
