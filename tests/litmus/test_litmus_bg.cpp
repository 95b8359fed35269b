// Tier-1 certification of the background-tenant litmus matrix: every
// scheduler re-runs the forward-progress suite with a streaming co-tenant
// resident under tb_interleaved admission (two SMs), and the full verdict
// matrix — including exact starvation-detection cycles — is pinned. The
// contract under test: multi-tenancy must never demote a scheduler's
// progress model silently. Two-Level's intra-TB parking is still caught by
// the starvation watchdog at the identical cycle as the solo harness, and
// every fair scheduler keeps finishing every cell fairness can finish —
// the doubled residency honestly promotes the oversubscribed tree barrier
// (grid 12 now fits 2x8), so fair schedulers certify as `terminates` here
// versus `occupancy_bound_fair` solo.
#include <gtest/gtest.h>

#include <string>

#include "gpu/gpu_config.hpp"
#include "litmus/litmus.hpp"

namespace prosim::litmus {
namespace {

Verdict expected_verdict(SchedulerKind kind, const std::string& litmus) {
  if (kind == SchedulerKind::kTl && litmus == "intra_tb_flag") {
    return Verdict::kStarvation;
  }
  return Verdict::kPass;
}

constexpr Cycle kStarvationDetect = 160'000;  // identical to the solo run

TEST(LitmusBg, ConfigDoublesTheSmPool) {
  const GpuConfig solo = litmus_config(SchedulerKind::kPro);
  const GpuConfig bg = litmus_bg_config(SchedulerKind::kPro);
  EXPECT_EQ(bg.num_sms, 2);
  // Everything that makes detection cycles comparable stays untouched.
  EXPECT_EQ(bg.max_cycles, solo.max_cycles);
  EXPECT_EQ(bg.watchdog.window, solo.watchdog.window);
  EXPECT_EQ(bg.watchdog.starvation_timeout, solo.watchdog.starvation_timeout);
  EXPECT_TRUE(bg.record_registers);
}

TEST(LitmusBg, BackgroundTenantIsWellFormed) {
  const Program p = background_tenant_program(6);
  EXPECT_EQ(p.validate(), "");
  EXPECT_EQ(p.info.grid_dim, 6);
  EXPECT_EQ(p.info.block_dim, 32);
}

TEST(LitmusBg, PinnedVerdictMatrixWithTenantResident) {
  LitmusOptions opt;
  opt.jobs = 8;
  const LitmusReport report = run_litmus_bg(opt);

  // 7 schedulers x 5 litmus tests x 2 occupancy regimes.
  ASSERT_EQ(report.cells.size(), 70u);
  for (const LitmusCell& c : report.cells) {
    const std::string label = std::string(scheduler_name(c.scheduler)) +
                              "/" + c.litmus + "/" + regime_name(c.regime);
    const Verdict want = expected_verdict(c.scheduler, c.litmus);
    EXPECT_EQ(verdict_name(c.verdict), verdict_name(want)) << label << ": "
                                                           << c.detail;
    // With the doubled residency every cell is resolvable by fairness —
    // there are no expected hangs in the tenant matrix.
    EXPECT_TRUE(c.fair_suffices) << label;
    if (want == Verdict::kStarvation) {
      // The tenant must not delay (or hide) unfairness detection: the
      // watchdog fires at the exact solo-harness cycle.
      EXPECT_EQ(c.detect_cycle, kStarvationDetect) << label;
      EXPECT_FALSE(c.as_expected()) << label;
    } else {
      EXPECT_GT(c.detect_cycle, 0u) << label;
      EXPECT_LT(c.detect_cycle, 100'000u) << label;
      EXPECT_TRUE(c.as_expected()) << label;
    }
  }

  // Progress models: the co-tenant demotes nobody. Two-Level stays
  // unfair_livelocks (watchdog-caught), everyone else is promoted to
  // terminates by the doubled residency.
  ASSERT_EQ(report.schedulers.size(), 7u);
  for (const SchedulerSummary& s : report.schedulers) {
    const bool tl = s.scheduler == SchedulerKind::kTl;
    const ProgressModel want = tl ? ProgressModel::kUnfairLivelocks
                                  : ProgressModel::kTerminates;
    EXPECT_EQ(progress_model_name(s.model), progress_model_name(want))
        << scheduler_name(s.scheduler);
    EXPECT_EQ(s.passes, tl ? 8 : 10) << scheduler_name(s.scheduler);
    EXPECT_EQ(s.unfair_cells, tl ? 2 : 0) << scheduler_name(s.scheduler);
    EXPECT_EQ(s.expected_hangs, 0) << scheduler_name(s.scheduler);
    EXPECT_EQ(s.broken_cells, 0) << scheduler_name(s.scheduler);
  }
}

}  // namespace
}  // namespace prosim::litmus
