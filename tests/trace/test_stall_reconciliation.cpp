// The acceptance gate for the StallCause taxonomy: for EVERY cell of the
// paper's Fig. 4 matrix (all 25 Table II kernels x {LRR, GTO, TL, PRO} on
// the GTX480 config), the per-cause scheduler-cycle counts must reconcile
// bit-exactly with the legacy idle/scoreboard/pipeline counters — totals
// and per SM. The causes are computed inside the same branches as the
// legacy counters, so a mismatch means a classification branch diverged
// from the counter it refines.
#include <gtest/gtest.h>

#include <cstdint>

#include "runner/matrix.hpp"
#include "runner/runner.hpp"
#include "trace/stall_attribution.hpp"

namespace prosim {
namespace {

TEST(StallReconciliation, EveryFig4CellReconcilesExactly) {
  runner::SweepOptions opts;
  opts.obs.stall_attribution = true;  // no cache: every cell simulates
  const runner::SweepReport report =
      runner::run_sweep(runner::fig4_matrix(), opts);

  ASSERT_GT(report.cells.size(), 0u);
  for (const runner::SweepCell& cell : report.cells) {
    ASSERT_TRUE(cell.ok()) << cell.label;
    const GpuResult& r = *cell.result;
    ASSERT_TRUE(r.stall_breakdown.has_value()) << cell.label;
    const StallBreakdown& b = *r.stall_breakdown;

    EXPECT_EQ(b.legacy_total(LegacyStallClass::kIssued), r.totals.issued)
        << cell.label;
    EXPECT_EQ(b.legacy_total(LegacyStallClass::kIdle),
              r.totals.idle_stalls)
        << cell.label;
    EXPECT_EQ(b.legacy_total(LegacyStallClass::kScoreboard),
              r.totals.scoreboard_stalls)
        << cell.label;
    EXPECT_EQ(b.legacy_total(LegacyStallClass::kPipeline),
              r.totals.pipeline_stalls)
        << cell.label;
    EXPECT_EQ(b.total_stalls(), r.total_stalls()) << cell.label;

    ASSERT_LE(b.per_sm.size(), r.per_sm.size()) << cell.label;
    for (std::size_t sm = 0; sm < b.per_sm.size(); ++sm) {
      std::uint64_t by_class[4] = {};
      for (int c = 0; c < kNumStallCauses; ++c) {
        by_class[static_cast<int>(
            legacy_stall_class(static_cast<StallCause>(c)))] +=
            b.per_sm[sm].cause_cycles[c];
      }
      const SmStats& s = r.per_sm[sm];
      EXPECT_EQ(by_class[static_cast<int>(LegacyStallClass::kIssued)],
                s.issued)
          << cell.label << " sm " << sm;
      EXPECT_EQ(by_class[static_cast<int>(LegacyStallClass::kIdle)],
                s.idle_stalls)
          << cell.label << " sm " << sm;
      EXPECT_EQ(by_class[static_cast<int>(LegacyStallClass::kScoreboard)],
                s.scoreboard_stalls)
          << cell.label << " sm " << sm;
      EXPECT_EQ(by_class[static_cast<int>(LegacyStallClass::kPipeline)],
                s.pipeline_stalls)
          << cell.label << " sm " << sm;
    }
  }
}

}  // namespace
}  // namespace prosim
