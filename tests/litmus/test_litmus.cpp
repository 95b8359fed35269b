// Tier-1 certification of the forward-progress litmus harness: the full
// (scheduler x litmus x regime) verdict matrix is pinned — including the
// exact detection cycles of every starvation and hang — and each of the
// three (tenant, admission) matrices must match its recorded report digest
// and be bit-identical across worker-thread counts and with event-driven
// fast-forward disabled. If a scheduler change moves a verdict, that is a
// fairness-behavior change and this table must be re-certified on purpose.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <map>
#include <ostream>
#include <string>

#include "common/fingerprint.hpp"
#include "gpu/gpu_config.hpp"
#include "litmus/litmus.hpp"

namespace prosim::litmus {
namespace {

/// The certified matrix, recorded from the seed run of the harness:
///  - every scheduler hangs the oversubscribed tb_tree_barrier (its
///    completion needs a TB that can never become resident) at exactly
///    max_cycles;
///  - Two-Level starves the intra-TB shared-memory flag handoff in both
///    regimes (the producer sits in the pending set and the consumers'
///    lds spin never triggers a rotation), detected at the first
///    starvation-watchdog window past the timeout;
///  - everything else passes.
Verdict expected_verdict(SchedulerKind kind, const std::string& litmus,
                         Regime regime) {
  if (litmus == "tb_tree_barrier" && regime == Regime::kOversubscribed) {
    return Verdict::kHang;
  }
  if (kind == SchedulerKind::kTl && litmus == "intra_tb_flag") {
    return Verdict::kStarvation;
  }
  return Verdict::kPass;
}

constexpr Cycle kStarvationDetect = 160'000;  // first window past timeout
constexpr Cycle kHangDetect = 400'000;        // exactly max_cycles

TEST(Litmus, SuiteShape) {
  const auto& suite = litmus_suite();
  ASSERT_EQ(suite.size(), 5u);
  EXPECT_EQ(suite[0].name, "intra_tb_flag");
  EXPECT_EQ(suite[1].name, "global_pc_flag");
  EXPECT_EQ(suite[2].name, "ticket_lock");
  EXPECT_EQ(suite[3].name, "tb_tree_barrier");
  EXPECT_EQ(suite[4].name, "cas_mutex");
  EXPECT_NE(find_litmus("cas_mutex"), nullptr);
  EXPECT_EQ(find_litmus("nope"), nullptr);
  for (const LitmusTest& t : suite) {
    EXPECT_EQ(t.build(2).validate(), "") << t.name;
  }
}

TEST(Litmus, LitmusConfigArmsTheStarvationRule) {
  const GpuConfig cfg = litmus_config(SchedulerKind::kPro);
  EXPECT_EQ(cfg.num_sms, 1);
  EXPECT_TRUE(cfg.record_registers);
  EXPECT_GT(cfg.watchdog.starvation_timeout, 0u);
  // Ordinary configs must keep the rule off (satellite contract).
  EXPECT_EQ(GpuConfig{}.watchdog.starvation_timeout, 0u);
}

TEST(Litmus, PinnedVerdictMatrix) {
  LitmusOptions opt;
  opt.jobs = 8;
  const LitmusReport report = run_litmus(opt);

  // 7 schedulers x 5 litmus tests x 2 occupancy regimes.
  ASSERT_EQ(report.cells.size(), 70u);
  for (const LitmusCell& c : report.cells) {
    const std::string label = std::string(scheduler_name(c.scheduler)) +
                              "/" + c.litmus + "/" + regime_name(c.regime);
    const Verdict want = expected_verdict(c.scheduler, c.litmus, c.regime);
    EXPECT_EQ(verdict_name(c.verdict), verdict_name(want)) << label << ": "
                                                           << c.detail;
    switch (want) {
      case Verdict::kStarvation:
        EXPECT_EQ(c.detect_cycle, kStarvationDetect) << label;
        break;
      case Verdict::kHang:
        EXPECT_EQ(c.detect_cycle, kHangDetect) << label;
        break;
      default:
        // Passing cells terminate fast — far inside every watchdog limit.
        EXPECT_GT(c.detect_cycle, 0u) << label;
        EXPECT_LT(c.detect_cycle, 100'000u) << label;
        break;
    }
    // Only the TL starvations are certification failures; the
    // oversubscribed barrier hang is expected of every scheduler.
    EXPECT_EQ(c.as_expected(), want != Verdict::kStarvation) << label;
  }

  // Grid parameterization: residency-derived sizes, pinned.
  for (const LitmusCell& c : report.cells) {
    if (c.scheduler != SchedulerKind::kLrr) continue;
    const bool resident = c.regime == Regime::kResident;
    int want_grid = 0;
    if (c.litmus == "intra_tb_flag") want_grid = resident ? 3 : 6;
    if (c.litmus == "global_pc_flag") want_grid = resident ? 8 : 24;
    if (c.litmus == "ticket_lock") want_grid = resident ? 8 : 24;
    if (c.litmus == "tb_tree_barrier") want_grid = resident ? 8 : 12;
    if (c.litmus == "cas_mutex") want_grid = resident ? 8 : 24;
    EXPECT_EQ(c.grid, want_grid) << c.litmus << "/" << regime_name(c.regime);
  }

  // Progress models: Two-Level is the only unfair scheduler in the
  // catalogue; everyone else is fair among residents but (like all
  // non-preemptive hardware) occupancy-bound.
  ASSERT_EQ(report.schedulers.size(), 7u);
  for (const SchedulerSummary& s : report.schedulers) {
    const ProgressModel want = s.scheduler == SchedulerKind::kTl
                                   ? ProgressModel::kUnfairLivelocks
                                   : ProgressModel::kOccupancyBoundFair;
    EXPECT_EQ(progress_model_name(s.model), progress_model_name(want))
        << scheduler_name(s.scheduler);
    EXPECT_EQ(s.broken_cells, 0) << scheduler_name(s.scheduler);
    EXPECT_EQ(s.expected_hangs, 1) << scheduler_name(s.scheduler);
    EXPECT_EQ(s.passes, s.scheduler == SchedulerKind::kTl ? 7 : 9)
        << scheduler_name(s.scheduler);
  }
}

TEST(Litmus, JsonCarriesSchemaAndBalances) {
  LitmusOptions opt;
  opt.jobs = 2;
  opt.schedulers = {SchedulerKind::kLrr};
  opt.tests = {"cas_mutex"};
  const std::string json = litmus_report_to_json(run_litmus(opt));
  EXPECT_NE(json.find("\"schema\": \"prosim-litmus-v1\""), std::string::npos);
  EXPECT_NE(json.find("\"verdict\": \"pass\""), std::string::npos);
  EXPECT_NE(json.find("\"model\": \"terminates\""), std::string::npos);
  EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
            std::count(json.begin(), json.end(), '}'));
}

/// One harness, two axes: the four (tenant, admission) matrices.
struct Mode {
  const char* name;
  bool tenant;
  const char* admission;  ///< "" = the harness's default
  /// FNV-1a of litmus_report_to_json() of the full matrix: every verdict,
  /// cycle, grid, detail string and progress model.
  const char* digest;
};

// Test names print the mode's name, not its pointer bytes.
void PrintTo(const Mode& mode, std::ostream* os) { *os << mode.name; }

constexpr Mode kModes[] = {
    {"base", false, "", "0c333898aa4ba263"},
    {"background", true, "", "00406aff0fd67230"},
    {"preemptive", false, "preemptive_slo", "ca2f7a2dcb2240f4"},
    // With a co-resident tenant, preemptive_slo's yield-resume rotation
    // rescues every cross-TB wait: all 60 non-TL cells pass and those
    // six schedulers reach `terminates`; TL keeps `unfair_livelocks`.
    {"background_preemptive", true, "preemptive_slo", "653460522852526e"},
};

class LitmusModes : public ::testing::TestWithParam<Mode> {
 protected:
  LitmusReport run(LitmusOptions opt) const {
    opt.admission = GetParam().admission;
    return GetParam().tenant ? run_litmus_bg(opt) : run_litmus(opt);
  }
};

TEST_P(LitmusModes, ReportMatchesRecordedDigest) {
  LitmusOptions opt;
  opt.jobs = 4;
  const std::string json = litmus_report_to_json(run(opt));
  EXPECT_EQ(Fingerprint().add_bytes(json.data(), json.size()).hex(),
            GetParam().digest)
      << json;
}

TEST_P(LitmusModes, IdenticalAcrossJobs) {
  LitmusOptions opt;
  opt.schedulers = {SchedulerKind::kTl, SchedulerKind::kPro};
  opt.jobs = 1;
  const std::string serial = litmus_report_to_json(run(opt));
  opt.jobs = 4;
  std::map<std::string, int> reported;
  int last_completed = 0;
  opt.progress = [&](int completed, int total, const std::string& label) {
    ++reported[label];
    EXPECT_EQ(completed, ++last_completed);  // serialized, in order
    EXPECT_EQ(total, 20);
  };
  const LitmusReport parallel = run(opt);
  EXPECT_EQ(serial, litmus_report_to_json(parallel));
  // Every cell is reported exactly once.
  ASSERT_EQ(reported.size(), parallel.cells.size());
  for (const LitmusCell& c : parallel.cells) {
    EXPECT_EQ(reported[litmus_cell_label(c.scheduler, c.litmus, c.regime)], 1);
  }
}

TEST_P(LitmusModes, IdenticalWithoutFastForward) {
  LitmusOptions opt;
  opt.schedulers = {SchedulerKind::kTl};
  opt.tests = {"intra_tb_flag", "tb_tree_barrier"};
  const std::string fast = litmus_report_to_json(run(opt));
  ::setenv("PROSIM_NO_FASTFORWARD", "1", 1);
  const std::string tick = litmus_report_to_json(run(opt));
  ::unsetenv("PROSIM_NO_FASTFORWARD");
  EXPECT_EQ(fast, tick);
}

INSTANTIATE_TEST_SUITE_P(Modes, LitmusModes, ::testing::ValuesIn(kModes),
                         [](const ::testing::TestParamInfo<Mode>& param) {
                           return std::string(param.param.name);
                         });

}  // namespace
}  // namespace prosim::litmus
