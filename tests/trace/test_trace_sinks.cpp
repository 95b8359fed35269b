// Golden-structure tests for the src/trace sinks on a tiny two-TB kernel
// under LRR and PRO: the warp-lane Chrome trace must be valid JSON with
// consistent slices, the wait-window CSV must match the recorded windows,
// and the SM's stall causes must reconcile exactly with the legacy
// counters — on a kernel small enough to reason about by hand.
#include <gtest/gtest.h>

#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "common/json.hpp"
#include "gpu/gpu.hpp"
#include "isa/builder.hpp"
#include "metrics/metrics.hpp"

namespace prosim {
namespace {

/// Two TBs of 64 threads (two warps each). Warp 1 of each TB spins in a
/// warp-id-dependent loop before the barrier, so warp 0 accrues a real
/// barrier-wait window; the loads give the scoreboard memory stalls.
Program tiny_two_tb_kernel() {
  ProgramBuilder b("tiny2tb");
  b.block_dim(64).grid_dim(2).regs(8);
  b.s2r(0, SpecialReg::kGlobalTid);
  b.ishli(1, 0, 3);
  b.ldg(2, 1, 0);
  b.imuli(2, 2, 3);
  b.s2r(3, SpecialReg::kWarpId);
  b.imuli(4, 3, 24);  // warp 0: 0 iterations, warp 1: 24
  auto top = b.loop_begin();
  b.iaddi(4, 4, -1);
  b.setpi(CmpOp::kGt, 5, 4, 0);
  b.loop_end_if(5, top);
  b.bar();
  b.stg(1, 0x8000, 2);
  b.exit_();
  return b.build();
}

/// Runs the tiny kernel with every sink attached.
class TraceSinks : public ::testing::TestWithParam<SchedulerKind> {
 protected:
  void SetUp() override {
    opts_.warp_lanes = "unused.json";
    opts_.windows = "unused.csv";
    session_ = std::make_unique<ObservabilitySession>(opts_);
    GpuConfig cfg = GpuConfig::test_config();
    cfg.scheduler.kind = GetParam();
    GlobalMemory mem;
    for (int i = 0; i < 2 * 64; ++i) {
      mem.store(static_cast<Addr>(i) * 8, i + 1);
    }
    result_ = simulate(cfg, tiny_two_tb_kernel(), mem, session_.get());
  }

  ObservabilityOptions opts_;
  std::unique_ptr<ObservabilitySession> session_;
  GpuResult result_;
};

TEST_P(TraceSinks, AttributionReconcilesWithLegacyTotals) {
  std::uint64_t stalls = 0;
  for (int c = 0; c < kNumStallCauses; ++c) {
    if (static_cast<StallCause>(c) != StallCause::kIssued)
      stalls += result_.totals.cause_cycles[c];
  }
  EXPECT_EQ(stalls, result_.total_stalls());

  // Per-SM reconciliation, not just the rollup.
  for (std::size_t sm = 0; sm < result_.per_sm.size(); ++sm) {
    const SmStats& s = result_.per_sm[sm];
    std::uint64_t by_class[4] = {};
    for (int c = 0; c < kNumStallCauses; ++c) {
      by_class[static_cast<int>(
          legacy_stall_class(static_cast<StallCause>(c)))] +=
          s.cause_cycles[c];
    }
    EXPECT_EQ(by_class[static_cast<int>(LegacyStallClass::kIssued)],
              s.issued)
        << "sm " << sm;
    EXPECT_EQ(by_class[static_cast<int>(LegacyStallClass::kIdle)],
              s.idle_stalls)
        << "sm " << sm;
    EXPECT_EQ(by_class[static_cast<int>(LegacyStallClass::kScoreboard)],
              s.scoreboard_stalls)
        << "sm " << sm;
    EXPECT_EQ(by_class[static_cast<int>(LegacyStallClass::kPipeline)],
              s.pipeline_stalls)
        << "sm " << sm;
  }
}

TEST_P(TraceSinks, IssuedWarpCyclesMatchIssuedCounter) {
  // trace_state_of gives kIssued precedence, so the issued warp-lane
  // slices sum to the legacy issued counter exactly — the invariant that
  // ties the warp-state view to the scheduler-cycle view.
  std::uint64_t issued_slice_cycles = 0;
  for (const WarpLaneTraceSink::Slice& s :
       session_->warp_lanes()->slices()) {
    if (s.state == WarpState::kIssued) {
      issued_slice_cycles += s.end - s.start;
    }
  }
  EXPECT_EQ(issued_slice_cycles, result_.totals.issued);
}

TEST_P(TraceSinks, WarpLaneJsonIsValidAndConsistent) {
  std::ostringstream os;
  session_->warp_lanes()->write(os);
  const std::string json = os.str();

  JsonParseResult parsed = parse_json(json);
  ASSERT_TRUE(parsed.ok()) << parsed.error->message;
  ASSERT_TRUE(parsed.value->is_array());

  std::size_t slices = 0, metadata = 0, instants = 0;
  for (const JsonValue& ev : parsed.value->items()) {
    ASSERT_TRUE(ev.is_object());
    const JsonValue* ph = ev.find("ph");
    ASSERT_NE(ph, nullptr);
    const std::string kind = ph->as_string();
    if (kind == "X") {
      ++slices;
      const Cycle ts = ev.find("ts")->as_u64();
      const Cycle dur = ev.find("dur")->as_u64();
      EXPECT_GT(dur, 0u);
      EXPECT_LE(ts + dur, result_.cycles);
      EXPECT_NE(ev.find("cname"), nullptr);
    } else if (kind == "M") {
      ++metadata;
    } else if (kind == "i") {
      ++instants;
    } else {
      ADD_FAILURE() << "unexpected event phase '" << kind << "'";
    }
  }
  EXPECT_EQ(slices, session_->warp_lanes()->num_slices());
  EXPECT_GT(slices, 0u);
  EXPECT_GT(metadata, 0u);
  // One launch + one retire instant per executed TB (PRO adds re-sorts).
  EXPECT_GE(instants, 2 * result_.totals.tbs_executed);
}

TEST_P(TraceSinks, WarpLaneSlicesTileEachLaneWithoutOverlap) {
  // Per (sm, warp): slices are emitted in order, abut exactly (each
  // starts where the previous ended), and never extend past sim end.
  struct LaneCursor {
    Cycle at = 0;
    bool started = false;
  };
  std::vector<std::vector<LaneCursor>> lanes;
  for (const WarpLaneTraceSink::Slice& s :
       session_->warp_lanes()->slices()) {
    ASSERT_GE(s.sm, 0);
    ASSERT_GE(s.warp, 0);
    if (lanes.size() <= static_cast<std::size_t>(s.sm)) {
      lanes.resize(static_cast<std::size_t>(s.sm) + 1);
    }
    auto& row = lanes[static_cast<std::size_t>(s.sm)];
    if (row.size() <= static_cast<std::size_t>(s.warp)) {
      row.resize(static_cast<std::size_t>(s.warp) + 1);
    }
    LaneCursor& cur = row[static_cast<std::size_t>(s.warp)];
    ASSERT_LT(s.start, s.end);
    if (cur.started) {
      EXPECT_GE(s.start, cur.at)
          << "overlapping slices on sm " << s.sm << " warp " << s.warp;
    }
    cur.at = s.end;
    cur.started = true;
    EXPECT_LE(s.end, result_.cycles);
  }
}

TEST_P(TraceSinks, WindowCsvMatchesRecordedWindows) {
  const WindowCsvSink& sink = *session_->windows();
  // The spin loop desynchronizes the two warps of each TB, so at least
  // one real barrier-wait window must exist.
  std::size_t barrier_windows = 0;
  for (const WindowCsvSink::Window& w : sink.windows()) {
    EXPECT_TRUE(w.kind == WarpState::kBarrierWait ||
                w.kind == WarpState::kFinishWait);
    EXPECT_LT(w.start, w.end);
    if (w.kind == WarpState::kBarrierWait) ++barrier_windows;
  }
  EXPECT_GT(barrier_windows, 0u);

  std::ostringstream os;
  sink.write_csv(os);
  std::istringstream in(os.str());
  std::string line;
  ASSERT_TRUE(std::getline(in, line));
  EXPECT_EQ(line, "kind,sm,warp,start,end,length");
  std::size_t rows = 0;
  while (std::getline(in, line)) {
    if (!line.empty()) ++rows;
  }
  EXPECT_EQ(rows, sink.windows().size());

  // Histogram CSV: header plus per-kind counts that sum to the windows.
  std::ostringstream hos;
  sink.write_histograms_csv(hos);
  std::istringstream hin(hos.str());
  ASSERT_TRUE(std::getline(hin, line));
  EXPECT_EQ(line, "kind,bin_lo,bin_hi,count");
  std::uint64_t counted = 0;
  while (std::getline(hin, line)) {
    if (line.empty()) continue;
    const std::size_t last_comma = line.rfind(',');
    ASSERT_NE(last_comma, std::string::npos);
    counted += std::stoull(line.substr(last_comma + 1));
  }
  EXPECT_EQ(counted, sink.windows().size());
}

INSTANTIATE_TEST_SUITE_P(Schedulers, TraceSinks,
                         ::testing::Values(SchedulerKind::kLrr,
                                           SchedulerKind::kPro),
                         [](const auto& p) {
                           return std::string(scheduler_name(p.param));
                         });

/// Whether the SMs of a fresh Gpu run the per-warp state pass once
/// `session` attached; nullopt when they dispatch to no sink at all (the
/// simulator core keeps its untraced fast path).
std::optional<bool> warp_states_after_attach(ObservabilitySession& session) {
  GlobalMemory mem;
  Gpu gpu(GpuConfig::test_config(), tiny_two_tb_kernel(), mem);
  session.attach(gpu);
  if (gpu.sm_trace_sink() == nullptr) return std::nullopt;
  return gpu.sm_trace_sink()->wants_warp_states();
}

// TraceSession: which SM trace sink an ObservabilitySession attaches.
TEST(TraceSession, NoModesYieldsNullSink) {
  ObservabilitySession session(ObservabilityOptions{});
  EXPECT_EQ(warp_states_after_attach(session), std::nullopt);
  EXPECT_EQ(session.warp_lanes(), nullptr);
  EXPECT_EQ(session.windows(), nullptr);
}

// Pay-for-use: the SMs count stall causes themselves, so neither the
// metrics sampler nor the journal attaches an SM sink.
TEST(TraceSession, AttributionOnlySkipsWarpStates) {
  ObservabilityOptions journal_only;
  journal_only.events_jsonl = "unused.jsonl";
  ObservabilitySession journal(journal_only);
  EXPECT_EQ(warp_states_after_attach(journal), std::nullopt);

  ObservabilityOptions observed = journal_only;
  observed.metrics_interval = 100;
  ObservabilitySession metrics_and_journal(observed);
  EXPECT_EQ(warp_states_after_attach(metrics_and_journal), std::nullopt);
}

TEST(TraceSession, WarpLanesWantWarpStates) {
  ObservabilityOptions opts;
  opts.warp_lanes = "unused.json";
  ObservabilitySession session(opts);
  EXPECT_EQ(warp_states_after_attach(session), true);
}

}  // namespace
}  // namespace prosim
