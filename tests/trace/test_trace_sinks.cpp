// Golden-structure tests for the src/trace sinks on a tiny two-TB kernel
// under LRR and PRO: the warp-lane trace must be a valid Trace Event
// document with consistent slices, and the wait-window CSV must match the
// recorded windows — on a kernel small enough to reason about by hand.
// The TB view is checked on a kernel with more TBs than the SMs hold.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "common/json.hpp"
#include "gpu/gpu.hpp"
#include "isa/builder.hpp"
#include "metrics/metrics.hpp"
#include "trace/trace_event_writer.hpp"
#include "trace_checks.hpp"

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
  const JsonValue events = expect_valid_trace(os.str(), result_.cycles);
  ASSERT_TRUE(events.is_array());

  std::size_t slices = 0, instants = 0;
  for (const JsonValue& ev : events.items()) {
    const std::string kind = ev.at("ph").as_string();
    if (kind == "X") {
      ++slices;
      EXPECT_NE(ev.find("cname"), nullptr);
    } else if (kind == "i") {
      ++instants;
    }
  }
  EXPECT_EQ(slices, session_->warp_lanes()->slices().size());
  EXPECT_GT(slices, 0u);
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

// TraceExport: the TB view of trace/trace_event_writer.hpp on nine
// looping TBs, more than the two test SMs hold at once.
GpuResult nine_looping_tbs() {
  ProgramBuilder b("trace_me");
  b.block_dim(64).grid_dim(9);
  b.movi(0, 30);
  auto top = b.loop_begin();
  b.iaddi(0, 0, -1);
  b.setpi(CmpOp::kGt, 1, 0, 0);
  b.loop_end_if(1, top);
  b.exit_();
  GlobalMemory mem;
  return simulate(GpuConfig::test_config(), b.build(), mem);
}

/// The parsed TB view of `r`, after the shared structural check.
JsonValue tb_view(const GpuResult& r) {
  std::ostringstream os;
  write_tb_timeline(os, r.timelines);
  return expect_valid_trace(os.str(), r.cycles);
}

// Every TB is one slice and every SM is one named process.
TEST(TraceExport, EmitsOneEventPerTbPlusMetadata) {
  const GpuResult r = nine_looping_tbs();
  const JsonValue events = tb_view(r);
  ASSERT_TRUE(events.is_array());
  std::size_t slices = 0, names = 0;
  for (const JsonValue& ev : events.items()) {
    if (ev.at("ph").as_string() == "X") {
      ++slices;
    } else if (ev.at("name").as_string() == "process_name") {
      ++names;
    }
  }
  EXPECT_EQ(slices, r.totals.tbs_executed);
  EXPECT_EQ(names, r.timelines.size());
}

// Every slice has a duration, and none outlasts the run.
TEST(TraceExport, DurationsAreNonNegativeAndBounded) {
  const GpuResult r = nine_looping_tbs();
  const JsonValue events = tb_view(r);
  ASSERT_TRUE(events.is_array());
  int checked = 0;
  for (const JsonValue& ev : events.items()) {
    if (ev.at("ph").as_string() != "X") continue;
    EXPECT_LE(ev.at("dur").as_u64(), r.cycles);
    ++checked;
  }
  EXPECT_GT(checked, 0);
}

// TBs that overlap in time on one SM are packed onto tracks that never
// overlap (expect_valid_trace checks the packing), and this kernel needs
// more than one track.
TEST(TraceExport, TracksNeverOverlapWithinAnSm) {
  const GpuResult r = nine_looping_tbs();
  const JsonValue events = tb_view(r);
  ASSERT_TRUE(events.is_array());
  std::int64_t max_track = 0;
  for (const JsonValue& ev : events.items()) {
    if (ev.at("ph").as_string() == "X") {
      max_track = std::max(max_track, ev.at("tid").as_i64());
    }
  }
  EXPECT_GT(max_track, 0) << "no SM ran two TBs at once";
}

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
