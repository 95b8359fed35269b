#include "trace/warp_lane_trace.hpp"

#include <algorithm>
#include <string>

#include "trace/trace_event_writer.hpp"

namespace prosim {

namespace {

/// Chrome-trace reserved color names, chosen so stalled states read "hot"
/// and progress reads "calm" in the default viewer palette.
const char* state_cname(WarpState state) {
  switch (state) {
    case WarpState::kIssued: return "thread_state_running";
    case WarpState::kEligible: return "thread_state_runnable";
    case WarpState::kScoreboard: return "thread_state_uninterruptible";
    case WarpState::kMemPending: return "thread_state_iowait";
    case WarpState::kSpinWait: return "bad";
    case WarpState::kFuBusy: return "thread_state_unknown";
    case WarpState::kFetch: return "generic_work";
    case WarpState::kBarrierWait: return "terrible";
    case WarpState::kFinishWait: return "grey";
    case WarpState::kUnallocated: return "white";
  }
  return "white";
}

}  // namespace

void WarpLaneTraceSink::on_warp_state(int sm, int warp, WarpState prev,
                                      Cycle since, WarpState next, Cycle now) {
  max_sm_ = std::max(max_sm_, sm);
  max_warp_ = std::max(max_warp_, warp);
  (void)next;
  if (prev == WarpState::kUnallocated || since == now) return;
  slices_.push_back({sm, warp, prev, since, now});
}

void WarpLaneTraceSink::on_tb_launch(int sm, int ctaid, Cycle now) {
  max_sm_ = std::max(max_sm_, sm);
  markers_.push_back({sm, ctaid, now, /*retire=*/false});
}

void WarpLaneTraceSink::on_tb_retire(int sm, int ctaid, Cycle /*start*/,
                                     Cycle end) {
  max_sm_ = std::max(max_sm_, sm);
  markers_.push_back({sm, ctaid, end, /*retire=*/true});
}

void WarpLaneTraceSink::on_pro_sort(int sm, Cycle now) {
  max_sm_ = std::max(max_sm_, sm);
  sorts_.push_back({sm, -1, now, false});
}

void WarpLaneTraceSink::write(std::ostream& os) const {
  // The TB-event/re-sort marker track sits above the warp tracks.
  const int marker_tid = max_warp_ + 1;
  TraceEventWriter trace(os);
  for (int sm = 0; sm <= max_sm_; ++sm) {
    trace.process_name(sm, "SM " + std::to_string(sm));
    trace.thread_name(sm, marker_tid, "TB events");
  }
  for (int warp = 0; warp <= max_warp_; ++warp) {
    for (int sm = 0; sm <= max_sm_; ++sm) {
      trace.thread_name(sm, warp, "warp " + std::to_string(warp));
    }
  }
  for (const Slice& s : slices_) {
    trace.slice(warp_state_name(s.state), s.sm, s.warp, s.start,
                s.end - s.start, state_cname(s.state));
  }
  for (const Marker& m : markers_) {
    trace.instant("TB " + std::to_string(m.ctaid) +
                      (m.retire ? " retire" : " launch"),
                  TraceEventWriter::Scope::kThread, m.sm, marker_tid, m.at,
                  {"ctaid", m.ctaid});
  }
  for (const Marker& m : sorts_) {
    trace.instant("PRO re-sort", TraceEventWriter::Scope::kProcess, m.sm,
                  marker_tid, m.at);
  }
}

}  // namespace prosim
