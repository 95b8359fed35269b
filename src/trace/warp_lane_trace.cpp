#include "trace/warp_lane_trace.hpp"

#include <algorithm>
#include <ostream>

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
  sim_end_ = std::max(sim_end_, now);
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

void WarpLaneTraceSink::on_sim_event(const SimEvent& event) {
  if (event.kind == SimEventKind::kSimEnd) {
    sim_end_ = std::max(sim_end_, event.cycle);
  }
}

void WarpLaneTraceSink::write(std::ostream& os) const {
  // The TB-event/re-sort marker track sits above the warp tracks.
  const int marker_tid = max_warp_ + 1;
  os << "[\n";
  bool first = true;
  auto sep = [&] {
    if (!first) os << ",\n";
    first = false;
  };
  for (int sm = 0; sm <= max_sm_; ++sm) {
    sep();
    os << R"({"name":"process_name","ph":"M","pid":)" << sm
       << R"(,"args":{"name":"SM )" << sm << R"("}})";
    os << ",\n"
       << R"({"name":"thread_name","ph":"M","pid":)" << sm
       << R"(,"tid":)" << marker_tid << R"(,"args":{"name":"TB events"}})";
  }
  for (int warp = 0; warp <= max_warp_; ++warp) {
    for (int sm = 0; sm <= max_sm_; ++sm) {
      sep();
      os << R"({"name":"thread_name","ph":"M","pid":)" << sm
         << R"(,"tid":)" << warp << R"(,"args":{"name":"warp )" << warp
         << R"("}})";
    }
  }
  for (const Slice& s : slices_) {
    sep();
    os << R"({"name":")" << warp_state_name(s.state) << R"(","ph":"X","pid":)"
       << s.sm << R"(,"tid":)" << s.warp << R"(,"ts":)" << s.start
       << R"(,"dur":)" << (s.end - s.start) << R"(,"cname":")"
       << state_cname(s.state) << R"("})";
  }
  for (const Marker& m : markers_) {
    sep();
    os << R"({"name":"TB )" << m.ctaid << (m.retire ? " retire" : " launch")
       << R"(","ph":"i","s":"t","pid":)" << m.sm << R"(,"tid":)" << marker_tid
       << R"(,"ts":)" << m.at << R"(,"args":{"ctaid":)" << m.ctaid << "}}";
  }
  for (const Marker& m : sorts_) {
    sep();
    os << R"({"name":"PRO re-sort","ph":"i","s":"p","pid":)" << m.sm
       << R"(,"tid":)" << marker_tid << R"(,"ts":)" << m.at << "}";
  }
  os << "\n]\n";
}

}  // namespace prosim
