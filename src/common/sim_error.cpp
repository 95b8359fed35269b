#include "common/sim_error.hpp"

#include <ostream>
#include <sstream>

#include "common/json.hpp"

namespace prosim {

const char* to_string(ErrorCategory category) {
  switch (category) {
    case ErrorCategory::kLivelock: return "livelock";
    case ErrorCategory::kBarrierMismatch: return "barrier_mismatch";
    case ErrorCategory::kMshrLeak: return "mshr_leak";
    case ErrorCategory::kStarvation: return "starvation";
    case ErrorCategory::kInvariant: return "invariant";
  }
  return "?";
}

const char* to_string(WarpBlockReason reason) {
  switch (reason) {
    case WarpBlockReason::kBarrier: return "barrier";
    case WarpBlockReason::kScoreboard: return "scoreboard";
    case WarpBlockReason::kDrain: return "drain";
    case WarpBlockReason::kFetch: return "fetch";
    case WarpBlockReason::kFuBusy: return "fu_busy";
    case WarpBlockReason::kRunnable: return "runnable";
  }
  return "?";
}

std::string SimError::to_string() const {
  std::ostringstream os;
  os << "SimError[" << prosim::to_string(category) << "] at cycle " << cycle
     << ": " << message;
  if (sm_id >= 0) os << " (sm " << sm_id;
  if (sm_id >= 0 && warp >= 0) os << ", warp " << warp;
  if (sm_id >= 0 && pc >= 0) os << ", pc " << pc;
  if (sm_id >= 0) os << ")";
  for (const WarpBlockInfo& w : warps) {
    os << "\n  sm " << w.sm_id << " warp " << w.warp << " (cta " << w.ctaid
       << ", pc " << w.pc << "): " << prosim::to_string(w.reason);
    if (w.reason == WarpBlockReason::kBarrier) {
      os << " — " << w.warps_at_barrier << "/" << w.warps_live
         << " warps arrived, waiting " << w.barrier_wait << " cycles";
    } else if (w.pending_regs != 0) {
      os << " — waiting on regs {";
      bool first = true;
      for (int r = 0; r < 64; ++r) {
        if ((w.pending_regs & (1ull << r)) == 0) continue;
        if (!first) os << ",";
        os << "r" << r;
        first = false;
      }
      os << "}";
    }
    if (w.reason != WarpBlockReason::kBarrier && w.issue_gap > 0) {
      os << " (no issue for " << w.issue_gap << " cycles)";
    }
  }
  for (const SmHealth& h : sm_health) {
    os << "\n  sm " << h.sm_id << ": " << h.resident_tbs << " resident TBs, "
       << h.live_pending_loads << " pending loads, MSHR occupancy l1="
       << h.l1_mshr_occupancy << " const=" << h.const_mshr_occupancy
       << (h.ldst_busy ? ", LDST busy" : "") << ", " << h.issued
       << " issued total";
  }
  return os.str();
}

void SimError::write_json(std::ostream& os) const {
  os << "{\n";
  os << "  \"error\": \"" << prosim::to_string(category) << "\",\n";
  os << "  \"message\": ";
  write_json_string(os, message);
  os << ",\n";
  os << "  \"cycle\": " << cycle << ",\n";
  os << "  \"sm\": " << sm_id << ",\n";
  os << "  \"warp\": " << warp << ",\n";
  os << "  \"pc\": " << pc << ",\n";
  os << "  \"warps\": [";
  for (std::size_t i = 0; i < warps.size(); ++i) {
    const WarpBlockInfo& w = warps[i];
    os << (i == 0 ? "\n" : ",\n");
    os << "    {\"sm\": " << w.sm_id << ", \"warp\": " << w.warp
       << ", \"ctaid\": " << w.ctaid << ", \"pc\": " << w.pc
       << ", \"reason\": \"" << prosim::to_string(w.reason)
       << "\", \"pending_regs\": " << w.pending_regs
       << ", \"warps_at_barrier\": " << w.warps_at_barrier
       << ", \"warps_live\": " << w.warps_live
       << ", \"barrier_wait\": " << w.barrier_wait
       << ", \"issue_gap\": " << w.issue_gap << "}";
  }
  os << (warps.empty() ? "],\n" : "\n  ],\n");
  os << "  \"sm_health\": [";
  for (std::size_t i = 0; i < sm_health.size(); ++i) {
    const SmHealth& h = sm_health[i];
    os << (i == 0 ? "\n" : ",\n");
    os << "    {\"sm\": " << h.sm_id << ", \"resident_tbs\": "
       << h.resident_tbs << ", \"pending_loads\": " << h.live_pending_loads
       << ", \"l1_mshr\": " << h.l1_mshr_occupancy << ", \"const_mshr\": "
       << h.const_mshr_occupancy << ", \"ldst_busy\": "
       << (h.ldst_busy ? "true" : "false") << ", \"issued\": " << h.issued
       << "}";
  }
  os << (sm_health.empty() ? "]\n" : "\n  ]\n");
  os << "}\n";
}

}  // namespace prosim
