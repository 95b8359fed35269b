#include "gpu/report.hpp"

#include <ostream>

#include "common/json.hpp"

namespace prosim {

void write_json_report(std::ostream& os, const GpuResult& r,
                       const JsonReportOptions& options) {
  os << "{\n";
  if (!options.kernel.empty()) {
    os << "  \"kernel\": ";
    write_json_string(os, options.kernel);
    os << ",\n";
  }
  if (!options.scheduler.empty()) {
    os << "  \"scheduler\": ";
    write_json_string(os, options.scheduler);
    os << ",\n";
  }
  os << "  \"cycles\": " << r.cycles << ",\n";
  os << "  \"ipc\": " << r.ipc() << ",\n";
  os << "  \"issued\": " << r.totals.issued << ",\n";
  os << "  \"sched_cycles\": " << r.totals.sched_cycles << ",\n";
  os << "  \"faults_injected\": " << r.faults_injected << ",\n";
  os << "  \"stalls\": {\n";
  os << "    \"idle\": " << r.totals.idle_stalls << ",\n";
  os << "    \"scoreboard\": " << r.totals.scoreboard_stalls << ",\n";
  os << "    \"pipeline\": " << r.totals.pipeline_stalls << ",\n";
  os << "    \"total\": " << r.total_stalls() << "\n";
  os << "  },\n";
  os << "  \"thread_insts\": " << r.totals.thread_insts << ",\n";
  os << "  \"warp_insts\": " << r.totals.warp_insts << ",\n";
  os << "  \"simt_efficiency\": " << r.totals.simt_efficiency() << ",\n";
  os << "  \"tbs_executed\": " << r.totals.tbs_executed << ",\n";
  os << "  \"barrier_releases\": " << r.totals.barrier_releases << ",\n";
  os << "  \"barrier_wait_cycles\": " << r.totals.barrier_wait_cycles
     << ",\n";
  os << "  \"warp_finish_disparity_sum\": "
     << r.totals.warp_finish_disparity_sum << ",\n";
  os << "  \"occupancy_tb_cycles\": " << r.totals.occupancy_tb_cycles
     << ",\n";
  os << "  \"memory\": {\n";
  os << "    \"l1_hits\": " << r.l1_hits << ",\n";
  os << "    \"l1_misses\": " << r.l1_misses << ",\n";
  os << "    \"l2_hits\": " << r.l2_hits << ",\n";
  os << "    \"l2_misses\": " << r.l2_misses << ",\n";
  os << "    \"dram_row_hits\": " << r.dram_row_hits << ",\n";
  os << "    \"dram_row_misses\": " << r.dram_row_misses << ",\n";
  os << "    \"gmem_transactions\": " << r.totals.gmem_transactions
     << ",\n";
  os << "    \"const_transactions\": " << r.totals.const_transactions
     << ",\n";
  os << "    \"smem_conflict_extra_cycles\": "
     << r.totals.smem_conflict_extra_cycles << "\n";
  os << "  },\n";
  // Wall-clock throughput, when the driver stamped it (cache hits and
  // untimed paths leave it zero — then the block is omitted entirely so
  // reports stay comparable).
  if (r.throughput.valid()) {
    os << "  \"throughput\": {\n";
    os << "    \"wall_seconds\": " << r.throughput.wall_seconds << ",\n";
    os << "    \"sim_cycles_per_second\": " << r.throughput.cycles_per_second
       << ",\n";
    os << "    \"warp_insts_per_second\": " << r.throughput.insts_per_second
       << "\n";
    os << "  },\n";
  }
  // Per-cause stall attribution, only on request (the block is omitted
  // otherwise so plain reports stay comparable).
  if (options.stall_attribution) {
    os << "  \"stall_causes\": {";
    for (int c = 0; c < kNumStallCauses; ++c) {
      if (c != 0) os << ", ";
      os << "\"" << stall_cause_name(static_cast<StallCause>(c))
         << "\": " << r.totals.cause_cycles[c];
    }
    os << "},\n";
  }
  // Per-SM issue/stall breakdown (load-balance analysis across SMs).
  os << "  \"per_sm\": [";
  for (std::size_t i = 0; i < r.per_sm.size(); ++i) {
    const SmStats& s = r.per_sm[i];
    if (i != 0) os << ", ";
    os << "{\"issued\": " << s.issued << ", \"idle\": " << s.idle_stalls
       << ", \"scoreboard\": " << s.scoreboard_stalls
       << ", \"pipeline\": " << s.pipeline_stalls
       << ", \"tbs\": " << s.tbs_executed << "}";
  }
  os << "]";
  if (options.include_timelines) {
    os << ",\n  \"timelines\": [\n";
    for (std::size_t sm = 0; sm < r.timelines.size(); ++sm) {
      os << "    [";
      for (std::size_t i = 0; i < r.timelines[sm].size(); ++i) {
        const TbTimelineEntry& e = r.timelines[sm][i];
        if (i != 0) os << ", ";
        os << "{\"ctaid\": " << e.ctaid << ", \"start\": " << e.start
           << ", \"end\": " << e.end << "}";
      }
      os << "]" << (sm + 1 == r.timelines.size() ? "\n" : ",\n");
    }
    os << "  ]";
  }
  os << "\n}\n";
}

}  // namespace prosim
