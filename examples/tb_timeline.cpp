// Dump per-thread-block execution intervals (the raw data behind the
// paper's Figure 2) for any workload/scheduler, as a CSV suitable for
// plotting, plus ASCII Gantt charts of SM 0: one row per TB, and — from
// the warp-lane trace — one row per warp slot showing what each warp was
// doing cycle by cycle.
//
//   $ ./examples/tb_timeline [kernel-name] [scheduler]
//   $ ./examples/tb_timeline GPU_laplace3d PRO
//   $ ./examples/tb_timeline GPU_laplace3d PRO --warp-lanes lanes.json
//
#include <algorithm>
#include <fstream>
#include <iostream>
#include <string>

#include "common/argparse.hpp"
#include "common/table.hpp"
#include "gpu/gpu.hpp"
#include "gpu/scheduler_registry.hpp"
#include "kernels/registry.hpp"
#include "trace/warp_lane_trace.hpp"

using namespace prosim;

namespace {

/// One printable character per WarpState for the ASCII lane view.
char state_char(WarpState s) {
  switch (s) {
    case WarpState::kUnallocated: return ' ';
    case WarpState::kIssued: return '#';
    case WarpState::kEligible: return '+';
    case WarpState::kScoreboard: return 's';
    case WarpState::kMemPending: return 'm';
    case WarpState::kSpinWait: return 'w';
    case WarpState::kFuBusy: return 'f';
    case WarpState::kFetch: return 'i';
    case WarpState::kBarrierWait: return 'B';
    case WarpState::kFinishWait: return 'F';
  }
  return '?';
}

}  // namespace

int main(int argc, char** argv) {
  std::string name = "GPU_laplace3d";
  std::string sched = "PRO";
  std::string lanes_path;

  ArgParser parser("tb_timeline",
                   "TB execution intervals plus a warp-lane view of SM 0.");
  parser.add_positional("kernel", &name,
                        "Table II workload (default GPU_laplace3d)");
  parser.add_positional("scheduler", &sched,
                        "warp scheduler (default PRO)");
  parser.add_string("--warp-lanes", &lanes_path, "FILE",
                    "also write the chrome://tracing warp-lane JSON");
  parser.set_epilog(list_schedulers());
  switch (parser.parse(argc, argv)) {
    case ArgParser::Status::kOk: break;
    case ArgParser::Status::kHelp: return 0;
    case ArgParser::Status::kVersion: return 0;
    case ArgParser::Status::kError: return 2;
  }
  const SchedulerInfo* info = find_scheduler(sched);
  if (info == nullptr) {
    std::cerr << "unknown scheduler '" << sched << "'\n"
              << list_schedulers();
    return 2;
  }

  const Workload& w = find_workload(name);
  GlobalMemory mem;
  w.init(mem);
  GpuConfig cfg;
  cfg.scheduler.kind = info->kind;

  // The lanes are rendered below whether or not they go to a file, so
  // the sink is attached directly rather than through a session.
  WarpLaneTraceSink lanes_sink;
  Gpu gpu(cfg, w.program, mem);
  gpu.set_trace_sink(&lanes_sink);
  const GpuResult r = gpu.run();

  std::cout << "kernel " << w.kernel << " under " << info->name << ": "
            << r.cycles << " cycles\n\n";

  // CSV of every TB interval.
  Table csv({"sm", "ctaid", "start", "end"});
  for (std::size_t sm = 0; sm < r.timelines.size(); ++sm) {
    for (const TbTimelineEntry& e : r.timelines[sm]) {
      csv.add_row({Table::fmt(static_cast<int>(sm)), Table::fmt(e.ctaid),
                   Table::fmt(e.start), Table::fmt(e.end)});
    }
  }
  csv.print_csv(std::cout);

  // ASCII Gantt chart of SM 0 (one row per TB, launch order).
  std::vector<TbTimelineEntry> sm0 = r.timelines.at(0);
  std::sort(sm0.begin(), sm0.end(),
            [](const TbTimelineEntry& a, const TbTimelineEntry& b) {
              return a.start < b.start;
            });
  constexpr int kWidth = 72;
  const double scale =
      static_cast<double>(kWidth) / static_cast<double>(r.cycles);
  std::cout << "\nSM 0 occupancy (" << sm0.size() << " TBs, '#' = running; "
            << "x-axis 0.." << r.cycles << " cycles)\n";
  for (const TbTimelineEntry& e : sm0) {
    const int from = static_cast<int>(e.start * scale);
    const int to = std::max(from + 1, static_cast<int>(e.end * scale));
    std::string bar(static_cast<std::size_t>(kWidth), ' ');
    for (int i = from; i < to && i < kWidth; ++i) bar[i] = '#';
    std::printf("TB %4d |%s|\n", e.ctaid, bar.c_str());
  }

  // Warp-lane view of SM 0 from the trace: each row is a warp slot, each
  // column ~(cycles/kWidth) cycles, showing the state that covered most
  // of that column's span (last writer wins at this resolution).
  int max_warp = -1;
  for (const WarpLaneTraceSink::Slice& s : lanes_sink.slices()) {
    if (s.sm == 0) max_warp = std::max(max_warp, s.warp);
  }
  if (max_warp >= 0) {
    std::vector<std::string> lanes(
        static_cast<std::size_t>(max_warp + 1),
        std::string(static_cast<std::size_t>(kWidth), ' '));
    for (const WarpLaneTraceSink::Slice& s : lanes_sink.slices()) {
      if (s.sm != 0) continue;
      const int from = static_cast<int>(s.start * scale);
      const int to = std::max(from + 1, static_cast<int>(s.end * scale));
      for (int i = from; i < to && i < kWidth; ++i) {
        lanes[static_cast<std::size_t>(s.warp)][static_cast<std::size_t>(
            i)] = state_char(s.state);
      }
    }
    std::cout << "\nSM 0 warp lanes (# issued, + eligible, s scoreboard, "
                 "m mem, f fu-busy,\n                 i fetch, B barrier, "
                 "F finish-wait)\n";
    for (int warp = 0; warp <= max_warp; ++warp) {
      std::printf("W %4d |%s|\n", warp,
                  lanes[static_cast<std::size_t>(warp)].c_str());
    }
  }

  if (!lanes_path.empty()) {
    std::ofstream out(lanes_path);
    lanes_sink.write(out);
    if (!out) {
      std::cerr << "cannot write " << lanes_path << "\n";
      return 1;
    }
    std::cout << "\nwrote " << lanes_path << "\n";
  }
  return 0;
}
