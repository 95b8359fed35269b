// prosim-serve: multi-tenant serving experiments (docs/SERVING.md).
//
//   $ prosim-serve                                  # default trace, table
//   $ prosim-serve --schedulers PRO,GTO --admissions tb_interleaved
//   $ prosim-serve --admissions preemptive_slo --slo-factor 3
//   $ prosim-serve --closed-loop --concurrency 4    # completion-gated load
//   $ prosim-serve --jobs 8 --out serve.json        # prosim-serve-v2 JSON
//
// Generates one deterministic arrival trace (seeded heavy-tailed
// inter-arrivals over a kernel mix — or, with --closed-loop,
// completion-gated arrivals at fixed concurrency) and replays it against
// every requested scheduler x admission-policy cell on the
// concurrent-kernel GPU, printing per-tenant p50/p95/p99 queueing and
// completion latency, slowdown versus isolated execution, SLO attainment
// against a slo_factor x isolated deadline, and Jain's fairness index.
// The whole report is bit-identical whatever --jobs is.
#include <chrono>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "common/argparse.hpp"
#include "common/build_info.hpp"
#include "common/table.hpp"
#include "gpu/scheduler_registry.hpp"
#include "kernels/registry.hpp"
#include "mem/interconnect.hpp"
#include "serving/serving.hpp"

using namespace prosim;
using namespace prosim::serving;

int main(int argc, char** argv) {
  int jobs = 1;
  std::vector<std::string> scheds;
  std::vector<std::string> admissions;
  std::uint64_t seed = 42;
  int requests = 12;
  std::uint64_t gap_scale = 20000;
  std::vector<std::string> mix;
  int sms = 0;
  std::string out_path;
  std::string slo_factor_str;
  bool closed_loop = false;
  int concurrency = 4;
  bool quiet = false;
  bool list = false;
  std::int64_t metrics_interval = 0;
  ObservabilityOptions oopts;
  bool progress_line = false;

  ArgParser parser("prosim-serve",
                   "Multi-tenant serving harness: replays a deterministic "
                   "kernel arrival trace against scheduler x admission "
                   "cells and reports tail latency and fairness.");
  parser.add_int("--jobs", &jobs, "N",
                 "worker threads over cells (default 1; the report is "
                 "identical whatever N is)");
  parser.add_string_list("--schedulers", &scheds, "S,...",
                         "schedulers to serve under (default: all)");
  parser.add_string_list("--admissions", &admissions, "A,...",
                         "admission policies (default: all)");
  parser.add_u64("--seed", &seed, "N", "arrival-trace RNG seed (default 42)");
  parser.add_int("--requests", &requests, "N",
                 "kernel launches in the trace (default 12)");
  parser.add_u64("--gap-scale", &gap_scale, "CYCLES",
                 "inter-arrival scale; mean gap is about this many cycles "
                 "(default 20000)");
  parser.add_string_list("--mix", &mix, "K,...",
                         "kernel mix by registry name (default: "
                         "scalarProdGPU,histogram64Kernel,GPU_laplace3d)");
  parser.add_int("--sms", &sms, "N",
                 "SM count (default: the 2-SM test configuration; the "
                 "GTX480 default is 14)");
  parser.add_string("--slo-factor", &slo_factor_str, "F",
                    "per-tenant deadline = F x isolated cycles; drives the "
                    "preemptive_slo policy and the SLO-attainment column "
                    "(default 4.0; 0 disables deadlines)");
  parser.add_flag("--closed-loop", &closed_loop,
                  "gate arrivals on completions at fixed concurrency "
                  "instead of replaying trace arrivals verbatim");
  parser.add_int("--concurrency", &concurrency, "N",
                 "in-flight requests under --closed-loop (default 4)");
  parser.add_string("--out", &out_path, "FILE",
                    "report as prosim-serve-v2 JSON ('-' = stdout)");
  parser.add_section(
      "observability (per cell; with several cells the "
      "\"<scheduler>.<admission>\" key is inserted before each FILE's "
      "extension)");
  add_observability_flags(parser, oopts, metrics_interval);
  parser.add_flag("--progress", &progress_line,
                  "single live progress line (cells done, ETA) instead "
                  "of per-cell lines");
  parser.add_flag("--quiet", &quiet, "no per-cell progress on stderr");
  parser.add_flag("--list", &list,
                  "list schedulers, admission policies, and kernels; exit");
  parser.set_epilog(list_schedulers() + "\n" + list_admissions() +
                    "\nexit: 0 ok | 2 usage | 1 I/O error | 4 cell "
                    "failures (docs/ROBUSTNESS.md has the shared exit-code "
                    "table)");
  parser.set_version(build_info_line());
  switch (parser.parse(argc, argv)) {
    case ArgParser::Status::kOk: break;
    case ArgParser::Status::kHelp: return 0;
    case ArgParser::Status::kVersion: return 0;
    case ArgParser::Status::kError: return 2;
  }
  if (!check_observability_flags(parser, metrics_interval, oopts)) return 2;

  if (list) {
    std::cout << list_schedulers() << "\n" << list_admissions() << "\nkernels:\n";
    for (const Workload& w : all_workloads()) {
      std::cout << "  " << w.kernel << " (" << w.app << ")\n";
    }
    return 0;
  }

  ServingOptions opt;
  opt.jobs = jobs;
  opt.closed_loop = closed_loop;
  opt.concurrency = concurrency;
  if (!slo_factor_str.empty()) {
    char* end = nullptr;
    opt.slo_factor = std::strtod(slo_factor_str.c_str(), &end);
    if (end == nullptr || *end != '\0' || opt.slo_factor < 0.0) {
      std::cerr << "--slo-factor needs a non-negative number\n";
      return 2;
    }
  }
  if (closed_loop && concurrency < 1) {
    std::cerr << "--concurrency must be >= 1\n";
    return 2;
  }
  opt.trace.seed = seed;
  opt.trace.requests = requests;
  opt.trace.gap_scale = gap_scale;
  opt.trace.mix = mix.empty()
                      ? std::vector<std::string>{"scalarProdGPU",
                                                 "histogram64Kernel",
                                                 "GPU_laplace3d"}
                      : mix;
  if (requests <= 0) {
    std::cerr << "--requests must be positive\n";
    return 2;
  }
  for (const std::string& kernel : opt.trace.mix) {
    bool known = false;
    for (const Workload& w : all_workloads()) known = known || w.kernel == kernel;
    if (!known) {
      std::cerr << "unknown kernel '" << kernel << "' (--list shows the "
                << "registry)\n";
      return 2;
    }
  }
  opt.base = GpuConfig::test_config();
  if (parser.seen("--sms")) {
    if (sms <= 0) {
      std::cerr << "--sms must be positive\n";
      return 2;
    }
    if (sms > Interconnect::kMaxSms) {
      std::cerr << "--sms must be at most " << Interconnect::kMaxSms << "\n";
      return 2;
    }
    opt.base.num_sms = sms;
  }
  if (scheds.empty()) {
    for (const SchedulerInfo& info : scheduler_registry()) {
      opt.schedulers.push_back(info.kind);
    }
  } else {
    for (const std::string& name : scheds) {
      const SchedulerInfo* info = find_scheduler(name);
      if (info == nullptr) {
        std::cerr << "unknown scheduler '" << name << "'\n"
                  << list_schedulers();
        return 2;
      }
      opt.schedulers.push_back(info->kind);
    }
  }
  if (admissions.empty()) {
    for (const AdmissionInfo& info : admission_registry()) {
      opt.admissions.push_back(info.name);
    }
  } else {
    for (const std::string& name : admissions) {
      if (find_admission(name) == nullptr) {
        std::cerr << "unknown admission policy '" << name << "'\n"
                  << list_admissions();
        return 2;
      }
      opt.admissions.push_back(name);
    }
  }
  opt.obs = oopts;
  const auto progress_t0 = std::chrono::steady_clock::now();
  if (progress_line) {
    opt.progress = [progress_t0](const ServingProgress& p) {
      const double elapsed =
          std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                        progress_t0)
              .count();
      const double eta =
          p.completed > 0
              ? elapsed * static_cast<double>(p.total - p.completed) /
                    static_cast<double>(p.completed)
              : 0.0;
      std::cerr << "\r[" << p.completed << "/" << p.total << "] ETA "
                << static_cast<int>(eta + 0.5) << "s   " << std::flush;
      if (p.completed == p.total) std::cerr << "\n";
    };
  } else if (!quiet) {
    opt.progress = [](const ServingProgress& p) {
      std::cerr << "[" << p.completed << "/" << p.total << "] "
                << p.cell->scheduler << "/" << p.cell->admission
                << (p.cell->ok() ? "" : " FAILED") << "\n";
    };
  }

  const ServingReport report = run_serving(opt);

  // With --out - the JSON owns stdout; the human tables move to stderr.
  std::ostream& human = out_path == "-" ? std::cerr : std::cout;
  human << "trace: " << report.trace.size() << " requests, seed " << seed
        << ", mean gap ~" << gap_scale << " cycles\n\n";
  Table table({"scheduler", "admission", "tenant", "n", "queue_p50",
               "queue_p99", "compl_p50", "compl_p99", "slowdown", "slo_att",
               "jain"});
  for (const ServingCell& cell : report.cells) {
    if (!cell.ok()) {
      table.add_row({cell.scheduler, cell.admission, "(failed)", "-", "-",
                     "-", "-", "-", "-", "-", "-"});
      continue;
    }
    for (const TenantMetrics& t : cell.tenants) {
      table.add_row({cell.scheduler, cell.admission, t.kernel,
                     Table::fmt(t.requests), Table::fmt(t.queue_p50),
                     Table::fmt(t.queue_p99), Table::fmt(t.completion_p50),
                     Table::fmt(t.completion_p99), Table::fmt(t.slowdown),
                     Table::fmt(t.slo_attainment),
                     Table::fmt(cell.jain_fairness)});
    }
  }
  table.print(human);

  if (!out_path.empty()) {
    const std::string json = serving_report_to_json(report, opt.trace);
    if (out_path == "-") {
      std::cout << json << "\n";
    } else {
      std::ofstream out(out_path);
      if (!out) {
        std::cerr << "cannot write " << out_path << "\n";
        return 1;
      }
      out << json << "\n";
      std::cerr << "wrote serving report to " << out_path << "\n";
    }
  }
  if (print_write_errors(std::cerr, report.cells)) return 1;

  return report.failures > 0 ? 4 : 0;
}
