// Litmus certification driver: expands the (scheduler x litmus x regime)
// matrix into sweep jobs, runs them through the parallel sweep engine
// (per-cell determinism is the runner's contract — results are
// bit-identical whatever --jobs is), classifies verdicts, and derives the
// per-scheduler progress model.
#include <ostream>
#include <sstream>

#include "common/check.hpp"
#include "common/json.hpp"
#include "gpu/scheduler_registry.hpp"
#include "litmus/litmus.hpp"
#include "runner/runner.hpp"
#include "sm/sm_core.hpp"

namespace prosim::litmus {

namespace {

constexpr Regime kRegimes[] = {Regime::kResident, Regime::kOversubscribed};

}  // namespace

Verdict classify_sim_error(const SimError& error) {
  switch (error.category) {
    case ErrorCategory::kStarvation:
      return Verdict::kStarvation;
    case ErrorCategory::kLivelock:
    case ErrorCategory::kBarrierMismatch:
    case ErrorCategory::kMshrLeak:
      return Verdict::kHang;
    case ErrorCategory::kInvariant:
      return Verdict::kError;
  }
  return Verdict::kError;
}

SchedulerSummary summarize_scheduler(SchedulerKind kind,
                                     const std::vector<LitmusCell>& cells) {
  SchedulerSummary s;
  s.scheduler = kind;
  for (const LitmusCell& cell : cells) {
    if (cell.scheduler != kind) continue;
    if (cell.verdict == Verdict::kPass) {
      ++s.passes;
    } else if (!cell.fair_suffices && cell.verdict == Verdict::kHang) {
      ++s.expected_hangs;
    } else if (cell.fair_suffices && (cell.verdict == Verdict::kStarvation ||
                                      cell.verdict == Verdict::kHang)) {
      ++s.unfair_cells;
    } else {
      ++s.broken_cells;
    }
  }
  s.model = s.unfair_cells > 0      ? ProgressModel::kUnfairLivelocks
            : s.expected_hangs > 0  ? ProgressModel::kOccupancyBoundFair
                                    : ProgressModel::kTerminates;
  return s;
}

GpuConfig litmus_config(SchedulerKind kind) {
  GpuConfig cfg = GpuConfig::test_config();
  // One SM: residency (and hence the resident/oversubscribed boundary) is
  // the per-SM limit, and every cross-TB wait is a pure scheduling story.
  cfg.num_sms = 1;
  cfg.scheduler.kind = kind;
  cfg.record_registers = true;  // checkers read the final registers
  // Tight, litmus-scale limits: passing cells finish well under 100k
  // cycles, so hangs resolve fast and at bit-deterministic cycles. The
  // starvation rule is the harness's whole point — on here, off by
  // default everywhere else.
  cfg.max_cycles = 400'000;
  cfg.watchdog.window = 10'000;
  cfg.watchdog.stall_windows = 2;
  cfg.watchdog.barrier_timeout = 300'000;
  cfg.watchdog.starvation_timeout = 150'000;
  return cfg;
}

std::vector<SchedulerKind> litmus_schedulers(const LitmusOptions& options) {
  std::vector<SchedulerKind> kinds = options.schedulers;
  if (kinds.empty()) {
    for (const SchedulerInfo& info : scheduler_registry()) {
      kinds.push_back(info.kind);
    }
  }
  return kinds;
}

std::vector<const LitmusTest*> litmus_tests(const LitmusOptions& options) {
  std::vector<const LitmusTest*> tests;
  if (options.tests.empty()) {
    for (const LitmusTest& t : litmus_suite()) tests.push_back(&t);
  } else {
    for (const std::string& name : options.tests) {
      const LitmusTest* t = find_litmus(name);
      PROSIM_CHECK_MSG(t != nullptr, "unknown litmus test");
      tests.push_back(t);
    }
  }
  return tests;
}

std::string litmus_cell_label(SchedulerKind kind, const std::string& litmus,
                              Regime regime, char sep) {
  return std::string(scheduler_name(kind)) + sep + litmus + sep +
         regime_name(regime);
}

LitmusReport run_litmus(const LitmusOptions& options) {
  const std::vector<SchedulerKind> kinds = litmus_schedulers(options);
  const std::vector<const LitmusTest*> tests = litmus_tests(options);

  struct CellMeta {
    SchedulerKind kind;
    const LitmusTest* test;
    Regime regime;
    int grid;
  };
  std::vector<runner::SweepJob> jobs;
  std::vector<CellMeta> metas;
  for (SchedulerKind kind : kinds) {
    const GpuConfig cfg = litmus_config(kind);
    for (const LitmusTest* t : tests) {
      const int residency =
          SmCore::compute_residency(cfg.sm, t->build(1).info);
      for (Regime regime : kRegimes) {
        const int grid = t->grid_for(regime, residency);
        PROSIM_CHECK_MSG(
            regime == Regime::kOversubscribed || grid <= residency,
            "resident-regime grid exceeds residency");
        Workload w;
        w.suite = "litmus";
        w.app = "litmus";
        w.kernel = t->name + "." + regime_name(regime);
        w.paper_tbs = grid;
        w.program = t->build(grid);
        w.init = [](GlobalMemory&) {};  // flags/counters start zeroed
        // Spin iteration counts are legitimately schedule-dependent.
        w.schedule_invariant_inst_count = false;
        w.fits_residency = regime == Regime::kResident;
        runner::SweepJob job = runner::SweepJob::make(std::move(w), cfg);
        job.label = litmus_cell_label(kind, t->name, regime);
        jobs.push_back(std::move(job));
        metas.push_back({kind, t, regime, grid});
      }
    }
  }

  runner::SweepOptions sweep_options;
  sweep_options.jobs = options.jobs;
  if (options.progress) {
    sweep_options.progress = [&options](const runner::SweepProgress& p) {
      options.progress(p.completed, p.total, p.cell->label);
    };
  }
  const runner::SweepReport sweep = runner::run_sweep(jobs, sweep_options);

  LitmusReport report;
  report.cells.reserve(sweep.cells.size());
  for (std::size_t i = 0; i < sweep.cells.size(); ++i) {
    const runner::SweepCell& sc = sweep.cells[i];
    const CellMeta& meta = metas[i];
    LitmusCell cell;
    cell.scheduler = meta.kind;
    cell.litmus = meta.test->name;
    cell.regime = meta.regime;
    cell.grid = meta.grid;
    cell.fair_suffices = meta.test->resident_fair_suffices(meta.regime);
    if (sc.ok()) {
      cell.detect_cycle = sc.result->cycles;
      cell.detail = meta.test->check(*sc.result, meta.grid);
      cell.verdict =
          cell.detail.empty() ? Verdict::kPass : Verdict::kWrongResult;
    } else {
      cell.detect_cycle = sc.error->cycle;
      cell.detail = sc.error->message;
      cell.verdict = classify_sim_error(*sc.error);
    }
    report.cells.push_back(std::move(cell));
  }
  for (SchedulerKind kind : kinds) {
    report.schedulers.push_back(summarize_scheduler(kind, report.cells));
  }
  return report;
}

const char* verdict_name(Verdict verdict) {
  switch (verdict) {
    case Verdict::kPass: return "pass";
    case Verdict::kWrongResult: return "wrong_result";
    case Verdict::kStarvation: return "starvation";
    case Verdict::kHang: return "hang";
    case Verdict::kError: return "error";
  }
  return "?";
}

const char* progress_model_name(ProgressModel model) {
  switch (model) {
    case ProgressModel::kTerminates: return "terminates";
    case ProgressModel::kOccupancyBoundFair: return "occupancy_bound_fair";
    case ProgressModel::kUnfairLivelocks: return "unfair_livelocks";
  }
  return "?";
}

void write_litmus_json(std::ostream& os, const LitmusReport& report) {
  os << "{\n  \"schema\": \"" << kLitmusSchema << "\",\n  \"cells\": [\n";
  for (std::size_t i = 0; i < report.cells.size(); ++i) {
    const LitmusCell& c = report.cells[i];
    os << "    {\"scheduler\": \"" << scheduler_name(c.scheduler)
       << "\", \"litmus\": ";
    write_json_string(os, c.litmus);
    os << ", \"regime\": \"" << regime_name(c.regime)
       << "\", \"grid\": " << c.grid << ", \"fair_suffices\": "
       << (c.fair_suffices ? "true" : "false") << ", \"verdict\": \""
       << verdict_name(c.verdict) << "\", \"detect_cycle\": " << c.detect_cycle
       << ", \"as_expected\": " << (c.as_expected() ? "true" : "false")
       << ", \"detail\": ";
    write_json_string(os, c.detail);
    os << "}" << (i + 1 == report.cells.size() ? "\n" : ",\n");
  }
  os << "  ],\n  \"schedulers\": [\n";
  for (std::size_t i = 0; i < report.schedulers.size(); ++i) {
    const SchedulerSummary& s = report.schedulers[i];
    os << "    {\"scheduler\": \"" << scheduler_name(s.scheduler)
       << "\", \"model\": \"" << progress_model_name(s.model)
       << "\", \"passes\": " << s.passes
       << ", \"expected_hangs\": " << s.expected_hangs
       << ", \"unfair_cells\": " << s.unfair_cells
       << ", \"broken_cells\": " << s.broken_cells << "}"
       << (i + 1 == report.schedulers.size() ? "\n" : ",\n");
  }
  os << "  ]\n}\n";
}

std::string litmus_report_to_json(const LitmusReport& report) {
  std::ostringstream os;
  write_litmus_json(os, report);
  return os.str();
}

}  // namespace prosim::litmus
