// Litmus certification driver: one (scheduler x litmus x regime) matrix
// over one cell path. Every cell runs the litmus kernel as stream 0 of the
// concurrent-kernel Gpu under an admission policy, alone on the one-SM
// config (the base matrix is the one-launch fifo_exclusive run) or beside
// a streaming background tenant on two SMs. Cells run on the runner's
// cell pool, each into its own slot, so reports are bit-identical
// whatever --jobs is; verdicts are classified per cell and rolled up into
// each scheduler's progress model.
#include <ostream>
#include <sstream>

#include "common/check.hpp"
#include "common/json.hpp"
#include "gpu/admission.hpp"
#include "gpu/gpu.hpp"
#include "gpu/scheduler_registry.hpp"
#include "isa/builder.hpp"
#include "litmus/litmus.hpp"
#include "runner/runner.hpp"
#include "sm/sm_core.hpp"

namespace prosim::litmus {

namespace {

constexpr Regime kRegimes[] = {Regime::kResident, Regime::kOversubscribed};
constexpr int kBackgroundGrid = 6;

/// The options' schedulers (empty = the whole registry).
std::vector<SchedulerKind> litmus_schedulers(const LitmusOptions& options) {
  std::vector<SchedulerKind> kinds = options.schedulers;
  if (kinds.empty()) {
    for (const SchedulerInfo& info : scheduler_registry()) {
      kinds.push_back(info.kind);
    }
  }
  return kinds;
}

/// The options' litmus tests (empty = the whole suite; an unknown name
/// aborts).
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

/// starvation → kStarvation; livelock/barrier/MSHR → kHang.
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

/// Rolls one scheduler's cells up into its SchedulerSummary.
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

void set_error(LitmusCell& cell, const SimError& error) {
  cell.detect_cycle = error.cycle;
  cell.detail = error.message;
  cell.verdict = classify_sim_error(error);
}

/// The one litmus matrix: every scheduler × litmus × regime cell runs the
/// litmus kernel as stream 0 under `admission`, with the background
/// tenant as stream 1 on the two-SM config when `tenant` is set and alone
/// on the one-SM config otherwise, observed per cell.
LitmusReport run_matrix(const LitmusOptions& options,
                        const std::string& admission, bool tenant) {
  const std::vector<SchedulerKind> kinds = litmus_schedulers(options);
  const std::vector<const LitmusTest*> tests = litmus_tests(options);
  auto config_of = [tenant](SchedulerKind kind) {
    return tenant ? litmus_bg_config(kind) : litmus_config(kind);
  };
  const std::unique_ptr<AdmissionPolicy> policy = make_admission(admission);
  const bool preemptive = policy != nullptr && policy->preemptive();

  struct CellMeta {
    SchedulerKind kind;
    const LitmusTest* test;
    Regime regime;
    int grid;
    bool fair_suffices;
  };
  std::vector<CellMeta> metas;
  for (SchedulerKind kind : kinds) {
    const GpuConfig cfg = config_of(kind);
    for (const LitmusTest* t : tests) {
      // Grids are sized against the per-SM residency, so the cells of
      // every matrix line up 1:1.
      const int residency =
          SmCore::compute_residency(cfg.sm, t->build(1).info);
      for (Regime regime : kRegimes) {
        const int grid = t->grid_for(regime, residency);
        PROSIM_CHECK_MSG(
            regime == Regime::kOversubscribed || grid <= residency,
            "resident-regime grid exceeds residency");
        // Preemption can rotate any queued TB in, so termination never
        // depends on residency: every hang is a defect. A grid that fits
        // the whole GPU at once makes every cross-TB wait resolvable by
        // fairness alone (with a tenant on two SMs, the cell is honestly
        // promoted to fair_suffices).
        const bool fair = preemptive || grid <= cfg.num_sms * residency ||
                          t->resident_fair_suffices(regime);
        metas.push_back({kind, t, regime, grid, fair});
      }
    }
  }

  LitmusReport report;
  report.cells.resize(metas.size());

  const int total = static_cast<int>(metas.size());
  const auto run_one = [&](int i) {
    const CellMeta& meta = metas[static_cast<std::size_t>(i)];
    LitmusCell& cell = report.cells[static_cast<std::size_t>(i)];
    cell.scheduler = meta.kind;
    cell.litmus = meta.test->name;
    cell.regime = meta.regime;
    cell.grid = meta.grid;
    cell.fair_suffices = meta.fair_suffices;

    // Flags and counters start zeroed.
    GlobalMemory litmus_memory;
    GlobalMemory background_memory;
    std::vector<KernelLaunch> launches;
    launches.push_back({0, meta.test->name, meta.test->build(meta.grid),
                        &litmus_memory, 0, {}});
    if (tenant) {
      launches.push_back({1, "background_tenant",
                          background_tenant_program(kBackgroundGrid),
                          &background_memory, 0, {}});
    }
    std::vector<std::string> names;
    for (const KernelLaunch& l : launches) names.push_back(l.name);

    ObservabilitySession obs(options.obs.for_cell(
        litmus_cell_label(meta.kind, meta.test->name, meta.regime, '.')));
    try {
      Gpu gpu(config_of(meta.kind), std::move(launches), admission);
      obs.attach(gpu);
      Expected<GpuResult> result = gpu.run_checked();
      if (result.has_value()) {
        // The checkers read the litmus kernel's registers: splice stream
        // 0's image into the result view.
        GpuResult view = std::move(result.value());
        view.registers = gpu.stream_registers(0);
        cell.detect_cycle = view.cycles;
        cell.detail = meta.test->check(view, meta.grid);
        cell.verdict =
            cell.detail.empty() ? Verdict::kPass : Verdict::kWrongResult;
      } else {
        set_error(cell, result.error());
      }
    } catch (const SimException& e) {
      set_error(cell, e.error());
    }
    obs.write(names, cell.write_error);
  };
  const auto on_done = [&](int i, int completed) {
    if (!options.progress) return;
    const CellMeta& m = metas[static_cast<std::size_t>(i)];
    options.progress(completed, total,
                     litmus_cell_label(m.kind, m.test->name, m.regime));
  };
  runner::run_cells(total, options.jobs, run_one, on_done);

  for (SchedulerKind kind : kinds) {
    report.schedulers.push_back(summarize_scheduler(kind, report.cells));
  }
  return report;
}

}  // namespace

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

GpuConfig litmus_bg_config(SchedulerKind kind) {
  GpuConfig cfg = litmus_config(kind);
  // Two SMs: the minimum pool where a co-tenant can genuinely share the
  // GPU with the litmus kernel at TB-drain granularity. Everything else
  // (watchdog windows, starvation rule, max_cycles backstop) stays at the
  // base settings so detection cycles remain comparable.
  cfg.num_sms = 2;
  cfg.mem.num_partitions = 2;
  return cfg;
}

Program background_tenant_program(int grid) {
  ProgramBuilder b("background_tenant");
  b.block_dim(32).grid_dim(grid);
  // r4 = 8 * (ctaid * 32 + tid): a private word per thread, so the tenant
  // produces steady load/store traffic with zero synchronization.
  b.s2r(0, SpecialReg::kCtaId);
  b.imuli(0, 0, 32);
  b.s2r(1, SpecialReg::kTid);
  b.iadd(4, 0, 1);
  b.imuli(4, 4, 8);
  b.movi(2, 0);  // iteration counter
  ProgramBuilder::Label top = b.loop_begin();
  b.ldg(3, 4, 0);
  b.iaddi(3, 3, 1);
  b.stg(4, 0, 3);
  b.iaddi(2, 2, 1);
  b.setpi(CmpOp::kLt, 5, 2, 64);
  b.loop_end_if(5, top);
  b.exit_();
  return b.build();
}

std::string litmus_cell_label(SchedulerKind kind, const std::string& litmus,
                              Regime regime, char sep) {
  return std::string(scheduler_name(kind)) + sep + litmus + sep +
         regime_name(regime);
}

LitmusReport run_litmus(const LitmusOptions& options) {
  return run_matrix(
      options, options.admission.empty() ? "fifo_exclusive" : options.admission,
      /*tenant=*/false);
}

LitmusReport run_litmus_bg(const LitmusOptions& options) {
  return run_matrix(
      options, options.admission.empty() ? "tb_interleaved" : options.admission,
      /*tenant=*/true);
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
