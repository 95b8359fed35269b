// Background-tenant litmus certification (litmus.hpp): re-runs the
// forward-progress suite with a streaming co-tenant admitted under
// tb_interleaved sharing on a two-SM GPU, through the concurrent-kernel
// constructor. The question it answers: does multi-tenancy silently
// demote any scheduler's progress model? A fair scheduler must still
// finish every cell fairness can finish, and every unfair parking must
// still be caught by the per-warp starvation watchdog — co-residency is
// allowed to change *cycles*, never *verdict classes*, except by honestly
// promoting cells whose grid now fits the doubled residency.
#include "gpu/gpu.hpp"
#include "isa/builder.hpp"
#include "litmus/litmus.hpp"
#include "runner/runner.hpp"
#include "sm/sm_core.hpp"

namespace prosim::litmus {

namespace {

constexpr Regime kRegimes[] = {Regime::kResident, Regime::kOversubscribed};
constexpr int kBackgroundGrid = 6;

}  // namespace

GpuConfig litmus_bg_config(SchedulerKind kind) {
  GpuConfig cfg = litmus_config(kind);
  // Two SMs: the minimum pool where a co-tenant can genuinely share the
  // GPU with the litmus kernel at TB-drain granularity. Everything else
  // (watchdog windows, starvation rule, max_cycles backstop) stays at the
  // base harness's settings so detection cycles remain comparable.
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

namespace {

/// The concurrent-kernel matrix both harnesses share: every scheduler ×
/// litmus × regime cell runs the litmus kernel as stream 0 of the
/// multi-stream Gpu under `admission` — with the background tenant as
/// stream 1 on the two-SM config when `tenant` is set, alone on the base
/// config otherwise — observed per cell.
LitmusReport run_concurrent(const LitmusOptions& options,
                            const std::string& admission, bool tenant) {
  const std::vector<SchedulerKind> kinds = litmus_schedulers(options);
  const std::vector<const LitmusTest*> tests = litmus_tests(options);
  auto config_of = [tenant](SchedulerKind kind) {
    return tenant ? litmus_bg_config(kind) : litmus_config(kind);
  };

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
      // Same per-SM residency as the base harness (grids line up 1:1).
      const int residency =
          SmCore::compute_residency(cfg.sm, t->build(1).info);
      for (Regime regime : kRegimes) {
        const int grid = t->grid_for(regime, residency);
        // Preemption can rotate any queued TB in, so termination never
        // depends on residency: every hang is a defect. With a tenant on
        // two SMs the whole grid may become resident at once; then every
        // cross-TB wait is resolvable by fairness alone, so the cell is
        // honestly promoted to fair_suffices.
        const bool fair = !tenant || grid <= cfg.num_sms * residency ||
                          t->resident_fair_suffices(regime);
        metas.push_back({kind, t, regime, grid, fair});
      }
    }
  }

  LitmusReport report;
  report.cells.resize(metas.size());

  // Each cell simulates single-threaded into its pre-sized slot, so the
  // report is bit-identical whatever `jobs` is.
  const int total = static_cast<int>(metas.size());
  const auto run_one = [&](int i) {
    const CellMeta& meta = metas[static_cast<std::size_t>(i)];
    LitmusCell& cell = report.cells[static_cast<std::size_t>(i)];
    cell.scheduler = meta.kind;
    cell.litmus = meta.test->name;
    cell.regime = meta.regime;
    cell.grid = meta.grid;
    cell.fair_suffices = meta.fair_suffices;

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
        // The checkers read the litmus kernel's registers; splice the
        // foreground stream's image into the result view (regs/block
        // geometry already comes from stream 0).
        GpuResult view = std::move(result.value());
        view.registers = gpu.stream_registers(0);
        cell.detect_cycle = view.cycles;
        cell.detail = meta.test->check(view, meta.grid);
        cell.verdict =
            cell.detail.empty() ? Verdict::kPass : Verdict::kWrongResult;
      } else {
        cell.detect_cycle = result.error().cycle;
        cell.detail = result.error().message;
        cell.verdict = classify_sim_error(result.error());
      }
    } catch (const SimException& e) {
      cell.detect_cycle = e.error().cycle;
      cell.detail = e.error().message;
      cell.verdict = classify_sim_error(e.error());
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

LitmusReport run_litmus_bg(const LitmusOptions& options) {
  return run_concurrent(
      options, options.admission.empty() ? "tb_interleaved" : options.admission,
      /*tenant=*/true);
}

LitmusReport run_litmus_preemptive(const LitmusOptions& options) {
  return run_concurrent(
      options, options.admission.empty() ? "preemptive_slo" : options.admission,
      /*tenant=*/false);
}

}  // namespace prosim::litmus
