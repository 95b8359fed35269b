// Forward-progress litmus harness (docs/ROBUSTNESS.md).
//
// A litmus test is a small synchronizing kernel whose *termination* depends
// on the warp scheduler giving every resident warp a chance to issue:
// spin-lock handoffs inside one TB, producer/consumer flags across TBs,
// ticket locks, a flat TB-count barrier, and a CAS mutex — each
// parameterized over two occupancy regimes (everything resident vs. grid
// oversubscribing the SM). The harness runs every registered scheduler
// through every (litmus x regime) cell under a deterministic per-warp
// starvation watchdog and classifies each scheduler into a progress model:
//
//  - terminates:           every cell terminates, even oversubscribed
//                          cross-TB waits (no real GPU scheduler can — a
//                          non-resident TB cannot run — so this class is
//                          attainable only by preemptive designs);
//  - occupancy_bound_fair: every cell where fairness among *resident*
//                          warps suffices terminates; cells that need a
//                          non-resident TB hang (the hardware norm);
//  - unfair_livelocks:     at least one cell that a fair scheduler would
//                          finish instead starves or livelocks (e.g.
//                          Two-Level parking a flag producer in the
//                          pending set forever).
//
// One matrix, two axes: the tenant (the litmus kernel alone on one SM, or
// beside a streaming background kernel on two SMs) and the admission
// policy the kernels run under (fifo_exclusive alone, tb_interleaved with
// the tenant, unless LitmusOptions::admission names another).
//
// Verdicts are bit-deterministic: every hang is detected at an identical
// cycle whatever --jobs is and whether event-driven fast-forward is on
// (watchdog checks run at window boundaries the fast-forward path never
// skips; the max_cycles backstop trips at exactly max_cycles).
#pragma once

#include <functional>
#include <iosfwd>
#include <string>
#include <vector>

#include "gpu/gpu_config.hpp"
#include "gpu/gpu_result.hpp"
#include "isa/program.hpp"
#include "metrics/metrics.hpp"

namespace prosim::litmus {

/// Occupancy regime a litmus cell runs under.
enum class Regime {
  kResident,        ///< whole grid fits the SM's residency limit
  kOversubscribed,  ///< grid exceeds residency: TBs launch in waves
};
const char* regime_name(Regime regime);

/// One forward-progress litmus kernel, parameterized over the grid size.
struct LitmusTest {
  std::string name;
  std::string description;
  int block_dim = 32;
  /// Builds the program for a `grid`-TB launch.
  std::function<Program(int grid)> build;
  /// Grid size for a regime given this kernel's per-SM residency limit.
  std::function<int(Regime, int residency)> grid_for;
  /// True when termination in this regime only requires fairness among
  /// *resident* warps — i.e. any fair scheduler must finish the cell.
  /// False marks cells whose completion needs a TB that cannot become
  /// resident (every non-preemptive scheduler is expected to hang).
  std::function<bool(Regime)> resident_fair_suffices;
  /// Validates the final per-thread registers of a terminated run
  /// (record_registers layout); returns "" on success, else a diagnosis.
  std::function<std::string(const GpuResult&, int grid)> check;
};

/// The litmus suite, in canonical order.
const std::vector<LitmusTest>& litmus_suite();

/// Lookup by name, or nullptr if unknown.
const LitmusTest* find_litmus(const std::string& name);

/// Per-cell outcome.
enum class Verdict {
  kPass,         ///< terminated and the correctness checker is satisfied
  kWrongResult,  ///< terminated but the checker found a violation
  kStarvation,   ///< the per-warp issue-gap watchdog rule fired
  kHang,         ///< deadlock/livelock/barrier watchdog or max_cycles
  kError,        ///< any other structured SimError
};
const char* verdict_name(Verdict verdict);

/// Scheduler-level classification (see file header).
enum class ProgressModel {
  kTerminates,
  kOccupancyBoundFair,
  kUnfairLivelocks,
};
const char* progress_model_name(ProgressModel model);

/// One (scheduler x litmus x regime) cell of the certification matrix.
struct LitmusCell {
  SchedulerKind scheduler = SchedulerKind::kLrr;
  std::string litmus;
  Regime regime = Regime::kResident;
  int grid = 0;
  /// Whether a fair scheduler is required to finish this cell.
  bool fair_suffices = true;
  Verdict verdict = Verdict::kError;
  /// Completion cycle for kPass/kWrongResult; detection cycle otherwise.
  /// Deterministic across --jobs and fast-forward on/off.
  Cycle detect_cycle = 0;
  std::string detail;  ///< checker diagnosis or SimError message
  /// The failing path when an observability product could not be written.
  std::string write_error;

  /// "pass" cells and expected hangs (fair_suffices == false) certify
  /// correct behavior; anything else is a fairness or simulator defect.
  bool as_expected() const {
    return verdict == Verdict::kPass ||
           (!fair_suffices && verdict == Verdict::kHang);
  }
};

struct SchedulerSummary {
  SchedulerKind scheduler = SchedulerKind::kLrr;
  ProgressModel model = ProgressModel::kTerminates;
  int passes = 0;
  int expected_hangs = 0;  ///< hangs on cells where fairness cannot help
  int unfair_cells = 0;    ///< starved/hung cells a fair scheduler finishes
  int broken_cells = 0;    ///< wrong_result / unclassified errors
};

struct LitmusReport {
  std::vector<LitmusCell> cells;  ///< scheduler-major, suite order
  std::vector<SchedulerSummary> schedulers;
};

struct LitmusOptions {
  /// Worker threads for the cell pool; <= 0 picks hardware concurrency.
  int jobs = 1;
  /// Schedulers to certify; empty = the whole registry.
  std::vector<SchedulerKind> schedulers;
  /// Litmus names to run; empty = the whole suite.
  std::vector<std::string> tests;
  /// Admission-policy name every cell runs under; empty picks the
  /// harness's default ("fifo_exclusive" for run_litmus, "tb_interleaved"
  /// for run_litmus_bg). Under a preemptive policy (preemptive_slo) a TB
  /// can be checkpointed and a queued one rotated in, so termination never
  /// depends on residency and every cell is marked fair_suffices: a hang
  /// is a defect, and a scheduler earns `terminates` only by passing all.
  std::string admission;
  /// Invoked after every cell completes, serialized by the cell pool
  /// (safe to print from): `completed` reads 1, 2, ..., total in delivery
  /// order; `label` is litmus_cell_label() of the cell.
  std::function<void(int completed, int total, const std::string& label)>
      progress;
  /// Metrics/journal products; each cell's output paths get a
  /// "<scheduler>.<litmus>.<regime>" suffix. Verdicts are identical on or
  /// off.
  ObservabilityOptions obs;
};

/// The GpuConfig every litmus cell simulates under: one SM, registers
/// recorded, tight watchdog windows, the per-warp starvation rule armed,
/// and a small max_cycles backstop so hangs resolve quickly.
GpuConfig litmus_config(SchedulerKind kind);

/// The certification matrix: the litmus kernel alone on litmus_config(),
/// under fifo_exclusive unless `options.admission` names another policy.
/// A cell is fair_suffices when the admission is preemptive, the grid fits
/// the GPU at once, or the test says resident fairness suffices in its
/// regime. Cells run on the runner's cell pool (runner::run_cells);
/// reports are bit-identical whatever `jobs` is.
LitmusReport run_litmus(const LitmusOptions& options = {});

/// Background-tenant certification (docs/SERVING.md): the same matrix
/// with a streaming background kernel co-resident on litmus_bg_config(),
/// under tb_interleaved unless `options.admission` names another policy.
/// It asserts that multi-tenancy never demotes a scheduler's progress
/// model silently — any cell a fair scheduler finishes alone must still
/// finish (or be caught by the starvation watchdog) with the tenant
/// present. Grids are sized against the same per-SM residency as the
/// base matrix, so cells line up 1:1; a grid that fits the doubled
/// capacity makes the cell fair_suffices.
LitmusReport run_litmus_bg(const LitmusOptions& options = {});

/// "<SCHED>/<litmus>/<regime>", the progress label of a cell; with sep
/// '.' it is the per-cell suffix for observability output paths.
std::string litmus_cell_label(SchedulerKind kind, const std::string& litmus,
                              Regime regime, char sep = '/');

/// litmus_config() on two SMs (and two memory partitions).
GpuConfig litmus_bg_config(SchedulerKind kind);

/// The background tenant: `grid` small TBs streaming a private global
/// buffer through a fixed-iteration load/increment/store loop — steady
/// memory traffic, no synchronization, guaranteed termination.
Program background_tenant_program(int grid);

/// Schema tag of the JSON verdict matrix below.
inline constexpr const char* kLitmusSchema = "prosim-litmus-v1";

/// Writes the full verdict matrix + per-scheduler progress models.
void write_litmus_json(std::ostream& os, const LitmusReport& report);
std::string litmus_report_to_json(const LitmusReport& report);

}  // namespace prosim::litmus
