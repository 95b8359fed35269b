// Multi-tenant serving harness (docs/SERVING.md): replays one deterministic
// arrival trace (serving/arrival.hpp) against every requested
// scheduler × admission-policy combination on the concurrent-kernel GPU
// (gpu/gpu.hpp multi-stream constructor) and reports per-tenant tail
// latency, slowdown versus isolated execution, and Jain's fairness index.
//
// Determinism contract: cells run on the runner's cell pool
// (runner::run_cells, shared with run_sweep); each simulates
// single-threaded on its own fresh GlobalMemory images into its own slot,
// so the full report is bit-identical whatever `jobs` is.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "common/sim_error.hpp"
#include "gpu/admission.hpp"
#include "gpu/gpu_config.hpp"
#include "metrics/metrics.hpp"
#include "serving/arrival.hpp"

namespace prosim::serving {

/// Latency accounting for one request of a cell, in cycles.
struct RequestMetrics {
  int id = 0;
  std::string kernel;
  /// Effective arrival: the trace arrival open-loop, the completion-gated
  /// arrival closed-loop (per cell — completions differ per cell).
  Cycle arrival = 0;
  Cycle queueing = 0;    ///< arrival → first TB launch
  Cycle completion = 0;  ///< arrival → last TB drained
  /// Completed within the tenant's relative deadline (slo_factor ×
  /// isolated cycles).
  bool slo_met = true;
};

/// One tenant = one distinct kernel of the mix (all its requests).
struct TenantMetrics {
  std::string kernel;
  int requests = 0;
  /// Makespan of the kernel running alone under the cell's scheduler
  /// (simulated once per scheduler and kernel by run_serving, through
  /// runner::memoized_run), the slowdown denominator.
  Cycle isolated_cycles = 0;
  /// Relative deadline handed to each request of this tenant
  /// (slo_factor × isolated_cycles).
  Cycle deadline_cycles = 0;
  std::uint64_t queue_p50 = 0, queue_p95 = 0, queue_p99 = 0;
  std::uint64_t completion_p50 = 0, completion_p95 = 0, completion_p99 = 0;
  /// Geomean over this tenant's requests of completion / isolated.
  double slowdown = 0.0;
  /// Fraction of this tenant's requests with completion <= deadline.
  double slo_attainment = 1.0;
  /// Preemption counters summed over this tenant's requests (nonzero only
  /// under a preemptive admission policy).
  std::uint64_t demotions = 0;
  std::uint64_t resumptions = 0;
  std::uint64_t preempted_cycles = 0;
};

struct ServingCell {
  std::string scheduler;
  std::string admission = "fifo_exclusive";  ///< admission-registry name
  std::optional<SimError> error;  ///< set iff the cell failed
  /// The failing path when an observability product could not be written.
  std::string write_error;
  Cycle makespan = 0;
  /// Jain's index over tenant slowdowns: 1 = perfectly fair, 1/n = one
  /// tenant got everything.
  double jain_fairness = 0.0;
  std::vector<TenantMetrics> tenants;  ///< mix first-appearance order
  std::vector<RequestMetrics> requests;

  bool ok() const { return !error.has_value(); }
};

struct ServingProgress {
  int completed = 0;
  int total = 0;
  const ServingCell* cell = nullptr;
};

struct ServingOptions {
  TraceSpec trace;
  /// Base GPU configuration; the scheduler field is overwritten per cell.
  GpuConfig base;
  std::vector<SchedulerKind> schedulers;
  /// Admission-registry names (gpu/admission.hpp); run_serving aborts on an
  /// unknown name, mirroring the scheduler list.
  std::vector<std::string> admissions;
  /// Closed-loop load generation: instead of replaying the trace arrivals
  /// verbatim, keep `concurrency` requests in flight — request m arrives
  /// when the (m - concurrency)-th completion lands plus the trace's
  /// inter-arrival gap as think time. Arrivals are derived per cell by
  /// deterministic prefix simulation, so the report stays bit-identical
  /// whatever `jobs` is.
  bool closed_loop = false;
  int concurrency = 4;
  /// Relative deadline per tenant = slo_factor × isolated cycles; drives
  /// both the preemptive_slo policy's EDF order and the reported
  /// SLO-attainment column.
  double slo_factor = 4.0;
  /// Worker threads over cells; <= 0 picks the hardware concurrency.
  int jobs = 1;
  /// Invoked after every cell completes, serialized by runner::run_cells;
  /// `completed` reads 1, 2, ..., total in delivery order.
  std::function<void(const ServingProgress&)> progress;
  /// Metrics/journal products per cell, attached only to the cell's final
  /// serving simulation (closed-loop prefix simulations stay unobserved).
  /// With more than one cell, output paths get a
  /// "<scheduler>.<admission>" suffix (ObservabilityOptions::for_cell).
  /// Strictly observational: the report bytes are identical on or off.
  ObservabilityOptions obs;
};

struct ServingReport {
  std::vector<Request> trace;
  /// scheduler-major × admission-minor, matching the options' lists.
  std::vector<ServingCell> cells;
  std::uint64_t failures = 0;
};

ServingReport run_serving(const ServingOptions& options);

/// Serializes a report as the `prosim-serve-v2` JSON document (spec echo,
/// trace, and every cell's tenant/request metrics — v2 adds per-request
/// arrivals/SLO verdicts and per-tenant deadline, attainment, and
/// preemption counters). Deterministic bytes for a deterministic report.
std::string serving_report_to_json(const ServingReport& report,
                                   const TraceSpec& spec);

}  // namespace prosim::serving
