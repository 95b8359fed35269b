#include "serving/serving.hpp"

#include <algorithm>
#include <cstdio>
#include <exception>
#include <sstream>
#include <utility>

#include "common/build_info.hpp"
#include "common/check.hpp"
#include "common/json.hpp"
#include "common/percentiles.hpp"
#include "common/stats.hpp"
#include "gpu/gpu.hpp"
#include "kernels/registry.hpp"
#include "runner/runner.hpp"

namespace prosim::serving {

namespace {

/// Shortest round-trippable decimal: slowdowns and fairness indices are
/// derived quantities, 9 significant digits pin them well past any
/// meaningful difference while keeping the bytes deterministic.
std::string fmt_double(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.9g", v);
  return buf;
}

/// Builds the launch list for `reqs` (fresh functional memory per request:
/// co-resident kernels interfere only through the shared timing model,
/// never through data) and runs it on the concurrent-kernel GPU.
/// `deadlines[i]` becomes request i's TenantSpec relative deadline.
Expected<GpuResult> run_requests(const std::vector<Request>& reqs,
                                 const GpuConfig& config,
                                 const std::string& admission,
                                 const std::vector<Cycle>& deadlines,
                                 ObservabilitySession* obs = nullptr) {
  std::vector<GlobalMemory> memories(reqs.size());
  std::vector<KernelLaunch> launches;
  launches.reserve(reqs.size());
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    const Request& req = reqs[i];
    const Workload& w = find_workload(req.kernel);
    w.init(memories[i]);
    KernelLaunch launch;
    launch.kernel_id = req.id;
    launch.name = req.kernel;
    launch.program = w.program;
    launch.memory = &memories[i];
    launch.arrival = req.arrival;
    launch.tenant.deadline_cycles = deadlines[i];
    launches.push_back(std::move(launch));
  }
  Gpu gpu(config, std::move(launches), admission);
  if (obs != nullptr) obs->attach(gpu);
  return gpu.run_checked();
}

/// Closed-loop load generation: request m's arrival is gated on the
/// (m - concurrency)-th completion of a deterministic prefix simulation
/// of requests 0..m-1, plus the open-loop trace's inter-arrival gap as
/// think time. Arrivals are clamped non-decreasing (a KernelLaunch
/// invariant). The generator is exact for the prefix it simulated and a
/// deterministic approximation thereafter (later requests can delay the
/// gating completion in the final run); either way the derived trace —
/// and thus the whole cell — is bit-identical across jobs/thread counts.
std::vector<Request> closed_loop_trace(const std::vector<Request>& trace,
                                       const GpuConfig& config,
                                       const std::string& admission,
                                       const std::vector<Cycle>& deadlines,
                                       int concurrency,
                                       std::optional<SimError>& error) {
  std::vector<Request> reqs = trace;
  const int n = static_cast<int>(reqs.size());
  const int conc = std::max(concurrency, 1);
  for (int m = 0; m < n && m < conc; ++m) reqs[m].arrival = 0;
  for (int m = conc; m < n; ++m) {
    const Cycle think =
        trace[static_cast<std::size_t>(m)].arrival -
        trace[static_cast<std::size_t>(m) - 1].arrival;
    const std::vector<Request> prefix(reqs.begin(), reqs.begin() + m);
    const std::vector<Cycle> prefix_deadlines(deadlines.begin(),
                                              deadlines.begin() + m);
    Expected<GpuResult> r =
        run_requests(prefix, config, admission, prefix_deadlines);
    if (!r.has_value()) {
      error = std::move(r.error());
      return reqs;
    }
    std::vector<Cycle> completions;
    completions.reserve(r.value().kernel_slices.size());
    for (const KernelSlice& s : r.value().kernel_slices) {
      completions.push_back(s.finished ? s.finish : r.value().cycles);
    }
    std::sort(completions.begin(), completions.end());
    const Cycle gate = completions[static_cast<std::size_t>(m - conc)];
    reqs[static_cast<std::size_t>(m)].arrival =
        std::max(reqs[static_cast<std::size_t>(m) - 1].arrival, gate + think);
  }
  return reqs;
}

/// The machine of every cell under `scheduler`, and of its isolated
/// baselines.
GpuConfig cell_config(const ServingOptions& options, SchedulerKind scheduler,
                      std::size_t trace_size) {
  GpuConfig config = options.base;
  config.scheduler.kind = scheduler;
  // An open-loop trace can park a whole backlog behind one kernel, so a
  // warp legitimately waits at its barrier while every other request
  // drains through the shared L2/DRAM — scale the barrier watchdog with
  // trace depth. The zero-issue and starvation rules keep their usual
  // pace, so genuine wedges are still caught quickly.
  config.watchdog.barrier_timeout *=
      std::max<Cycle>(1, static_cast<Cycle>(trace_size));
  return config;
}

/// One kernel's isolated makespan under one scheduler: same machine, no
/// co-tenants, so the slowdown denominator isolates the cost of sharing,
/// not the cost of the scheduler itself. A baseline that threw keeps its
/// exception for the cell that reads it.
struct Baseline {
  SchedulerKind scheduler;
  std::string kernel;
  Cycle cycles = 0;
  std::exception_ptr error;
};

ServingCell simulate_cell(const std::vector<Request>& trace,
                          SchedulerKind scheduler,
                          const std::string& admission,
                          const ServingOptions& options,
                          const std::vector<Baseline>& baselines) {
  ServingCell cell;
  cell.scheduler = scheduler_name(scheduler);
  cell.admission = admission;
  const GpuConfig config = cell_config(options, scheduler, trace.size());

  // Per-tenant relative deadline: slo_factor × the kernel's isolated
  // makespan under this cell's scheduler. Computed for every admission so
  // the attainment column is comparable across policies; only the
  // preemptive policy also *acts* on it (EDF focus order).
  const auto isolated_of = [&](const std::string& kernel) {
    const auto b = std::find_if(
        baselines.begin(), baselines.end(), [&](const Baseline& x) {
          return x.scheduler == scheduler && x.kernel == kernel;
        });
    PROSIM_CHECK(b != baselines.end());
    if (b->error) std::rethrow_exception(b->error);
    return b->cycles;
  };
  std::vector<Cycle> deadlines(trace.size(), 0);
  for (std::size_t i = 0; i < trace.size(); ++i) {
    if (options.slo_factor > 0.0) {
      deadlines[i] = static_cast<Cycle>(
          options.slo_factor * static_cast<double>(isolated_of(trace[i].kernel)));
    }
  }

  std::vector<Request> reqs = trace;
  if (options.closed_loop) {
    reqs = closed_loop_trace(trace, config, admission, deadlines,
                             options.concurrency, cell.error);
    if (!cell.ok()) return cell;
  }

  // Observability attaches only to the final serving simulation, never
  // the closed-loop prefix sims above.
  const bool multi_cell =
      options.schedulers.size() * options.admissions.size() > 1;
  ObservabilitySession obs(
      multi_cell ? options.obs.for_cell(cell.scheduler + "." + cell.admission)
                 : options.obs);

  Expected<GpuResult> result =
      run_requests(reqs, config, admission, deadlines, &obs);
  if (!result.has_value()) {
    cell.error = std::move(result.error());
    return cell;
  }
  std::vector<std::string> kernel_names;
  for (const Request& req : reqs) kernel_names.push_back(req.kernel);
  obs.write(kernel_names, cell.write_error);
  const GpuResult& r = result.value();
  cell.makespan = r.cycles;
  PROSIM_CHECK(r.kernel_slices.size() == reqs.size());

  for (const Request& req : reqs) {
    const KernelSlice& slice = r.kernel_slices[static_cast<std::size_t>(req.id)];
    RequestMetrics m;
    m.id = req.id;
    m.kernel = req.kernel;
    m.arrival = req.arrival;
    m.queueing = slice.queueing_latency();
    m.completion = slice.completion_latency();
    m.slo_met = slice.slo_met();
    cell.requests.push_back(std::move(m));
  }

  // Tenants = distinct kernels, in trace first-appearance order.
  std::vector<std::string> kernels;
  for (const Request& req : reqs) {
    bool seen = false;
    for (const std::string& k : kernels) seen = seen || k == req.kernel;
    if (!seen) kernels.push_back(req.kernel);
  }
  std::vector<double> slowdowns;
  for (const std::string& kernel : kernels) {
    TenantMetrics t;
    t.kernel = kernel;
    t.isolated_cycles = isolated_of(kernel);
    if (options.slo_factor > 0.0) {
      t.deadline_cycles = static_cast<Cycle>(
          options.slo_factor * static_cast<double>(t.isolated_cycles));
    }
    std::vector<std::uint64_t> queue;
    std::vector<std::uint64_t> completion;
    std::vector<double> ratios;
    int met = 0;
    for (const RequestMetrics& m : cell.requests) {
      if (m.kernel != kernel) continue;
      queue.push_back(m.queueing);
      completion.push_back(m.completion);
      ratios.push_back(static_cast<double>(m.completion) /
                       static_cast<double>(t.isolated_cycles));
      if (m.slo_met) ++met;
    }
    for (const Request& req : reqs) {
      if (req.kernel != kernel) continue;
      const KernelSlice& slice =
          r.kernel_slices[static_cast<std::size_t>(req.id)];
      t.demotions += slice.demotions;
      t.resumptions += slice.resumptions;
      t.preempted_cycles += slice.preempted_cycles;
    }
    t.requests = static_cast<int>(queue.size());
    t.slo_attainment = t.requests == 0
                           ? 1.0
                           : static_cast<double>(met) /
                                 static_cast<double>(t.requests);
    const Percentiles q(std::move(queue));
    const Percentiles c(std::move(completion));
    t.queue_p50 = q.p50();
    t.queue_p95 = q.p95();
    t.queue_p99 = q.p99();
    t.completion_p50 = c.p50();
    t.completion_p95 = c.p95();
    t.completion_p99 = c.p99();
    t.slowdown = geomean(ratios);
    slowdowns.push_back(t.slowdown);
    cell.tenants.push_back(std::move(t));
  }

  // Jain's fairness index over tenant slowdowns.
  double sum = 0.0, sum_sq = 0.0;
  for (const double s : slowdowns) {
    sum += s;
    sum_sq += s * s;
  }
  cell.jain_fairness =
      sum_sq == 0.0
          ? 1.0
          : (sum * sum) / (static_cast<double>(slowdowns.size()) * sum_sq);
  return cell;
}

}  // namespace

ServingReport run_serving(const ServingOptions& options) {
  PROSIM_CHECK_MSG(!options.schedulers.empty(),
                   "run_serving needs at least one scheduler");
  PROSIM_CHECK_MSG(!options.admissions.empty(),
                   "run_serving needs at least one admission policy");
  for (const std::string& a : options.admissions) {
    PROSIM_CHECK_MSG(find_admission(a) != nullptr, a.c_str());
  }
  ServingReport report;
  report.trace = generate_trace(options.trace);

  struct CellSpec {
    SchedulerKind scheduler;
    std::string admission;
  };
  std::vector<CellSpec> specs;
  for (const SchedulerKind s : options.schedulers) {
    for (const std::string& a : options.admissions) specs.push_back({s, a});
  }
  report.cells.resize(specs.size());

  // Every cell under one scheduler reads the same isolated baselines, so
  // each (scheduler, kernel) pair is simulated once, before the cells.
  std::vector<Baseline> baselines;
  for (const SchedulerKind s : options.schedulers) {
    for (const Request& req : report.trace) {
      bool seen = false;
      for (const Baseline& b : baselines) {
        seen = seen || (b.scheduler == s && b.kernel == req.kernel);
      }
      if (!seen) baselines.push_back({s, req.kernel, 0, nullptr});
    }
  }
  runner::run_cells(
      static_cast<int>(baselines.size()), options.jobs, [&](int i) {
        Baseline& b = baselines[static_cast<std::size_t>(i)];
        try {
          b.cycles = runner::memoized_run(
                         find_workload(b.kernel),
                         cell_config(options, b.scheduler, report.trace.size()))
                         .cycles;
        } catch (...) {
          b.error = std::current_exception();
        }
      });

  const int total = static_cast<int>(specs.size());
  const auto run_one = [&](int i) {
    const CellSpec& spec = specs[static_cast<std::size_t>(i)];
    report.cells[static_cast<std::size_t>(i)] = simulate_cell(
        report.trace, spec.scheduler, spec.admission, options, baselines);
  };
  const auto on_done = [&](int i, int completed) {
    const ServingCell* cell = &report.cells[static_cast<std::size_t>(i)];
    if (options.progress) options.progress({completed, total, cell});
  };
  runner::run_cells(total, options.jobs, run_one, on_done);

  for (const ServingCell& cell : report.cells) {
    if (!cell.ok()) ++report.failures;
  }
  return report;
}

std::string serving_report_to_json(const ServingReport& report,
                                   const TraceSpec& spec) {
  std::ostringstream os;
  os << "{\"schema\":\"prosim-serve-v2\"";
  // Build provenance rides at the top level, outside every fingerprinted
  // or cross-run-compared block: one binary stamps one constant value, so
  // the determinism byte-diffs (e.g. --jobs 4 vs 1 in CI) still hold.
  os << ",\"build\":";
  write_build_info_json(os);
  os << ",\"spec\":{\"seed\":" << spec.seed
     << ",\"requests\":" << spec.requests
     << ",\"gap_scale\":" << spec.gap_scale << ",\"mix\":[";
  for (std::size_t i = 0; i < spec.mix.size(); ++i) {
    if (i > 0) os << ',';
    write_json_string(os, spec.mix[i]);
  }
  os << "]}";
  os << ",\"trace\":[";
  for (std::size_t i = 0; i < report.trace.size(); ++i) {
    const Request& r = report.trace[i];
    if (i > 0) os << ',';
    os << "{\"id\":" << r.id << ",\"kernel\":";
    write_json_string(os, r.kernel);
    os << ",\"arrival\":" << r.arrival << '}';
  }
  os << "],\"cells\":[";
  for (std::size_t i = 0; i < report.cells.size(); ++i) {
    const ServingCell& cell = report.cells[i];
    if (i > 0) os << ',';
    os << "{\"scheduler\":";
    write_json_string(os, cell.scheduler);
    os << ",\"admission\":";
    write_json_string(os, cell.admission);
    os << ",\"ok\":" << (cell.ok() ? "true" : "false");
    if (!cell.ok()) {
      os << ",\"error\":{\"category\":\"" << to_string(cell.error->category)
         << "\",\"message\":";
      write_json_string(os, cell.error->message);
      os << '}';
    } else {
      os << ",\"makespan\":" << cell.makespan;
      os << ",\"jain_fairness\":" << fmt_double(cell.jain_fairness);
      os << ",\"tenants\":[";
      for (std::size_t t = 0; t < cell.tenants.size(); ++t) {
        const TenantMetrics& tm = cell.tenants[t];
        if (t > 0) os << ',';
        os << "{\"kernel\":";
        write_json_string(os, tm.kernel);
        os << ",\"requests\":" << tm.requests
           << ",\"isolated_cycles\":" << tm.isolated_cycles
           << ",\"deadline_cycles\":" << tm.deadline_cycles
           << ",\"slo_attainment\":" << fmt_double(tm.slo_attainment)
           << ",\"demotions\":" << tm.demotions
           << ",\"resumptions\":" << tm.resumptions
           << ",\"preempted_cycles\":" << tm.preempted_cycles
           << ",\"queue_p50\":" << tm.queue_p50
           << ",\"queue_p95\":" << tm.queue_p95
           << ",\"queue_p99\":" << tm.queue_p99
           << ",\"completion_p50\":" << tm.completion_p50
           << ",\"completion_p95\":" << tm.completion_p95
           << ",\"completion_p99\":" << tm.completion_p99
           << ",\"slowdown\":" << fmt_double(tm.slowdown) << '}';
      }
      os << "],\"requests\":[";
      for (std::size_t r = 0; r < cell.requests.size(); ++r) {
        const RequestMetrics& m = cell.requests[r];
        if (r > 0) os << ',';
        os << "{\"id\":" << m.id << ",\"arrival\":" << m.arrival
           << ",\"queueing\":" << m.queueing
           << ",\"completion\":" << m.completion
           << ",\"slo_met\":" << (m.slo_met ? "true" : "false") << '}';
      }
      os << ']';
    }
    os << '}';
  }
  os << "]}";
  return os.str();
}

}  // namespace prosim::serving
