// The observability plane's products and its one session
// (docs/OBSERVABILITY.md).
//
// Pay-for-use observers over one simulation, all strictly observational
// (results, cache bytes and fingerprints are bit-identical with them on
// or off):
//
//   * MetricsCollector — samples per-SM / per-kernel / GPU-wide series
//     (IPC, occupancy, runnable warps, stall-cause shares, MSHR/DRAM/
//     interconnect load, PRO progress spread) every `interval` cycles into
//     a MetricsRegistry, exported as long-format CSV or a forward-
//     compatible `prosim-metrics-v1` JSON document. Stall-cause shares are
//     deltas of the SMs' cumulative SmStats::cause_cycles, so summing any
//     series over all intervals reproduces the run totals bit-exactly.
//
//   * EventJournal — a TraceSink recording the serving lifecycle
//     (SimEvent: kernel arrival, admission grant, SM rebind, TB
//     launch/resume, yield request, checkpoint, demotion, kernel finish,
//     SLO met/missed) as structured JSONL, plus a kernel-level Perfetto
//     track view (pid = kernel, tid = SM) derived from the sm_bind spans.
//
//   * ObservabilitySession — owns these and the trace/ sinks (warp lanes,
//     wait windows) selected by one ObservabilityOptions, one output path
//     per product, attaches them to a Gpu and writes every product.
//
//   * SimProfile (gpu_result.hpp) — simulator self-profiling; filled by
//     the Gpu, never serialized into canonical results.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <ostream>
#include <string>
#include <tuple>
#include <vector>

#include "common/types.hpp"
#include "trace/csv_sink.hpp"
#include "trace/warp_lane_trace.hpp"

namespace prosim {

class ArgParser;
class Gpu;

/// Which entity a sample describes. Serialized as "gpu" / "sm" / "kernel".
enum class MetricScope : std::uint8_t { kGpu = 0, kSm, kKernel };

const char* metric_scope_name(MetricScope scope);

/// One point of one series: at `cycle`, entity (`scope`, `id`) had
/// `metric` = `value`. Counter series record per-interval deltas; gauge
/// series record instantaneous values. `id` is the SM index or kernel id
/// (0 for kGpu).
struct MetricSample {
  Cycle cycle = 0;
  MetricScope scope = MetricScope::kGpu;
  int id = 0;
  std::string metric;
  double value = 0.0;
};

/// Append-only store of sampled points, in sampling order.
class MetricsRegistry {
 public:
  void record(Cycle cycle, MetricScope scope, int id, std::string metric,
              double value) {
    samples_.push_back(
        {cycle, scope, id, std::move(metric), value});
  }

  const std::vector<MetricSample>& samples() const { return samples_; }

  /// Long-format CSV: `cycle,scope,id,metric,value` (one header line).
  void write_csv(std::ostream& os) const;
  /// `prosim-metrics-v1`: {"schema", "interval", "samples":[...]}. Readers
  /// must ignore unknown members (forward compatibility).
  void write_json(std::ostream& os, Cycle interval) const;

 private:
  std::vector<MetricSample> samples_;
};

/// Sampling driver owned by the caller and attached via Gpu::set_metrics.
/// The Gpu reads the interval schedule and records samples at every
/// interval boundary (plus one final partial sample at simulation end, so
/// counter deltas telescope exactly to the run totals).
class MetricsCollector {
 public:
  /// `interval` must be >= 1 (cycles between samples).
  explicit MetricsCollector(Cycle interval);

  Cycle interval() const { return interval_; }
  /// Next cycle at which a sample is due (the GPU's clock never jumps past
  /// it; skipping fewer cycles is provably bit-identical).
  Cycle next_sample_cycle() const { return next_; }
  Cycle last_sample_cycle() const { return last_; }
  /// Registers that a sample was taken at `cycle` and schedules the next
  /// boundary strictly after it.
  void mark_sampled(Cycle cycle);

  MetricsRegistry& registry() { return registry_; }
  const MetricsRegistry& registry() const { return registry_; }

  /// Delta of a cumulative counter since this series' previous sample
  /// (first call returns the cumulative value itself). Deltas telescope:
  /// their sum over all samples equals the final cumulative value.
  std::uint64_t delta(MetricScope scope, int id, const char* metric,
                      std::uint64_t cumulative);

 private:
  Cycle interval_;
  Cycle next_;
  Cycle last_ = 0;
  MetricsRegistry registry_;
  std::map<std::tuple<int, int, std::string>, std::uint64_t> last_values_;
};

/// Append-only journal of the Gpu's lifecycle events: a TraceSink that
/// consumes only on_sim_event, so the SMs never dispatch to it.
class EventJournal final : public TraceSink {
 public:
  bool wants_sm_events() const override { return false; }
  bool wants_warp_states() const override { return false; }
  void on_sim_event(const SimEvent& event) override {
    events_.push_back(event);
  }

  const std::vector<SimEvent>& events() const { return events_; }
  std::size_t count(SimEventKind kind) const;

  /// One JSON object per line, fields at -1 / 0 omitted:
  /// {"cycle":N,"event":"tb_launch","kernel":0,"sm":1,"tb":5}.
  void write_jsonl(std::ostream& os) const;

  /// Kernel-timeline view of the Trace Event writer
  /// (trace/trace_event_writer.hpp), derived from the sm_bind spans:
  /// pid = kernel (process-named from `kernel_names`), tid = SM, one
  /// slice per binding span, with instant markers for checkpoints,
  /// resumes, yield requests, finishes and SLO verdicts.
  void write_kernel_timeline(std::ostream& os,
                             const std::vector<std::string>& kernel_names)
      const;

 private:
  std::vector<SimEvent> events_;
};

/// Which observability products one run collects: a product is collected
/// exactly when its path is set (metrics also need an interval).
/// Everything is off by default; the CLIs fill the paths from
/// add_observability_flags.
struct ObservabilityOptions {
  std::string warp_lanes;       ///< --warp-lanes FILE (Chrome trace)
  /// --windows FILE: barrier/finish wait-window CSV, plus its histogram
  /// at suffixed_path(windows, "hist").
  std::string windows;
  Cycle metrics_interval = 0;   ///< 0 = sampling off
  std::string metrics_csv;      ///< --metrics FILE
  std::string metrics_json;     ///< --metrics-json FILE
  std::string events_jsonl;     ///< --events FILE
  std::string kernel_timeline;  ///< --kernel-timeline FILE

  bool metrics_enabled() const { return metrics_interval > 0; }
  bool journal_enabled() const {
    return !events_jsonl.empty() || !kernel_timeline.empty();
  }
  /// True when any output path is set (for_cell suffixes each one).
  bool has_output_path() const {
    return !warp_lanes.empty() || !windows.empty() || !metrics_csv.empty() ||
           !metrics_json.empty() || journal_enabled();
  }

  /// Copy with every output path suffixed for one cell of a multi-cell
  /// run: "dir/serve.jsonl" + "gto.preemptive_slo" →
  /// "dir/serve.gto.preemptive_slo.jsonl" (suffix lands before the final
  /// extension; appended when there is none).
  ObservabilityOptions for_cell(const std::string& key) const;
};

/// Inserts `.key` before `path`'s final extension (see
/// ObservabilityOptions::for_cell).
std::string suffixed_path(const std::string& path, const std::string& key);

/// The CLIs' shared observability flags: --metrics-interval (into
/// `interval`, validated by check_observability_flags), --warp-lanes,
/// --windows, --metrics, --metrics-json, --events and --kernel-timeline
/// (into `options`).
void add_observability_flags(ArgParser& parser, ObservabilityOptions& options,
                             std::int64_t& interval);

/// Validates the flags of add_observability_flags and stores the interval
/// in `options`. On misuse prints the reason on stderr and returns false
/// (the CLIs exit 2).
bool check_observability_flags(const ArgParser& parser, std::int64_t interval,
                               ObservabilityOptions& options);

/// Prints the `write_error` of every cell (sweep, serving or litmus) that
/// has one on `os`; true when any does (the multi-cell CLIs exit 1).
template <typename Cells>
bool print_write_errors(std::ostream& os, const Cells& cells) {
  bool failed = false;
  for (const auto& cell : cells) {
    if (cell.write_error.empty()) continue;
    os << cell.write_error << '\n';
    failed = true;
  }
  return failed;
}

/// Owns the observers selected by ObservabilityOptions, attaches them to
/// a Gpu and writes their products. Accessors return nullptr for products
/// that were not requested (pay-for-use: a session with nothing requested
/// attaches nothing, and a metrics + journal session attaches no SM sink).
class ObservabilitySession {
 public:
  explicit ObservabilitySession(const ObservabilityOptions& options);

  /// Attaches every requested observer to `gpu`; call before its first
  /// step(). Defined in gpu.cpp, next to simulate(): the Gpu library
  /// links this one.
  void attach(Gpu& gpu);

  MetricsCollector* metrics() { return metrics_.get(); }
  EventJournal* journal() { return journal_.get(); }
  const WarpLaneTraceSink* warp_lanes() const { return warp_lanes_.get(); }
  const WindowCsvSink* windows() const { return windows_.get(); }

  /// Writes every requested product to its path in the options, as given
  /// (`kernel_names` labels the kernel timeline's process tracks). Returns
  /// false and fills `error` with the failing path on the first failure.
  bool write(const std::vector<std::string>& kernel_names,
             std::string& error) const;

 private:
  ObservabilityOptions options_;
  std::unique_ptr<WarpLaneTraceSink> warp_lanes_;
  std::unique_ptr<WindowCsvSink> windows_;
  std::unique_ptr<MetricsCollector> metrics_;
  std::unique_ptr<EventJournal> journal_;
};

}  // namespace prosim
