// Time-series metrics registry + serving event journal
// (docs/OBSERVABILITY.md, "Metrics & event journal").
//
// Three pay-for-use observers over one simulation, all strictly
// observational (the PR 4 null-sink discipline: results, cache bytes and
// fingerprints are bit-identical with them on or off):
//
//   * MetricsCollector — samples per-SM / per-kernel / GPU-wide series
//     (IPC, occupancy, runnable warps, stall-cause shares, MSHR/DRAM/
//     interconnect load, PRO progress spread) every `interval` cycles into
//     a MetricsRegistry, exported as long-format CSV or a forward-
//     compatible `prosim-metrics-v1` JSON document. Stall-cause shares are
//     cumulative-counter deltas against an embedded StallAttributionSink,
//     so summing any series over all intervals reproduces the legacy
//     totals bit-exactly.
//
//   * EventJournal — the serving lifecycle as structured JSONL (kernel
//     arrival, admission grant, SM rebind, TB launch/resume, yield
//     request, checkpoint, demotion, kernel finish, SLO met/missed), plus
//     a kernel-level Perfetto track view (pid = kernel, tid = SM) derived
//     from the sm_bind spans — the serving-side complement of the PR 4
//     warp-lane view.
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
#include "trace/stall_attribution.hpp"

namespace prosim {

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
/// The Gpu reads the interval schedule, feeds the embedded stall-
/// attribution sink through its trace path, and records samples at every
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

  /// Stall-cause accumulator fed by the Gpu's trace fan-out while the
  /// collector is attached.
  StallAttributionSink& stall_sink() { return stall_sink_; }
  const StallAttributionSink& stall_sink() const { return stall_sink_; }

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
  StallAttributionSink stall_sink_;
  std::map<std::tuple<int, int, std::string>, std::uint64_t> last_values_;
};

/// Serving lifecycle event kinds, in rough lifecycle order.
enum class SimEventKind : std::uint8_t {
  kKernelArrival = 0,  ///< launch entered the GPU-level queue
  kAdmissionGrant,     ///< first TB of the kernel launched
  kSmBind,             ///< SM (re)bound to the kernel
  kTbLaunch,           ///< fresh TB launched (tb = ctaid)
  kTbResume,           ///< parked TB re-launched from a checkpoint
  kYieldRequest,       ///< preemptive yield requested (tb = ctaid)
  kTbCheckpoint,       ///< quiescent TB checkpointed + parked (a demotion)
  kDemotion,           ///< SM rebound away from a kernel with work left
  kKernelFinish,       ///< all of the kernel's TBs drained
  kSloMet,             ///< finished within the tenant deadline (aux = it)
  kSloMissed,          ///< finished past the tenant deadline (aux = it)
  kSimEnd,             ///< simulation completed
};
inline constexpr int kNumSimEventKinds = 12;

const char* sim_event_kind_name(SimEventKind kind);

/// One journal row. Fields not meaningful for a kind stay -1 / 0 and are
/// omitted from the serialized JSONL object.
struct SimEvent {
  Cycle cycle = 0;
  SimEventKind kind = SimEventKind::kSimEnd;
  int kernel = -1;
  int sm = -1;
  int tb = -1;              ///< ctaid where meaningful
  std::uint64_t aux = 0;    ///< kind-specific payload (e.g. SLO deadline)
};

/// Append-only journal of SimEvents, attached via Gpu::set_event_journal.
class EventJournal {
 public:
  void record(Cycle cycle, SimEventKind kind, int kernel = -1, int sm = -1,
              int tb = -1, std::uint64_t aux = 0) {
    events_.push_back({cycle, kind, kernel, sm, tb, aux});
  }

  const std::vector<SimEvent>& events() const { return events_; }
  std::size_t count(SimEventKind kind) const;

  /// One JSON object per line:
  /// {"cycle":N,"event":"tb_launch","kernel":0,"sm":1,"tb":5}.
  void write_jsonl(std::ostream& os) const;

  /// Chrome-trace / Perfetto kernel timeline derived from the sm_bind
  /// spans: pid = kernel (process-named from `kernel_names`), tid = SM,
  /// one "X" slice per binding span, with instant markers for
  /// checkpoints, resumes and SLO misses. ts renders simulated cycles
  /// as microseconds, like the PR 4 warp-lane view.
  void write_kernel_timeline(std::ostream& os,
                             const std::vector<std::string>& kernel_names)
      const;

 private:
  std::vector<SimEvent> events_;
};

/// CLI-facing bundle of the observability flags shared by all four CLIs
/// (--metrics-interval / --metrics / --metrics-json / --events /
/// --kernel-timeline).
struct ObservabilityOptions {
  Cycle metrics_interval = 0;   ///< 0 = sampling off
  std::string metrics_csv;      ///< --metrics FILE
  std::string metrics_json;     ///< --metrics-json FILE
  std::string events_jsonl;     ///< --events FILE
  std::string kernel_timeline;  ///< --kernel-timeline FILE

  bool metrics_enabled() const { return metrics_interval > 0; }
  bool journal_enabled() const {
    return !events_jsonl.empty() || !kernel_timeline.empty();
  }
  bool any() const { return metrics_enabled() || journal_enabled(); }

  /// Copy with every output path suffixed for one cell of a multi-cell
  /// run: "dir/serve.jsonl" + "gto.preemptive_slo" →
  /// "dir/serve.gto.preemptive_slo.jsonl" (suffix lands before the final
  /// extension; appended when there is none).
  ObservabilityOptions for_cell(const std::string& key) const;
};

/// Inserts `.key` before `path`'s final extension (see
/// ObservabilityOptions::for_cell).
std::string suffixed_path(const std::string& path, const std::string& key);

/// Owns the collector/journal selected by ObservabilityOptions and writes
/// the configured output files — the TraceSession idiom for the metrics
/// layer. Accessors return nullptr for products that were not requested,
/// so callers can pass them through unconditionally (pay-for-use).
class ObservabilitySession {
 public:
  explicit ObservabilitySession(const ObservabilityOptions& options);

  MetricsCollector* metrics() { return metrics_.get(); }
  EventJournal* journal() { return journal_.get(); }

  /// Writes every configured file (`kernel_names` labels the timeline's
  /// process tracks). Returns false and fills `error` on the first
  /// failure.
  bool write(const std::vector<std::string>& kernel_names,
             std::string& error) const;

 private:
  ObservabilityOptions options_;
  std::unique_ptr<MetricsCollector> metrics_;
  std::unique_ptr<EventJournal> journal_;
};

}  // namespace prosim
