// Parallel experiment-sweep engine.
//
// A sweep is a flat list of (workload, GpuConfig) cells — typically the
// cross product of an experiment matrix (see runner/matrix.hpp) — executed
// on the cell pool (run_cells below), which run_serving and the concurrent
// litmus harnesses share. Guarantees:
//
//  - Determinism: each cell simulates on its own fresh GlobalMemory in a
//    single thread; the simulator holds no mutable global state, so the
//    per-cell GpuResult is bit-identical whatever --jobs is. Cells are
//    reported in input order regardless of completion order.
//  - Failure isolation: a SimError in one cell (deadlocked kernel,
//    livelock, invalid config) is captured as that cell's structured
//    error artifact; the other cells are unaffected and the sweep
//    completes.
//  - Caching: with a cache directory configured, finished cells are
//    persisted content-addressed (runner/result_cache.hpp) and a rerun of
//    an unchanged matrix executes zero simulations.
#pragma once

#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "common/sim_error.hpp"
#include "gpu/gpu_config.hpp"
#include "gpu/gpu_result.hpp"
#include "kernels/registry.hpp"
#include "metrics/metrics.hpp"

namespace prosim::runner {

struct SweepJob {
  Workload workload;
  GpuConfig config;
  /// Display name "<kernel>/<config key>" ("bfs_kernel/PRO.sms14"), plus
  /// ".cfg<8 hex>" for a config the key does not describe (see make()).
  std::string label;

  static SweepJob make(Workload w, GpuConfig cfg);

  /// Content-addressed cache key: human-readable prefix + combined
  /// workload/config fingerprint hex. Not free: it runs the workload's
  /// init() to hash the input image.
  std::string cache_key() const;
};

/// SweepJob::cache_key() of `config` on the workload named `kernel` whose
/// Workload::hash_into() state is `workload_fp`: callers keying many
/// configs of one workload hash its input image once.
std::string cache_key(const std::string& kernel, Fingerprint workload_fp,
                      const GpuConfig& config);

struct SweepCell {
  std::string label;
  std::string kernel;
  std::string app;
  std::string scheduler;
  bool from_cache = false;
  std::optional<GpuResult> result;
  std::optional<SimError> error;  ///< set iff the cell failed
  /// The failing path when an observability product could not be written.
  std::string write_error;

  bool ok() const { return result.has_value(); }
};

struct SweepProgress {
  int completed = 0;  ///< cells finished so far (including this one)
  int total = 0;
  const SweepCell* cell = nullptr;  ///< the cell that just finished
};

struct SweepOptions {
  /// Worker threads; <= 0 picks the hardware concurrency (run_cells).
  int jobs = 1;
  /// Directory for the persistent result cache; empty disables it.
  std::string cache_dir;
  /// Invoked after every cell completes, serialized by run_cells (safe to
  /// print from); `completed` reads 1, 2, ..., total in delivery order.
  std::function<void(const SweepProgress&)> progress;
  /// Observability products collected for every cell that actually
  /// simulates (cache hits return the stored result unobserved — run
  /// with cache_dir empty to observe every cell). With more than one job
  /// every output path is suffixed with the cell's cache key
  /// (ObservabilityOptions::for_cell); a one-job sweep writes the paths
  /// as given.
  ObservabilityOptions obs;
};

/// Counts are taken from the finished cells (from_cache, ok()).
struct SweepReport {
  std::vector<SweepCell> cells;  ///< 1:1 with the input jobs, same order
  std::uint64_t simulated = 0;   ///< cells actually run
  std::uint64_t cache_hits = 0;  ///< cells loaded from disk
  std::uint64_t failures = 0;    ///< cells that ended in a SimError
};

SweepReport run_sweep(const std::vector<SweepJob>& jobs,
                      const SweepOptions& options = {});

/// The one cell pool. Runs run_one(i) for every i in [0, count) on `jobs`
/// worker threads (<= 0 picks the hardware concurrency; clamped to
/// [1, count]) that claim cells through one atomic index. run_one(i) must
/// write only cell i's pre-sized slot, so results never depend on `jobs`.
/// on_done(i, completed), if set, follows each cell under one mutex that
/// also counts it: `completed` reads 1, 2, ..., count in delivery order.
void run_cells(int count, int jobs, const std::function<void(int)>& run_one,
               const std::function<void(int, int)>& on_done = {});

/// Thread-safe process-wide memoized simulation, keyed by the same
/// content fingerprint as the sweep cache; the returned reference stays
/// valid for the process lifetime. It lives in memory only: serving's
/// isolated baselines share it within one process, and a persistent cache
/// is run_sweep's (SweepOptions::cache_dir).
const GpuResult& memoized_run(const Workload& workload,
                              const GpuConfig& config);

}  // namespace prosim::runner
