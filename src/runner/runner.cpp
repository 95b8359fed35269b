#include "runner/runner.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <map>
#include <memory>
#include <mutex>
#include <thread>

#include "gpu/gpu.hpp"
#include "runner/result_cache.hpp"

namespace prosim::runner {

SweepJob SweepJob::make(Workload w, GpuConfig cfg) {
  SweepJob job;
  job.label = w.kernel + "/" + cfg.fingerprint_key();
  // Any departure from the Table I machine beyond the key's scheduler,
  // SMs and faults (--no-l1, --threshold, ...) adds a fingerprint.
  GpuConfig plain;
  plain.num_sms = cfg.num_sms;
  plain.scheduler.kind = cfg.scheduler.kind;
  plain.faults = cfg.faults;
  Fingerprint fp;
  cfg.hash_into(fp);
  if (fp.hash() != plain.fingerprint()) {
    job.label += ".cfg" + fp.hex().substr(0, 8);
  }
  job.workload = std::move(w);
  job.config = std::move(cfg);
  return job;
}

std::string SweepJob::cache_key() const {
  Fingerprint fp;
  workload.hash_into(fp);
  return runner::cache_key(workload.kernel, fp, config);
}

std::string cache_key(const std::string& kernel, Fingerprint workload_fp,
                      const GpuConfig& config) {
  config.hash_into(workload_fp);
  return kernel + "." + config.fingerprint_key() + "-" + workload_fp.hex();
}

namespace {

/// Runs one cell start to finish. All SimErrors (including config/program
/// validation at Gpu construction) surface as the cell's error artifact.
/// `multi_cell` suffixes the product paths with the cell's cache key.
SweepCell run_cell(const SweepJob& job, const ResultCache* cache,
                   const SweepOptions& options, bool multi_cell) {
  SweepCell cell;
  cell.label = job.label;
  cell.kernel = job.workload.kernel;
  cell.app = job.workload.app;
  cell.scheduler = scheduler_name(job.config.scheduler.kind);
  // The key re-runs the workload's init() and hashes its input image, so
  // it is computed only where the cache or a suffixed path reads it.
  const bool suffixed = multi_cell && options.obs.has_output_path();
  const std::string key =
      cache != nullptr || suffixed ? job.cache_key() : std::string();

  if (cache != nullptr) {
    if (std::optional<GpuResult> hit = cache->load(key)) {
      cell.result = std::move(hit);
      cell.from_cache = true;
      return cell;
    }
  }

  // One session per cell: sinks are single-threaded by design; each
  // worker observes only its own cell. With several cells, product paths
  // get the cache key so concurrent cells never collide.
  ObservabilitySession obs(suffixed ? options.obs.for_cell(key)
                                    : options.obs);

  GlobalMemory mem;
  if (job.workload.init) job.workload.init(mem);
  const auto wall_start = std::chrono::steady_clock::now();
  Expected<GpuResult> outcome =
      simulate_checked(job.config, job.workload.program, mem, &obs);
  const double wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    wall_start)
          .count();
  if (outcome.has_value()) {
    cell.result = std::move(outcome.value());
    // Stamped after the deterministic core finished; stored results omit
    // it (result_io skips SimThroughput), so cache bytes stay run-stable.
    cell.result->throughput = SimThroughput::measure(
        wall_seconds, cell.result->cycles, cell.result->totals.warp_insts);
    obs.write({job.workload.kernel}, cell.write_error);
    if (cache != nullptr) cache->store(key, *cell.result);
  } else {
    cell.error = std::move(outcome.error());
  }
  return cell;
}

}  // namespace

SweepReport run_sweep(const std::vector<SweepJob>& jobs,
                      const SweepOptions& options) {
  SweepReport report;
  report.cells.resize(jobs.size());

  std::unique_ptr<ResultCache> cache;
  if (!options.cache_dir.empty())
    cache = std::make_unique<ResultCache>(options.cache_dir);

  const int total = static_cast<int>(jobs.size());
  const auto run_one = [&](int i) {
    const auto slot = static_cast<std::size_t>(i);
    report.cells[slot] = run_cell(jobs[slot], cache.get(), options, total > 1);
  };
  const auto on_done = [&](int i, int completed) {
    const SweepCell* cell = &report.cells[static_cast<std::size_t>(i)];
    if (options.progress) options.progress({completed, total, cell});
  };
  run_cells(total, options.jobs, run_one, on_done);

  for (const SweepCell& cell : report.cells) {
    ++(cell.from_cache ? report.cache_hits : report.simulated);
    if (!cell.ok()) ++report.failures;
  }
  return report;
}

void run_cells(int count, int jobs, const std::function<void(int)>& run_one,
               const std::function<void(int, int)>& on_done) {
  if (jobs <= 0) jobs = static_cast<int>(std::thread::hardware_concurrency());
  jobs = std::clamp(jobs, 1, std::max(count, 1));

  std::atomic<int> next{0};
  std::mutex done_mu;
  int completed = 0;
  auto worker = [&] {
    for (int i = next.fetch_add(1); i < count; i = next.fetch_add(1)) {
      run_one(i);
      std::lock_guard<std::mutex> lock(done_mu);
      ++completed;
      if (on_done) on_done(i, completed);
    }
  };
  if (jobs == 1) {
    worker();
    return;
  }
  std::vector<std::thread> pool;
  pool.reserve(static_cast<std::size_t>(jobs));
  for (int t = 0; t < jobs; ++t) pool.emplace_back(worker);
  for (std::thread& t : pool) t.join();
}

const GpuResult& memoized_run(const Workload& workload,
                              const GpuConfig& config) {
  // std::map nodes are stable, so returned references survive later
  // insertions; the mutex makes the memo safe for concurrent callers.
  static std::mutex mu;
  static std::map<std::string, GpuResult> memo;

  const std::string key = SweepJob::make(workload, config).cache_key();
  {
    std::lock_guard<std::mutex> lock(mu);
    auto it = memo.find(key);
    if (it != memo.end()) return it->second;
  }

  // Simulate outside the lock: concurrent callers computing different
  // cells must not serialize on each other.
  GlobalMemory mem;
  if (workload.init) workload.init(mem);
  GpuResult result = simulate(config, workload.program, mem);

  std::lock_guard<std::mutex> lock(mu);
  return memo.emplace(key, std::move(result)).first->second;
}

}  // namespace prosim::runner
