// Experiment-matrix specification: the cross product
//
//   workloads x schedulers x PRO-threshold x fault-seed
//
// expanded into the flat SweepJob list the runner executes. Matrices come
// from JSON spec files (prosim-sweep --matrix) or from the programmatic
// builders the CLI and tests use. JSON spec format (all keys
// optional; see docs/RUNNER.md):
//
//   {
//     "workloads": ["scalarProdGPU", "bfs_kernel"],   // default: all 25
//     "apps": ["AES", "BFS"],          // alternative selector by app
//     "schedulers": ["LRR", "GTO", "TL", "PRO"],      // default: these 4
//     "thresholds": [1000],            // PRO sort_threshold variants
//     "fault_seeds": [7, 8],           // chaos-preset seeds; [] = no faults
//     "include_fault_free": true,      // keep the un-faulted cell too
//     "sms": 14,                       // GpuConfig.num_sms override
//     "record_tb_order": false
//   }
#pragma once

#include <string_view>
#include <vector>

#include "common/sim_error.hpp"
#include "runner/runner.hpp"

namespace prosim::runner {

/// Expands a JSON matrix spec. Unknown keys, unknown kernels/apps/
/// schedulers, or malformed JSON come back as a SimError (kInvariant)
/// naming the offender — spec files are user input.
Expected<std::vector<SweepJob>> jobs_from_spec(std::string_view json_text);

/// The paper's headline evaluation matrix (Fig. 4): all 25 Table II
/// kernels under LRR, GTO, TL, and PRO on the Table I GTX480 config.
std::vector<SweepJob> fig4_matrix();

/// Plain cross product for programmatic callers; every workload runs
/// under every scheduler, once per fault seed (plus one fault-free run
/// when `include_fault_free`).
std::vector<SweepJob> cross_matrix(const std::vector<Workload>& workloads,
                                   const std::vector<SchedulerKind>& kinds,
                                   const std::vector<std::uint64_t>& fault_seeds,
                                   bool include_fault_free = true,
                                   const GpuConfig& base = {});

}  // namespace prosim::runner
