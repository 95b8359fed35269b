// Single source of truth for the scheduler catalogue.
//
// Every place that maps between SchedulerKind, its CLI name, and a policy
// instance (CLIs, sweep runner, paper report, tests) goes through this table;
// adding a scheduler means adding one SchedulerInfo row here. The legacy
// entry points scheduler_name() (gpu_config.hpp) and make_policy()
// (gpu.hpp) are thin wrappers over the registry.
#pragma once

#include <memory>
#include <span>
#include <string>

#include "gpu/gpu_config.hpp"
#include "sm/scheduler_policy.hpp"

namespace prosim {

struct SchedulerInfo {
  SchedulerKind kind;
  const char* name;         ///< canonical CLI spelling ("PRO", "LRR", ...)
  const char* description;  ///< one-liner for --help listings
  /// Instantiates one per-SM policy; parameters come from the spec.
  std::unique_ptr<SchedulerPolicy> (*factory)(const SchedulerSpec& spec);
};

/// All known schedulers, in canonical (paper-figure) order.
std::span<const SchedulerInfo> scheduler_registry();

/// Registry row for a kind. Never fails: every SchedulerKind has a row
/// (enforced by tests/gpu/test_scheduler_registry.cpp).
const SchedulerInfo& scheduler_info(SchedulerKind kind);

/// Registry row by CLI name, or nullptr if unknown.
const SchedulerInfo* find_scheduler(const std::string& name);

/// Formatted "  NAME   description" listing for --help epilogs.
std::string list_schedulers();

}  // namespace prosim
