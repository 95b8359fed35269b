// Machine-readable result export: GpuResult as a JSON object (for
// downstream plotting/analysis pipelines) — counters, stall taxonomy,
// cache statistics, and optionally the per-TB timelines.
#pragma once

#include <iosfwd>
#include <string>

#include "gpu/gpu_result.hpp"

namespace prosim {

struct JsonReportOptions {
  bool include_timelines = false;
  /// Adds the `stall_causes` block: scheduler-cycles per StallCause.
  bool stall_attribution = false;
  /// Free-form identification fields echoed into the object.
  std::string kernel;
  std::string scheduler;
};

void write_json_report(std::ostream& os, const GpuResult& result,
                       const JsonReportOptions& options = {});

}  // namespace prosim
