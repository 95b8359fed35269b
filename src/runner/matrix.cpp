#include "runner/matrix.hpp"

#include <algorithm>
#include <iterator>

#include "common/json.hpp"
#include "gpu/scheduler_registry.hpp"

namespace prosim::runner {

namespace {

SimError spec_error(const std::string& what) {
  return SimError::make(ErrorCategory::kInvariant, "matrix spec: " + what);
}

const std::vector<SchedulerKind>& paper_schedulers() {
  static const std::vector<SchedulerKind> kinds = {
      SchedulerKind::kLrr, SchedulerKind::kGto, SchedulerKind::kTl,
      SchedulerKind::kPro};
  return kinds;
}

}  // namespace

std::vector<SweepJob> cross_matrix(const std::vector<Workload>& workloads,
                                   const std::vector<SchedulerKind>& kinds,
                                   const std::vector<std::uint64_t>& fault_seeds,
                                   bool include_fault_free,
                                   const GpuConfig& base) {
  std::vector<SweepJob> jobs;
  for (const Workload& w : workloads) {
    for (SchedulerKind kind : kinds) {
      GpuConfig cfg = base;
      cfg.scheduler.kind = kind;
      if (include_fault_free || fault_seeds.empty()) {
        GpuConfig plain = cfg;
        plain.faults = FaultConfig{};
        jobs.push_back(SweepJob::make(w, plain));
      }
      for (std::uint64_t seed : fault_seeds) {
        GpuConfig faulted = cfg;
        faulted.faults = FaultConfig::chaos(seed);
        jobs.push_back(SweepJob::make(w, faulted));
      }
    }
  }
  return jobs;
}

std::vector<SweepJob> fig4_matrix() {
  return cross_matrix(all_workloads(), paper_schedulers(), {});
}

Expected<std::vector<SweepJob>> jobs_from_spec(std::string_view json_text) {
  JsonParseResult parsed = parse_json(json_text);
  if (!parsed.ok()) {
    return spec_error("JSON parse error at line " +
                      std::to_string(parsed.error->line) + ": " +
                      parsed.error->message);
  }
  const JsonValue& spec = *parsed.value;
  if (!spec.is_object()) return spec_error("top level must be an object");

  static const char* known_keys[] = {
      "workloads", "apps",    "schedulers",         "thresholds",
      "fault_seeds", "include_fault_free", "sms", "record_tb_order"};
  try {
    for (const auto& [key, value] : spec.members()) {
      (void)value;
      if (std::find_if(std::begin(known_keys), std::end(known_keys),
                       [&key = key](const char* k) { return key == k; }) ==
          std::end(known_keys)) {
        return spec_error("unknown key \"" + key + "\"");
      }
    }

    // Workload selection: explicit kernels, whole apps, or everything.
    std::vector<Workload> workloads;
    const JsonValue* kernels = spec.find("workloads");
    const JsonValue* apps = spec.find("apps");
    if (kernels != nullptr) {
      for (const JsonValue& name : kernels->items()) {
        const std::string& kernel = name.as_string();
        bool found = false;
        for (const Workload& w : all_workloads()) {
          if (w.kernel == kernel) {
            workloads.push_back(w);
            found = true;
          }
        }
        if (!found) return spec_error("unknown workload \"" + kernel + "\"");
      }
    }
    if (apps != nullptr) {
      for (const JsonValue& name : apps->items()) {
        const std::string& app = name.as_string();
        bool found = false;
        for (const Workload& w : all_workloads()) {
          if (w.app == app) {
            workloads.push_back(w);
            found = true;
          }
        }
        if (!found) return spec_error("unknown app \"" + app + "\"");
      }
    }
    if (kernels == nullptr && apps == nullptr) workloads = all_workloads();

    std::vector<SchedulerKind> kinds;
    if (const JsonValue* scheds = spec.find("schedulers")) {
      for (const JsonValue& name : scheds->items()) {
        const SchedulerInfo* info = find_scheduler(name.as_string());
        if (info == nullptr) {
          return spec_error("unknown scheduler \"" + name.as_string() + "\"");
        }
        kinds.push_back(info->kind);
      }
    } else {
      kinds = paper_schedulers();
    }

    std::vector<Cycle> thresholds;
    if (const JsonValue* th = spec.find("thresholds")) {
      for (const JsonValue& v : th->items()) thresholds.push_back(v.as_u64());
      if (thresholds.empty()) return spec_error("thresholds must be non-empty");
    } else {
      thresholds.push_back(ProConfig{}.sort_threshold);
    }

    std::vector<std::uint64_t> fault_seeds;
    if (const JsonValue* seeds = spec.find("fault_seeds")) {
      for (const JsonValue& v : seeds->items())
        fault_seeds.push_back(v.as_u64());
    }
    bool include_fault_free = true;
    if (const JsonValue* inc = spec.find("include_fault_free"))
      include_fault_free = inc->as_bool();

    GpuConfig base;
    if (const JsonValue* sms = spec.find("sms")) {
      const int n = static_cast<int>(sms->as_i64());
      if (n <= 0) return spec_error("sms must be positive");
      base.num_sms = n;
    }
    if (const JsonValue* rec = spec.find("record_tb_order"))
      base.record_tb_order_sm0 = rec->as_bool();

    std::vector<SweepJob> jobs;
    for (Cycle threshold : thresholds) {
      GpuConfig cfg = base;
      cfg.scheduler.pro.sort_threshold = threshold;
      cfg.scheduler.adaptive.base.sort_threshold = threshold;
      std::vector<SweepJob> layer =
          cross_matrix(workloads, kinds, fault_seeds, include_fault_free, cfg);
      jobs.insert(jobs.end(), std::make_move_iterator(layer.begin()),
                  std::make_move_iterator(layer.end()));
    }
    if (jobs.empty()) return spec_error("matrix expands to zero cells");
    return jobs;
  } catch (const SimException& e) {
    // Type mismatches inside the spec (e.g. a number where a string is
    // expected) surface here via the JsonValue accessors.
    return spec_error(e.error().message);
  }
}

}  // namespace prosim::runner
