#include "gpu/scheduler_registry.hpp"

#include "common/check.hpp"
#include "core/pro_scheduler.hpp"
#include "sched/caws.hpp"
#include "sched/gto.hpp"
#include "sched/lrr.hpp"
#include "sched/owl.hpp"
#include "sched/tl.hpp"

namespace prosim {

namespace {

std::unique_ptr<SchedulerPolicy> make_lrr(const SchedulerSpec&) {
  return std::make_unique<LrrPolicy>();
}

std::unique_ptr<SchedulerPolicy> make_gto(const SchedulerSpec&) {
  return std::make_unique<GtoPolicy>();
}

std::unique_ptr<SchedulerPolicy> make_tl(const SchedulerSpec& spec) {
  return std::make_unique<TlPolicy>(spec.tl_active_set);
}

std::unique_ptr<SchedulerPolicy> make_pro(const SchedulerSpec& spec) {
  return std::make_unique<ProPolicy>(spec.pro);
}

std::unique_ptr<SchedulerPolicy> make_pro_adaptive(const SchedulerSpec& spec) {
  return std::make_unique<AdaptiveProPolicy>(spec.adaptive);
}

std::unique_ptr<SchedulerPolicy> make_caws(const SchedulerSpec&) {
  return std::make_unique<CawsPolicy>();
}

std::unique_ptr<SchedulerPolicy> make_owl(const SchedulerSpec& spec) {
  return std::make_unique<OwlPolicy>(spec.owl_group_size);
}

constexpr SchedulerInfo kRegistry[] = {
    {SchedulerKind::kLrr, "LRR",
     "loose round-robin (paper baseline)", make_lrr},
    {SchedulerKind::kGto, "GTO",
     "greedy-then-oldest (paper baseline)", make_gto},
    {SchedulerKind::kTl, "TL",
     "two-level active set, Narasiman et al.", make_tl},
    {SchedulerKind::kPro, "PRO",
     "progress-aware TB prioritisation (the paper)", make_pro},
    {SchedulerKind::kProAdaptive, "PRO-A",
     "PRO with profile-driven barrier adaptation", make_pro_adaptive},
    {SchedulerKind::kCaws, "CAWS",
     "criticality-aware warp scheduling, Lee & Wu", make_caws},
    {SchedulerKind::kOwl, "OWL",
     "CTA-group-aware scheduling, Jog et al.", make_owl},
};

}  // namespace

std::span<const SchedulerInfo> scheduler_registry() { return kRegistry; }

const SchedulerInfo& scheduler_info(SchedulerKind kind) {
  for (const SchedulerInfo& info : kRegistry) {
    if (info.kind == kind) return info;
  }
  PROSIM_CHECK_MSG(false, "SchedulerKind missing from registry");
  return kRegistry[0];
}

const SchedulerInfo* find_scheduler(const std::string& name) {
  for (const SchedulerInfo& info : kRegistry) {
    if (name == info.name) return &info;
  }
  return nullptr;
}

std::string list_schedulers() {
  std::size_t width = 0;
  for (const SchedulerInfo& info : kRegistry) {
    width = std::max(width, std::string(info.name).size());
  }
  std::string out = "schedulers:\n";
  for (const SchedulerInfo& info : kRegistry) {
    out += "  ";
    out += info.name;
    out.append(width + 2 - std::string(info.name).size(), ' ');
    out += info.description;
    out += "\n";
  }
  return out;
}

// ---- legacy entry points, now table-driven -------------------------------

const char* scheduler_name(SchedulerKind kind) {
  return scheduler_info(kind).name;
}

std::unique_ptr<SchedulerPolicy> make_policy(const SchedulerSpec& spec) {
  return scheduler_info(spec.kind).factory(spec);
}

}  // namespace prosim
