#include "gpu/admission.hpp"

#include <algorithm>
#include <limits>

#include "common/check.hpp"

namespace prosim {

namespace {

class FifoExclusive final : public AdmissionPolicy {
 public:
  const char* name() const override { return "fifo_exclusive"; }

  bool may_refill(int /*sm*/, int bound,
                  const AdmissionView& view) const override {
    return !view.active.empty() && bound == view.active.front();
  }

  int next_stream(int /*sm*/, const AdmissionView& view) override {
    if (view.active.empty()) return -1;
    const int head = view.active.front();
    return view.is_waiting(head) ? head : -1;
  }
};

class SmPartitioned final : public AdmissionPolicy {
 public:
  const char* name() const override { return "sm_partitioned"; }

  static int owner(int sm, const AdmissionView& view) {
    if (view.active.empty()) return -1;
    return view.active[static_cast<std::size_t>(sm) % view.active.size()];
  }

  bool may_refill(int sm, int bound, const AdmissionView& view) const override {
    return bound == owner(sm, view);
  }

  int next_stream(int sm, const AdmissionView& view) override {
    const int k = owner(sm, view);
    return (k >= 0 && view.is_waiting(k)) ? k : -1;
  }
};

class TbInterleaved final : public AdmissionPolicy {
 public:
  const char* name() const override { return "tb_interleaved"; }

  bool may_refill(int /*sm*/, int /*bound*/,
                  const AdmissionView& /*view*/) const override {
    return true;  // work-conserving: an SM never idles on an empty queue
  }

  int next_stream(int /*sm*/, const AdmissionView& view) override {
    if (view.waiting.empty()) return -1;
    // Round-robin over waiting kernels: first id strictly past the cursor,
    // wrapping to the smallest. The cursor moves only on a hit, keeping
    // quiet (no-launch) cycles state-free.
    for (const int k : view.waiting) {
      if (k > cursor_) {
        cursor_ = k;
        return k;
      }
    }
    cursor_ = view.waiting.front();
    return cursor_;
  }

 private:
  int cursor_ = -1;
};

/// SLO-aware preemptive admission: all SMs follow one *focus* kernel — the
/// waiting kernel with the highest priority, then the earliest absolute
/// deadline (arrival + deadline_cycles; no deadline sorts last), then the
/// smallest id (FCFS). A kernel losing focus is demoted at TB-drain
/// granularity; the GPU additionally yields spin-stuck resident TBs
/// (checkpoint + re-queue) so a blocked SM frees up for the focus kernel.
/// Every answer is a pure function of the view, so quiet cycles are
/// trivially skippable by fast-forward; the focus is computed once per view
/// generation.
class PreemptiveSlo final : public AdmissionPolicy {
 public:
  const char* name() const override { return "preemptive_slo"; }
  bool preemptive() const override { return true; }

  bool may_refill(int /*sm*/, int bound,
                  const AdmissionView& view) const override {
    return bound == focus(view);
  }

  int next_stream(int /*sm*/, const AdmissionView& view) override {
    return focus(view);
  }

  int preempt_focus(int /*sm*/, const AdmissionView& view) const override {
    return focus(view);
  }

 private:
  int focus(const AdmissionView& view) const {
    if (view.generation == 0) return scan_focus(view);
    if (view.generation != memo_generation_) {
      memo_generation_ = view.generation;
      memo_focus_ = scan_focus(view);
    }
#ifdef PROSIM_DEBUG_CHECKS
    PROSIM_CHECK(memo_focus_ == scan_focus(view));
#endif
    return memo_focus_;
  }

  static int scan_focus(const AdmissionView& view) {
    constexpr Cycle kNoDeadline = std::numeric_limits<Cycle>::max();
    int best = -1;
    int best_priority = std::numeric_limits<int>::min();
    Cycle best_deadline = kNoDeadline;
    for (const int k : view.waiting) {
      int priority = 0;
      Cycle deadline = kNoDeadline;
      if (view.tenants != nullptr && k < view.num_kernels) {
        priority = view.tenants[k].priority;
        if (view.tenants[k].deadline_cycles > 0 && view.arrivals != nullptr) {
          deadline = view.arrivals[k] + view.tenants[k].deadline_cycles;
        }
      }
      const bool better =
          best < 0 || priority > best_priority ||
          (priority == best_priority && deadline < best_deadline);
      // Equal keys keep the earlier (smaller-id, FCFS) kernel: `waiting`
      // is ascending, so the first hit wins ties.
      if (better) {
        best = k;
        best_priority = priority;
        best_deadline = deadline;
      }
    }
    return best;
  }

  /// focus() of the view generation memo_generation_ (0: none yet).
  mutable std::uint64_t memo_generation_ = 0;
  mutable int memo_focus_ = -1;
};

template <typename Policy>
std::unique_ptr<AdmissionPolicy> make() {
  return std::make_unique<Policy>();
}

constexpr AdmissionInfo kRegistry[] = {
    {"fifo_exclusive", "oldest arrived kernel runs alone (FCFS)",
     make<FifoExclusive>},
    {"sm_partitioned", "arrived kernels split the SM pool spatially",
     make<SmPartitioned>},
    {"tb_interleaved", "work-conserving TB-granularity sharing",
     make<TbInterleaved>},
    {"preemptive_slo",
     "priority/deadline focus with TB yield-resume preemption",
     make<PreemptiveSlo>},
};

}  // namespace

std::span<const AdmissionInfo> admission_registry() { return kRegistry; }

const AdmissionInfo* find_admission(const std::string& name) {
  for (const AdmissionInfo& info : kRegistry) {
    if (name == info.name) return &info;
  }
  return nullptr;
}

std::string list_admissions() {
  std::size_t width = 0;
  for (const AdmissionInfo& info : kRegistry) {
    width = std::max(width, std::string(info.name).size());
  }
  std::string out = "admission policies:\n";
  for (const AdmissionInfo& info : kRegistry) {
    out += "  ";
    out += info.name;
    out.append(width + 2 - std::string(info.name).size(), ' ');
    out += info.description;
    out += "\n";
  }
  return out;
}

std::unique_ptr<AdmissionPolicy> make_admission(const std::string& name) {
  const AdmissionInfo* info = find_admission(name);
  return info == nullptr ? nullptr : info->factory();
}

}  // namespace prosim
