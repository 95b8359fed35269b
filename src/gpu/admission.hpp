// GPU-level kernel admission policies for concurrent (multi-stream)
// execution — the arbitration layer of the Cooperative-Kernels-style
// multitasking setting (docs/SERVING.md).
//
// When several kernels are resident, the existing TB-launch path (one TB
// per SM per cycle, round-robin over SMs) stays untouched; what the policy
// decides is *which kernel's queue* each SM may draw from:
//
//  - fifo_exclusive: strict kernel-granularity FCFS — only the oldest
//    arrived, unfinished kernel is admitted; later kernels queue behind it
//    (classic single-stream GPU behavior, the head-of-line-blocking
//    baseline);
//  - sm_partitioned: arrived kernels are spatially partitioned over the SM
//    pool (SM s serves active[s mod |active|]); repartitioning happens at
//    TB-drain granularity when the active set changes;
//  - tb_interleaved: work-conserving sharing — a drained SM rebinds to the
//    next kernel with waiting TBs in round-robin order, interleaving TBs
//    of co-resident kernels across the SM pool;
//  - preemptive_slo: SLO-aware preemptive admission — every SM follows the
//    focus kernel (highest priority, then earliest absolute deadline, then
//    FCFS id). A kernel losing focus is demoted at TB-drain granularity,
//    and spin-stuck resident TBs are additionally yielded (checkpointed
//    and re-queued, gpu.hpp) so the focus kernel's TBs can take the SM —
//    the Cooperative-Kernels yield/resume story.
//
// Policies are consulted only on the deterministic single-threaded cycle
// loop, and their state (the interleaver's rotation cursor) advances only
// when a rebind actually launches work — so decisions are bit-identical
// with event-driven fast-forward on or off.
//
// The catalogue is table-driven like SchedulerRegistry: every mapping
// between a policy name, its description, and an instance goes through
// admission_registry(); adding a policy means adding one AdmissionInfo row
// in admission.cpp.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/types.hpp"

namespace prosim {

/// Per-tenant service-level objective attached to a KernelLaunch. Only the
/// preemptive_slo policy reads it; under the three legacy policies it is
/// inert metadata. Fingerprinting rule: TenantSpec fields reach serialized
/// results (the prosim-serving-v2 block, result_io.hpp) only when a
/// preemptive policy was active, so every pinned single-kernel fingerprint
/// and legacy-admission document stays byte-identical.
struct TenantSpec {
  /// Strictly higher priority preempts lower, before deadlines compare.
  int priority = 0;
  /// Relative deadline: the request wants to finish within this many
  /// cycles of its arrival. 0 = no deadline (sorts after any deadline).
  Cycle deadline_cycles = 0;
};

/// Snapshot of the stream state a policy decides over, rebuilt by the GPU
/// each cycle TB assignment runs. Both lists hold kernel ids ascending;
/// ids are assigned in arrival order, so ascending id == arrival FCFS.
struct AdmissionView {
  /// Arrived and unfinished kernels.
  const std::vector<int>& active;
  /// Subset of `active` that still has unassigned TBs queued — fresh TBs
  /// or parked (yield-checkpointed) TBs awaiting resumption.
  const std::vector<int>& waiting;
  /// SLO context, indexed by kernel id (null in contexts without launch
  /// metadata, e.g. unit tests — policies must treat that as "no SLO").
  const Cycle* arrivals = nullptr;
  const TenantSpec* tenants = nullptr;
  int num_kernels = 0;
  /// Identifies the lists' contents: views with the same nonzero generation
  /// hold the same lists, so a policy may reuse what it derived from one.
  /// 0 (hand-built views) promises nothing.
  std::uint64_t generation = 0;

  bool is_waiting(int kernel) const {
    for (const int k : waiting) {
      if (k == kernel) return true;
    }
    return false;
  }
};

class AdmissionPolicy {
 public:
  virtual ~AdmissionPolicy() = default;

  /// Canonical registry name ("fifo_exclusive", ...).
  virtual const char* name() const = 0;

  /// May SM `sm`, whose resident TBs belong to kernel `bound`, keep
  /// launching further TBs of that kernel? (The GPU has already checked
  /// that `bound` is active and has waiting TBs.) Const: refill decisions
  /// never advance policy state.
  virtual bool may_refill(int sm, int bound, const AdmissionView& view)
      const = 0;

  /// Kernel a fully drained SM `sm` should rebind to, or -1 to stay idle.
  /// Must return a member of view.waiting. State (e.g. a rotation cursor)
  /// may advance only when a kernel is returned — a -1 answer must leave
  /// the policy bit-identical, so quiet cycles stay skippable.
  virtual int next_stream(int sm, const AdmissionView& view) = 0;

  /// Preemptive policies may demote resident kernels: the GPU yields
  /// spin-stuck TBs (checkpoint + re-queue) to make room for the focus
  /// kernel, and consults preempt_focus() every cycle.
  virtual bool preemptive() const { return false; }

  /// The kernel this policy most wants served on SM `sm` right now, or -1
  /// when nothing is waiting. Const — it is consulted on cycles that may
  /// be skipped by fast-forward, so it must never advance policy state.
  /// Only meaningful when preemptive() is true.
  virtual int preempt_focus(int sm, const AdmissionView& view) const {
    (void)sm;
    (void)view;
    return -1;
  }
};

/// One row of the admission catalogue (mirrors SchedulerInfo).
struct AdmissionInfo {
  const char* name;         ///< canonical CLI spelling ("fifo_exclusive", ...)
  const char* description;  ///< one-liner for --help listings
  std::unique_ptr<AdmissionPolicy> (*factory)();
};

/// All known admission policies, in canonical order.
std::span<const AdmissionInfo> admission_registry();

/// Registry row by CLI name, or nullptr if unknown.
const AdmissionInfo* find_admission(const std::string& name);

/// Formatted "  name   description" listing for --help epilogs, generated
/// from the registry table.
std::string list_admissions();

/// Instantiates a policy by registry name; nullptr on an unknown name.
std::unique_ptr<AdmissionPolicy> make_admission(const std::string& name);

}  // namespace prosim
