// The streaming-multiprocessor timing model.
//
// Per cycle (in order): memory responses are drained into the L1 /
// pending-load bookkeeping, writeback events release scoreboard entries,
// the LDST unit dispatches coalesced transactions, and each hardware warp
// scheduler combines its warps' issue bits (kept per warp, updated only at
// the events that change them) into a ready mask and, via the attached
// SchedulerPolicy, issues at most one instruction.
//
// Functional execution happens at issue time against the shared
// GlobalMemory / register files; the scoreboard guarantees dependents
// cannot issue before the modelled writeback, so functional state is always
// consistent with a real in-order SIMT pipeline (see DESIGN.md).
#pragma once

#include <bit>
#include <cstdint>
#include <functional>
#include <iterator>
#include <memory>
#include <vector>

#include "common/sim_error.hpp"
#include "common/types.hpp"
#include "faults/fault_injector.hpp"
#include "isa/program.hpp"
#include "mem/cache.hpp"
#include "mem/global_memory.hpp"
#include "mem/memory_subsystem.hpp"
#include "mem/mshr.hpp"
#include "sm/scheduler_policy.hpp"
#include "sm/scoreboard.hpp"
#include "sm/simt_stack.hpp"
#include "sm/sm_config.hpp"
#include "sm/wb_ring.hpp"
#include "trace/trace_events.hpp"

namespace prosim {

/// Per-SM counters. Every hardware-scheduler cycle is counted once, by its
/// StallCause in cause_cycles (the paper's stall breakdown, Figs. 1/5 and
/// Table III). The six counts of GPGPU-Sim's taxonomy (issued, the three
/// stall classes, sched_cycles and warp_insts) are sums of those causes:
/// derive_legacy_counts() fills them where a live core's counters leave
/// SmCore (Gpu::CoreTotals::add), and a result document carries them.
struct SmStats {
  /// The legacy classes: each the sum of its causes (legacy_stall_class()).
  std::uint64_t issued = 0;
  std::uint64_t idle_stalls = 0;
  std::uint64_t scoreboard_stalls = 0;
  std::uint64_t pipeline_stalls = 0;
  std::uint64_t sched_cycles = 0;      ///< scheduler-cycles: every cause
  std::uint64_t thread_insts = 0;      ///< instructions weighted by lanes
  std::uint64_t warp_insts = 0;        ///< warp instructions: kIssued
  std::uint64_t tbs_executed = 0;
  std::uint64_t smem_conflict_extra_cycles = 0;
  std::uint64_t gmem_transactions = 0;
  std::uint64_t const_transactions = 0;
  std::uint64_t barrier_releases = 0;
  /// Warp-cycles spent waiting at barriers (the §II-B barrierWait cost).
  std::uint64_t barrier_wait_cycles = 0;
  /// Sum over retired TBs of (last warp finish - first warp finish): the
  /// warp-level divergence the paper's §II-B characterizes.
  std::uint64_t warp_finish_disparity_sum = 0;
  /// Sum over cycles of resident TBs (mean occupancy = sum / cycles):
  /// the §II-C hardware-utilization signal.
  std::uint64_t occupancy_tb_cycles = 0;
  /// Hardware-scheduler cycles per StallCause (indexed by the enum). Like
  /// GpuResult::throughput it is measurement metadata: result_io does not
  /// serialize it, so a cache hit carries zeros here next to nonzero
  /// legacy counts.
  std::uint64_t cause_cycles[kNumStallCauses] = {};

  /// Sets the six legacy counts from cause_cycles.
  void derive_legacy_counts();

  /// SIMT lanes utilized per issued warp instruction, in [0, 1].
  double simt_efficiency() const {
    return warp_insts == 0 ? 0.0
                           : static_cast<double>(thread_insts) /
                                 (32.0 * static_cast<double>(warp_insts));
  }
};

/// One SmStats counter and its name in the result document.
struct SmStatsField {
  const char* name;
  std::uint64_t SmStats::*member;
};

/// Every SmStats counter but cause_cycles, in result-document order. The
/// merge of two records and the result document's writer and reader loop
/// over it.
inline constexpr SmStatsField kSmStatsFields[] = {
    {"issued", &SmStats::issued},
    {"idle_stalls", &SmStats::idle_stalls},
    {"scoreboard_stalls", &SmStats::scoreboard_stalls},
    {"pipeline_stalls", &SmStats::pipeline_stalls},
    {"sched_cycles", &SmStats::sched_cycles},
    {"thread_insts", &SmStats::thread_insts},
    {"warp_insts", &SmStats::warp_insts},
    {"tbs_executed", &SmStats::tbs_executed},
    {"smem_conflict_extra_cycles", &SmStats::smem_conflict_extra_cycles},
    {"gmem_transactions", &SmStats::gmem_transactions},
    {"const_transactions", &SmStats::const_transactions},
    {"barrier_releases", &SmStats::barrier_releases},
    {"barrier_wait_cycles", &SmStats::barrier_wait_cycles},
    {"warp_finish_disparity_sum", &SmStats::warp_finish_disparity_sum},
    {"occupancy_tb_cycles", &SmStats::occupancy_tb_cycles},
};
static_assert(sizeof(SmStats) / sizeof(std::uint64_t) ==
                  std::size(kSmStatsFields) + kNumStallCauses,
              "every SmStats counter is listed in kSmStatsFields");

/// Architectural snapshot of one resident TB, taken at a yield point
/// (preemptive admission, docs/SERVING.md): SIMT stacks, registers, shared
/// memory, and progress counters — everything needed to re-launch the TB
/// later, on any SM bound to the same kernel, with identical semantics.
/// Checkpoints are only taken once the TB is quiescent (yield_quiescent),
/// so no in-flight loads, writebacks, or LDST transactions belong to it.
struct TbCheckpoint {
  int ctaid = -1;
  std::uint64_t tb_progress = 0;
  std::vector<RegValue> smem;
  struct WarpCkpt {
    SimtStack stack;
    bool finished = false;
    bool at_barrier = false;
    Cycle barrier_arrive = 0;
    Cycle finish_cycle = 0;
    std::uint64_t progress = 0;
  };
  std::vector<WarpCkpt> warps;  ///< one per warp of the TB, in slot order
  std::vector<RegValue> regs;   ///< flat [warp_in_tb][reg][lane] block
};

class SmCore {
 public:
  /// `tbs_waiting` reports whether the GPU-level thread-block scheduler
  /// still holds unassigned TBs (drives the policy's phase detection).
  SmCore(int sm_id, const SmConfig& config, const Program& program,
         GlobalMemory& gmem, MemorySubsystem& mem,
         std::unique_ptr<SchedulerPolicy> policy,
         std::function<bool()> tbs_waiting);

  SmCore(const SmCore&) = delete;
  SmCore& operator=(const SmCore&) = delete;

  /// Resident-TB limit for this kernel on this SM configuration.
  static int compute_residency(const SmConfig& config, const KernelInfo& info);
  /// The largest distance from an issue (or LDST dispatch) to the
  /// writeback it schedules: the ALU, FP, SFU, L1-hit and constant
  /// latencies and a shared-memory access at the worst bank conflict
  /// (kWarpSize-way). Sizes the writeback ring. Throws SimError if a
  /// latency is 0: a writeback is always due after the cycle scheduling it.
  static Cycle max_writeback_latency(const SmConfig& config);

  int max_resident_tbs() const { return max_resident_tbs_; }
  bool can_accept_tb() const;
  void launch_tb(int ctaid, Cycle now);

  // -- preemptive yield/resume (preemptive_slo admission; docs/SERVING.md) --
  /// True when every resident TB is spin-stuck: each of its warps has
  /// finished, is parked at a barrier, or sits inside a statically detected
  /// spin-wait loop. Such an SM makes no forward progress on its own — the
  /// GPU yields a TB to break the cycle (Cooperative Kernels).
  bool all_resident_spin_stuck() const;
  /// Slot of the earliest-launched resident TB (the canonical yield
  /// victim), or -1 when none is resident.
  int oldest_tb_slot() const;
  /// Marks TB `tb_slot` for yielding: its warps stop issuing immediately
  /// (removed from every scheduler's candidate set) while in-flight loads
  /// and writebacks drain. One yield may be pending per SM.
  void request_yield(int tb_slot);
  /// Slot of the pending yield, or -1 when none is pending.
  int yield_pending() const { return pending_yield_slot_; }
  /// True when the pending yield victim has fully drained: no LDST
  /// operation and no scoreboard-pending register (so no writeback or
  /// in-flight load) belongs to any of its warps.
  bool yield_quiescent() const;
  /// Checkpoints and evicts the (quiescent) pending-yield TB, freeing its
  /// slot. Closes the TB's timeline span but does not count it executed.
  TbCheckpoint take_yield_checkpoint(Cycle now);
  /// Re-launches a checkpointed TB into a free slot, restoring stacks,
  /// registers, shared memory, and progress counters. The TB gets a fresh
  /// launch_seq (it is the newest resident), like a hardware re-dispatch.
  void resume_tb(const TbCheckpoint& ckpt, Cycle now);

  /// What one executed cycle did.
  enum class Tick : std::uint8_t {
    /// Pure bookkeeping. An LDST head line blocked on a full MSHR or a full
    /// interconnect port counts as quiet: a blocked retry mutates nothing.
    kQuiet,
    /// Drained responses or retired writebacks, and nothing else. The drain
    /// runs before the LDST and issue stages, which already saw its effects
    /// and still did nothing: the next cycle can differ only through
    /// next_event() or external_wakeup(), as after a quiet one.
    kDrained,
    /// Dispatched LDST transactions or issued an instruction.
    kHot,
  };

  /// Advances one cycle. After anything but kHot the SM may sleep until
  /// next_event() or external_wakeup() (see skip_cycles).
  Tick cycle(Cycle now);

  /// Bulk-applies `count` quiet cycles' worth of per-cycle-constant stat
  /// increments (occupancy, scheduler cycles, the stall cause recorded by
  /// the last executed cycle). Legal for a span that follows a cycle() that
  /// was not kHot, in which neither next_event() nor external_wakeup() fired
  /// and nothing else touched the SM.
  void skip_cycles(Cycle count);

  /// Lower bound (> now) on the next cycle at which this SM could do any
  /// work on its own: head writeback retiring, a warp's instruction buffer
  /// refilling, SFU/LDST units freeing up, or the policy's next
  /// time-triggered action. kNoCycle when nothing is pending locally.
  Cycle next_event(Cycle now) const;

  /// True when something outside this SM changed since its last quiet
  /// cycle in a way next_event() cannot foresee: a memory response is
  /// queued for it, or the interconnect port its blocked LDST line waits on
  /// has a free slot. Ports only free in pop_request, and a missing
  /// Cache::access leaves the cache untouched, so nothing else can unblock
  /// the line.
  bool external_wakeup() const {
    return mem_.has_response(sm_id_) || ldst_slot_free();
  }
  /// The port the LDST line waits on has a free slot.
  bool ldst_slot_free() const {
    return ldst_blocked_port_ >= 0 &&
           mem_.interconnect().request_free_slots(ldst_blocked_port_) > 0;
  }

  int resident_tbs() const { return resident_tbs_; }
  /// True when no TB is resident and no memory/writeback event is pending.
  bool drained() const;
#ifdef PROSIM_DEBUG_CHECKS
  /// PROSIM_CHECKs that an SM not due at `now` could do nothing there: no
  /// writeback is due and no scheduler has a ready warp. Compiled and
  /// called only where PROSIM_DEBUG_CHECKS is defined.
  void check_asleep(Cycle now) const;
#endif

  // -- sampling accessors (metrics/; cold path, read-only) ------------------
  /// Warps currently eligible for the issue scan: allocated, unfinished,
  /// not parked at a barrier, and not draining toward a yield.
  int runnable_warps() const {
    return std::popcount(live_mask_ & ~yield_mask_);
  }
  /// Outstanding L1 miss lines (MSHR entries in flight).
  int l1_mshr_occupancy() const { return l1_mshr_.occupancy(); }
  /// ctaid of the TB resident in `tb_slot`, or -1 when the slot is free.
  int resident_ctaid(int tb_slot) const {
    return tb_ctaid_[static_cast<std::size_t>(tb_slot)];
  }
  /// Appends the PRO progress counter of every allocated, unfinished warp
  /// (the progress-spread input of the paper's §III signal).
  void sample_progress(std::vector<std::uint64_t>& out) const {
    for (int w = 0; w < used_warp_slots_; ++w) {
      const WarpCtx& ctx = warps_[static_cast<std::size_t>(w)];
      if (ctx.allocated && !ctx.finished) {
        out.push_back(warp_progress_[static_cast<std::size_t>(w)]);
      }
    }
  }

  /// The core's own counters: scheduler-cycles are in cause_cycles only,
  /// and the six legacy counts read zero (SmStats::derive_legacy_counts).
  const SmStats& stats() const { return stats_; }
  const Cache& l1() const { return l1_; }
  const Cache& const_cache() const { return const_cache_; }
  const std::vector<TbTimelineEntry>& timeline() const { return timeline_; }
  SchedulerPolicy& policy() { return *policy_; }
  const SchedulerPolicy& policy() const { return *policy_; }

  /// Optional destination for final per-thread registers, laid out
  /// [ctaid][tid][reg] over the whole grid; set by tests.
  void set_register_dump(RegValue* base) { register_dump_ = base; }

  /// Optional timing-fault injector (owned by the Gpu); nullptr = no
  /// faults. Consulted on the L1/const MSHR allocation path.
  void set_fault_injector(FaultInjector* injector) { faults_ = injector; }

  /// Constant added to every coalesced line address on the *timing* path
  /// (L1/L2/DRAM), giving each co-resident kernel a distinct physical
  /// address space so tenants contend for cache capacity instead of
  /// falsely sharing lines. Functional accesses use the raw per-lane
  /// addresses and are unaffected. Zero (the default, and always the value
  /// for kernel 0) is a strict no-op.
  void set_addr_salt(Addr salt) { addr_salt_ = salt; }

  /// Attaches an observability sink (nullptr detaches). Strictly
  /// observational: simulation results are bit-identical with tracing on
  /// or off, and with no sink attached the instrumentation reduces to a
  /// null-pointer test per issue branch. Attach before the first cycle.
  void set_trace_sink(TraceSink* trace);

  /// Closes all open warp-state slices at simulation end (cycle `end` is
  /// exclusive), so per-state durations account every executed cycle.
  void trace_finalize(Cycle end);

  /// Appends a WarpBlockInfo for every allocated, unfinished warp (why it
  /// cannot issue right now) and fills this SM's memory-side health
  /// snapshot. Used by the forward-progress watchdog; not on the hot path.
  void diagnose(Cycle now, std::vector<WarpBlockInfo>& warps,
                SmHealth& health) const;

 private:
  struct WarpCtx {
    SimtStack stack;
    bool allocated = false;
    bool finished = false;
    Cycle barrier_arrive = 0;  // when parked at the barrier (stats)
    Cycle finish_cycle = 0;    // when the warp retired (stats)
    int tb_slot = -1;
    /// Registers reserved by an in-flight load: set by alloc_pending_load,
    /// cleared when the load completes (splits scoreboard mem vs alu).
    std::uint64_t mem_pending = 0;
  };

  struct TbCtx {
    bool active = false;
    int ctaid = -1;
    std::uint64_t launch_seq = 0;
    int warps_live = 0;
    Cycle start_cycle = 0;
    std::vector<RegValue> smem;
  };

  /// In-flight load instruction bookkeeping (one per issued load).
  struct PendingLoad {
    int warp = -1;
    std::uint8_t dst = kNoReg;
    int outstanding = 0;
    bool valid = false;
  };

  /// Current LDST-unit operation: remaining global transactions. A warp
  /// touches at most kWarpSize distinct lines, so the line list is a fixed
  /// in-place array — no per-instruction heap allocation.
  struct MemOp {
    bool valid = false;
    int warp = -1;
    Addr lines[kWarpSize];
    int num_lines = 0;
    int next = 0;
    MemReqKind kind = MemReqKind::kRead;
    std::uint32_t token = kNoToken;
    bool is_const = false;  // route through the constant cache
  };

  static constexpr std::uint32_t kNoToken = 0xFFFFFFFFu;

  /// Per-instruction static properties behind a warp's issue bits, packed
  /// into one flat table indexed by pc and precomputed at construction, so
  /// refresh_issue_bits never touches Instruction or OpcodeInfo.
  struct InstMeta {
    /// Registers whose pending writeback blocks issue: Scoreboard::regs_of,
    /// or every register for exit (a warp retires only once its writebacks
    /// and loads have drained, so its slot is never reused under them).
    std::uint64_t regs = 0;
    FuType fu = FuType::kSpInt;
    bool in_spin = false;  // pc lies inside a detected spin-wait loop
  };

  // -- cycle phases (each returns "did any work") ---------------------------
  bool drain_responses(Cycle now);
  bool drain_writebacks(Cycle now);
  bool ldst_cycle(Cycle now);
  bool issue_cycle(Cycle now);
  /// Counts `count` cycles of scheduler `sched` as `cause` in cause_cycles
  /// and the trace sink's on_sched_cycles.
  void count_cause(int sched, StallCause cause, Cycle count);

  // -- issue helpers --------------------------------------------------------
  /// Re-derives warp `warp`'s bits in hazard_mask_, mem_wait_mask_,
  /// spin_mask_, sfu_mask_ and ldst_mask_ from inst_meta_[warp_pc_[warp]],
  /// its scoreboard and its pending-load mask. Called wherever one of those
  /// inputs changes: TB launch and resume, the end of issue_warp, a
  /// scoreboard release and a load's final transaction.
  void refresh_issue_bits(int warp);
  /// PROSIM_CHECKs each candidate's dense pc, issue bits and refill bit
  /// against a from-scratch derivation from its SIMT stack, instruction,
  /// scoreboard and pending loads. Compiled and called only where
  /// PROSIM_DEBUG_CHECKS is defined (Debug and sanitized builds).
  void check_issue_bits(std::uint64_t candidates, Cycle now) const;
  /// Warps whose instruction's functional unit cannot accept this cycle.
  std::uint64_t fu_busy_mask(Cycle now) const {
    return (sfu_ready_at_ > now ? sfu_mask_ : 0) |
           (ldst_op_.valid || ldst_busy_until_ > now ? ldst_mask_ : 0);
  }
  /// The warp slots of TB slot `tb_slot`, as a warp mask.
  std::uint64_t tb_bits(int tb_slot) const {
    return tb_warp_mask(warps_per_tb_, tb_slot);
  }
  /// How many of TB slot `tb_slot`'s warps are parked at its barrier.
  int warps_at_barrier(int tb_slot) const {
    return std::popcount(parked_mask_ & tb_bits(tb_slot));
  }
  /// mem_.can_inject, recording the port that refused the line.
  bool can_inject(Addr line);
  bool fu_can_accept(const Instruction& inst, Cycle now) const;
  void issue_warp(int warp, const Instruction& inst, Cycle now);
  void execute_alu(int warp, const Instruction& inst, ActiveMask active);
  void execute_memory(int warp, const Instruction& inst, ActiveMask active,
                      Cycle now);
  void execute_branch(int warp, const Instruction& inst, ActiveMask active);
  void do_barrier(int warp, Cycle now);
  void do_exit(int warp, ActiveMask active, Cycle now);
  void release_barrier(int tb_slot, Cycle now);
  void finish_warp(int warp, Cycle now);
  void retire_tb(int tb_slot, Cycle now);
  /// The half launch_tb and resume_tb share: claims the first free slot and
  /// opens its TbCtx, lets `fill(slot, tb)` set up the TB and its warps,
  /// then counts it resident and announces it to the policy and trace sink.
  template <typename Fill>
  void claim_tb_slot(int ctaid, Cycle now, Fill&& fill);
  /// The half retire_tb and take_yield_checkpoint share: closes the slot's
  /// timeline span, announces it to the policy and trace sink, frees it.
  void release_tb_slot(int tb_slot, Cycle now);

  /// Refines an idle scheduler cycle with `candidates` considered warps,
  /// all refilling (fetch > barrier > finish > throttled > no-warp
  /// precedence).
  StallCause classify_idle(int sched, std::uint64_t candidates) const;

  // -- tracing helpers (called only with a sink attached) -------------------
  /// Samples warp `warp`'s scheduling state at the end of cycle `now`.
  WarpState trace_state_of(int warp, Cycle now) const;
  /// Emits on_warp_state for every warp whose sampled state changed.
  void trace_warp_states(Cycle now);

  /// Reserves `dst` until all `outstanding` transactions complete; returns
  /// their token.
  std::uint32_t alloc_pending_load(int warp, std::uint8_t dst,
                                   int outstanding);
  void complete_load_transaction(std::uint32_t token, Cycle now);
  /// Reserves `reg` and releases it at cycle `at`.
  void schedule_release(int warp, std::uint8_t reg, Cycle at);

  /// Register `r` of warp `warp`: kWarpSize contiguous lane values. The
  /// register file is laid out [warp][reg][lane], so a TB slot's warps
  /// form one contiguous block; this is the layout's only index formula.
  RegValue* row(int warp, int r) {
    return regs_.data() +
           (static_cast<std::size_t>(warp) * regs_per_thread_ + r) *
               kWarpSize;
  }
  /// row(), or a row of zeros for an absent operand (kNoReg).
  const RegValue* src_row(int warp, std::uint8_t r) {
    static constexpr RegValue kZeroRow[kWarpSize] = {};
    return r == kNoReg ? kZeroRow : row(warp, r);
  }
  int tid_of(int warp, int lane) const {
    const int warp_in_tb = warp - warps_[warp].tb_slot * warps_per_tb_;
    return warp_in_tb * kWarpSize + lane;
  }

  // -- immutable setup ------------------------------------------------------
  const int sm_id_;
  const SmConfig config_;
  const Program& program_;
  GlobalMemory& gmem_;
  MemorySubsystem& mem_;
  std::unique_ptr<SchedulerPolicy> policy_;
  std::function<bool()> tbs_waiting_;
  FaultInjector* faults_ = nullptr;

  int warps_per_tb_;
  int regs_per_thread_;
  int max_resident_tbs_;
  int used_warp_slots_;  // max_resident_tbs_ * warps_per_tb_
  std::vector<InstMeta> inst_meta_;  // indexed by pc

  // -- machine state ---------------------------------------------------------
  std::vector<WarpCtx> warps_;
  /// Per warp slot, the pc its SIMT stack's top entry points at; dense so
  /// the issue scan reads it without touching the stack. Refreshed at TB
  /// launch and resume and at the end of issue_warp, the only places a
  /// stack changes. Stale for finished warps.
  std::vector<std::int32_t> warp_pc_;
  /// Per warp slot, the cycle its instruction buffer refills (next fetch
  /// after an issue, a taken branch or a barrier release); dense beside
  /// warp_pc_ for the same reason.
  std::vector<Cycle> ibuffer_ready_;
  /// Bit w set when ibuffer_ready_[w] was written and may still lie in the
  /// future; the issue scan clears it once that cycle has passed, so the
  /// scan and next_event read only these warps' refill times.
  std::uint64_t refill_mask_ = 0;
  std::vector<TbCtx> tbs_;
  std::vector<RegValue> regs_;
  std::vector<std::uint64_t> warp_progress_;
  std::vector<Cycle> last_issue_;  // per warp slot; reset at TB launch
  std::vector<std::uint64_t> tb_progress_;
  std::vector<int> tb_ctaid_;
  std::vector<std::uint64_t> tb_launch_seq_;
  std::uint64_t next_launch_seq_ = 0;
  int resident_tbs_ = 0;

  /// Bit w set while warp w is allocated, unfinished, and not parked at a
  /// barrier — the candidate superset of the issue stage. Maintained at
  /// launch/finish/barrier transitions.
  std::uint64_t live_mask_ = 0;
  /// Bit w set while warp w is parked at a barrier: the only barrier flag.
  std::uint64_t parked_mask_ = 0;
  /// Bit w set while warp w has finished and its TB is still resident.
  std::uint64_t done_mask_ = 0;
  // Issue bits of each warp's current instruction (refresh_issue_bits); a
  // finished warp's bits are stale and never read.
  /// Blocked on the scoreboard: a pending register in InstMeta::regs.
  std::uint64_t hazard_mask_ = 0;
  /// Blocked on a register an in-flight load reserved.
  std::uint64_t mem_wait_mask_ = 0;
  /// The pc lies inside a detected spin-wait loop.
  std::uint64_t spin_mask_ = 0;
  /// Bit w set once warp w issued since its TB was launched or resumed. A
  /// warp with no issues since (re)launch is never spin-stuck evidence: the
  /// static in-spin pc classification only proves a livelock once the warp
  /// has actually executed under the current memory state. This also
  /// guarantees every demotion round lets the victim retire at least one
  /// instruction, so the preemptive yield rotation can never itself
  /// livelock.
  std::uint64_t issued_mask_ = 0;
  /// The instruction issues to the SFU / the LDST unit.
  std::uint64_t sfu_mask_ = 0;
  std::uint64_t ldst_mask_ = 0;
  /// Bit w set while warp w belongs to a TB with a yield pending: excluded
  /// from issue so the TB drains to a checkpointable state. Zero except in
  /// the short window between request_yield and take_yield_checkpoint.
  std::uint64_t yield_mask_ = 0;
  int pending_yield_slot_ = -1;
  /// Bit w set when warp slot w belongs to hardware scheduler `sched`
  /// (w % num_schedulers == sched), w < used_warp_slots_.
  std::vector<std::uint64_t> sched_mask_;
  /// Per-scheduler stall cause of the last executed no-issue scan;
  /// skip_cycles repeats it (a quiet span's inputs are constant).
  std::vector<StallCause> last_cause_;

  // -- tracing state (engaged only via set_trace_sink) ----------------------
  TraceSink* trace_ = nullptr;
  bool trace_warp_states_enabled_ = false;
  /// Last sampled state and its start cycle, per warp slot.
  std::vector<WarpState> warp_trace_state_;
  std::vector<Cycle> warp_state_since_;
  /// Bit w set while warp w issued in the current cycle (reset per cycle).
  std::uint64_t issued_now_mask_ = 0;

  Scoreboard scoreboard_;
  Cache l1_;
  Mshr<std::uint32_t> l1_mshr_;  // token = pending-load index
  Cache const_cache_;
  Mshr<std::uint32_t> const_mshr_;

  std::vector<PendingLoad> pending_loads_;
  std::vector<std::uint32_t> free_pending_loads_;
  int live_pending_loads_ = 0;

  /// Register releases and L1/constant hits, due in (now, now + span()).
  WbRing wb_;
  MemOp ldst_op_;
  /// Partition whose full request port stopped the last ldst_cycle, or -1.
  int ldst_blocked_port_ = -1;
  Cycle ldst_busy_until_ = 0;
  Cycle sfu_ready_at_ = 0;

  // Scratch (per-issue) lane addresses.
  Addr lane_addrs_[kWarpSize] = {};

  /// Added to every coalesced line address (see set_addr_salt).
  Addr addr_salt_ = 0;

  SmStats stats_;
  std::vector<TbTimelineEntry> timeline_;
  RegValue* register_dump_ = nullptr;
};

}  // namespace prosim
