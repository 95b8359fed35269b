// Top-level GPU simulator: instantiates SMs and the memory subsystem,
// drives the global cycle loop, assigns thread blocks (one whole TB per SM,
// refilled as residents retire — paper §II-C), and collects results.
//
// This is the primary public entry point:
//
//   GlobalMemory mem;
//   setup_inputs(mem);
//   GpuConfig cfg;                       // GTX480 defaults (Table I)
//   cfg.scheduler.kind = SchedulerKind::kPro;
//   GpuResult r = simulate(cfg, program, mem);
//
// Concurrent kernel execution (docs/SERVING.md): the multi-stream
// constructor takes several KernelLaunches — each with its own Program,
// GlobalMemory, and arrival cycle — plus an AdmissionPolicy that decides
// which kernel's TB queue every SM draws from. An SM executes one kernel's
// TBs at a time and rebinds to another kernel only once fully drained
// (TB-drain-granularity sharing; the L1 is flushed by the rebind, as on
// real kernel switches). One admission loop serves every run: the
// single-kernel constructor is a one-launch run under fifo_exclusive that
// reports no GpuResult::kernel_slices.
#pragma once

#include <deque>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/sim_error.hpp"
#include "faults/fault_injector.hpp"
#include "gpu/admission.hpp"
#include "gpu/gpu_config.hpp"
#include "gpu/gpu_result.hpp"
#include "gpu/watchdog.hpp"
#include "isa/program.hpp"
#include "mem/global_memory.hpp"
#include "mem/memory_subsystem.hpp"
#include "sched/tb_scheduler.hpp"
#include "sm/sm_core.hpp"

namespace prosim {

class MetricsCollector;
class EventJournal;
class ObservabilitySession;

/// One kernel of a concurrent (multi-stream) run. `memory` must outlive
/// the Gpu; each kernel mutates its own GlobalMemory, so co-resident
/// kernels interfere only through the shared timing model (L2/DRAM
/// contention), never functionally.
struct KernelLaunch {
  int kernel_id = 0;  ///< must equal the launch's index (arrival order)
  std::string name;
  Program program;
  GlobalMemory* memory = nullptr;
  Cycle arrival = 0;  ///< cycle the launch enters the GPU-level queue
  /// Per-tenant SLO (admission.hpp). Inert under non-preemptive policies:
  /// it neither changes scheduling nor reaches serialized results there.
  TenantSpec tenant;
};

class Gpu {
 public:
  /// `memory` must outlive the Gpu; kernels mutate it in place. The
  /// program is copied (temporaries are safe to pass). Throws SimException
  /// (category `invariant`) on an invalid program. Runs exactly the
  /// one-launch fifo_exclusive run of the concurrent form.
  Gpu(const GpuConfig& config, Program program, GlobalMemory& memory);

  /// Concurrent-kernel form: launches must be ordered by non-decreasing
  /// arrival with kernel_id == index; `admission` is an admission-registry
  /// name ("fifo_exclusive", ...). Per-kernel results land in
  /// GpuResult::kernel_slices. Throws SimException on invalid input or an
  /// unknown admission name.
  Gpu(const GpuConfig& config, std::vector<KernelLaunch> launches,
      const std::string& admission);

  /// The SMs hold callbacks into this object and pointers to its fan-out.
  Gpu(const Gpu&) = delete;
  Gpu& operator=(const Gpu&) = delete;

  /// Runs the kernel to completion and returns the collected results.
  /// Throws SimException when the simulated program misbehaves (deadlock,
  /// livelock, out-of-range accesses) — see run_checked() for the
  /// non-throwing form.
  GpuResult run();

  /// Runs to completion, catching simulation errors: returns either the
  /// results or the structured SimError describing what got stuck.
  Expected<GpuResult> run_checked();

  /// Single-step interface for tests: executes cycle now() and advances
  /// now() to the next cycle anything is due (a step may skip cycles that
  /// would repeat the executed one). Returns true while still running.
  /// Throws SimException like run().
  bool step();
  Cycle now() const { return now_; }
  /// SM `index`. Its state is always current; while it sleeps its
  /// per-cycle counters lag until the next catch-up (collect() and the
  /// step() that returns false bring every SM current).
  const SmCore& sm(int index) const { return *sms_[index]; }
  int num_sms() const { return static_cast<int>(sms_.size()); }

  int num_streams() const { return static_cast<int>(streams_.size()); }
  /// Final per-thread registers of one kernel's grid (record_registers
  /// layout, [ctaid][tid][reg]); empty unless record_registers was set.
  const std::vector<RegValue>& stream_registers(int kernel) const;

  /// Catches every sleeping SM up, then gathers the results.
  GpuResult collect();

  /// Adds an observability sink (see trace/; nullptr is ignored) to the
  /// Gpu's one fan-out. Every sink receives the lifecycle events
  /// (on_sim_event), starting with the kernel arrivals and SM bindings
  /// that precede the attach; sinks that want SM events also see every
  /// SM and policy. Strictly observational — results are bit-identical
  /// with sinks on or off. Attach before the first step()/run().
  void set_trace_sink(TraceSink* sink);

  /// Attaches a time-series metrics collector (metrics/; nullptr is
  /// ignored). It adds no trace sink: the Gpu reads the SM counters into
  /// per-SM/per-kernel/GPU series at every interval boundary (the clock
  /// never jumps past a boundary, which is provably bit-identical) plus
  /// one final partial sample at run end. Same contract as set_trace_sink.
  void set_metrics(MetricsCollector* metrics);

  /// Attaches a serving-lifecycle event journal (metrics/): a sink that
  /// consumes only the lifecycle events. Same contract as set_trace_sink.
  void set_event_journal(EventJournal* journal);

  /// The sink the SMs dispatch to: null when no attached sink wants SM
  /// events, the one such sink, or the fan-out over several.
  const TraceSink* sm_trace_sink() const { return trace_; }

  /// The attached fault injector, or nullptr when faults are disabled.
  const FaultInjector* fault_injector() const { return faults_.get(); }

 private:
  /// Counters of SmCore generations: SM stats plus L1 hits and misses.
  /// add() merges a live core's counters and derives the legacy counts.
  struct CoreTotals {
    SmStats stats;
    std::uint64_t l1_hits = 0;
    std::uint64_t l1_misses = 0;
    void add(const SmCore& sm);
  };

  /// One resident kernel (stream): its launch, TB queue, and the counters
  /// accumulated from SM generations that already rebound away from it.
  struct Stream {
    KernelLaunch launch;
    TbScheduler tbs;
    bool launched_any = false;
    Cycle first_launch = 0;
    bool finished = false;
    Cycle finish = 0;
    CoreTotals acc;  ///< SmCore generations already torn down
    std::vector<RegValue> registers;
    /// Yield-checkpointed TBs awaiting resumption, FIFO (preemptive
    /// admission only; always empty under the legacy policies).
    std::deque<TbCheckpoint> parked;
    std::uint64_t demotions = 0;    ///< TB yields + rebinds away from work
    std::uint64_t resumptions = 0;  ///< parked TBs re-launched
    /// Cycles the stream had runnable work but zero SMs bound to it, up to
    /// preempted_since (see preempted_cycles()).
    std::uint64_t preempted_cycles = 0;
    /// First cycle of the open preempted span, kNoCycle when none is open.
    Cycle preempted_since = kNoCycle;
#ifdef PROSIM_DEBUG_CHECKS
    /// preempted_cycles() recounted by every step (check_preempted).
    std::uint64_t preempted_check = 0;
#endif

    explicit Stream(KernelLaunch l)
        : launch(std::move(l)), tbs(launch.program.info.grid_dim) {}
  };

  Gpu(const GpuConfig& config, std::vector<KernelLaunch> launches,
      std::unique_ptr<AdmissionPolicy> admission, bool per_kernel_report);

  /// Ticks the SMs due at now_, in ascending order: those whose wake time
  /// has come, those with a response at their port head, and those whose
  /// blocked LDST line finds a free slot in the request port it waits on
  /// (SmCore::external_wakeup). Every SM under tick_all_.
  void tick_due_sms();
  /// One executed cycle of SM `s`: catches up its skipped cycles, cycles it,
  /// caches its next wake time and marks it for admission when the cycle
  /// changed what admission reads.
  void tick_sm(int s);
  /// Makes SM `s` due at now_ (wake_at_ and awake_).
  void wake_now(int s);
  /// Moves the sleepers whose wake time has come into awake_ and makes
  /// sleep_min_ exact; nothing to walk while now_ < sleep_min_.
  void wake_sleepers();
  /// The earliest cycle an SM must execute on its own or has a response
  /// ready: the minimum over SMs of wake_at_ and the response-port heads.
  Cycle earliest_sm_wake();
#ifdef PROSIM_DEBUG_CHECKS
  /// PROSIM_CHECKs the due set (`due`, plus the `woken` SMs whose port
  /// still has a free slot) against a full scan of every SM's wake time
  /// and SmCore::external_wakeup, and that every SM outside it, quiet or
  /// drain-only sleeper, could do nothing this cycle (SmCore::check_asleep).
  void check_due_set(std::uint64_t due, std::uint64_t woken) const;
  /// PROSIM_CHECKs earliest_sm_wake() and the memory's next_event()
  /// against full scans of every SM, response port and partition.
  void check_wakes();
#endif
  /// Accounts the cycles SM `s` slept through, [synced_[s], now_), with
  /// skip_cycles. Must run before anything reads its counters or mutates
  /// it; every sleeping cycle repeated the SM's last executed one.
  void sync_sm(int s);
  void sync_all();
  /// Syncs SM `s` before the Gpu mutates it, makes it due at now_ and
  /// marks it and the stream state for re-evaluation.
  void touch_sm(int s);
  /// Marks SM `s` for admission re-evaluation next cycle.
  void mark_dirty(int s) {
    dirty_ |= 1ull << s;
    admission_due_ = true;
  }
  /// Makes every SM bound to stream `k` due at now_: its TB queue just
  /// emptied, which PRO's phase check observes in begin_cycle.
  void wake_bound(int k);
  /// The cycle the step after the one just executed (now_ - 1) must run:
  /// now_ when admission is due or an SM ticked hot, else the earliest
  /// of earliest_sm_wake() and the partitions' wake times, capped by the
  /// watchdog window, max_cycles, the next metrics sample and the next
  /// kernel arrival. Every cycle before it would repeat the executed one.
  Cycle next_step();
  /// Raises the watchdog's verdict when a check window closes at now_,
  /// and the max_cycles overrun.
  void check_progress();

  /// (Re)binds SM `s` to stream `k`: accumulates the outgoing core's
  /// counters into its stream and the per-SM totals, then constructs a
  /// fresh SmCore on stream k's program and memory (fresh L1 — a kernel
  /// switch flushes it).
  void bind_sm(int s, int k);
  /// Run totals so far of SM slot `s` and of stream `k`: the torn-down
  /// generations plus the live cores.
  CoreTotals sm_totals(int s) const;
  CoreTotals kernel_totals(int k) const;

  /// The one admission loop: refill, rebind and (preemptive policies)
  /// yield decisions for the SMs marked for evaluation (see dirty_). An SM
  /// neither ticked nor touched since its last evaluation, under an
  /// unchanged AdmissionView, would repeat its last no-op decision.
  void assign_tbs();
  /// Preemptive-only phases of assign_tbs: parks quiescent yield
  /// victims (before launches) and requests new yields where the policy's
  /// focus demands the SM but every resident TB is spin-stuck (after).
  void harvest_yields();
  void request_yields();
  /// Rebuilds active_/waiting_ when a stream event made them stale.
  /// Returns true when they changed: every SM must then be re-evaluated.
  bool refresh_view();
  /// Records the kernel arrivals reached at now_ (stream events).
  void note_arrivals();
  /// Stream `st` has arrived by cycle `at`, is unfinished and has runnable
  /// work but no SM bound to it.
  bool preempted(const Stream& st, Cycle at) const;
  /// Opens or closes stream `k`'s preempted span at now_ (preemptive only).
  /// Only an SM bound to a stream changes its queues or finishes it, so the
  /// state changes only at an arrival or a bind, the two callers; both
  /// happen inside a step, so the spans are exact.
  void note_preemption(int k);
  /// Stream `st`'s preempted cycles through now_, the open span included.
  std::uint64_t preempted_cycles(const Stream& st) const;
#ifdef PROSIM_DEBUG_CHECKS
  /// Adds `count` cycles to every preempted stream's preempted_check
  /// (`executed` is the first cycle of the span), the per-step count
  /// note_preemption replaces, and PROSIM_CHECKs the two agree at now_.
  void check_preempted(Cycle executed, Cycle count);
#endif
  /// Marks arrived streams whose TBs have all drained as finished (runs
  /// when an SM drained or was touched); the run ends once every stream
  /// finished and the memory subsystem is idle.
  void update_streams();
  /// Unassigned TBs across arrived, unfinished streams (watchdog context).
  int waiting_tbs() const;

  // -- observers (trace/ and metrics/; strictly observational) -------------
  /// Sends one lifecycle event to every attached sink.
  void emit(const SimEvent& event) {
    for (TraceSink* sink : observers_.all) sink->on_sim_event(event);
  }
  /// Records one row of every configured series at cycle now_.
  void sample_metrics();
  /// Emits stream `st`'s finish-time rows (kernel_finish + SLO verdict)
  /// when the run reports per kernel.
  void emit_finish(const Stream& st);
  GpuConfig config_;
  std::vector<std::unique_ptr<Stream>> streams_;
  std::unique_ptr<AdmissionPolicy> admission_;  // never null
  std::unique_ptr<FaultInjector> faults_;  // must precede mem_ (ctor order)
  MemorySubsystem mem_;
  Watchdog watchdog_;
  std::vector<std::unique_ptr<SmCore>> sms_;
  std::vector<int> binding_;  ///< per SM: bound stream id
  /// Counters of torn-down SmCore generations, per SM slot.
  std::vector<CoreTotals> per_sm_acc_;
  std::vector<std::vector<TbTimelineEntry>> timeline_acc_;
  std::vector<TbOrderSample> tb_order_sm0_;
  Cycle now_ = 0;
  int next_sm_ = 0;
  /// What the run reports, never how it runs: kernel slices, kernel-scope
  /// series and kernel_finish/SLO rows, or registers and the SM0 TB order.
  bool per_kernel_report_ = false;
  /// Every SM executes every cycle and the clock never jumps: the
  /// PROSIM_NO_FASTFORWARD reference, and the fault-injection mode.
  bool tick_all_ = false;
  /// Per SM: the earliest cycle it must execute again (now + 1 after a hot
  /// cycle, SmCore::next_event after any other), and the first
  /// cycle its counters do not yet account.
  std::vector<Cycle> wake_at_;
  std::vector<Cycle> synced_;
  /// SMs due at the next executed cycle: ticked hot in the last one, or
  /// touched, rebound or woken since. Every other SM sleeps until its
  /// wake_at_, and sleep_min_ is a lower bound on those: an SM going to
  /// sleep lowers it, and wake_sleepers and earliest_sm_wake make it
  /// exact.
  std::uint64_t awake_ = 0;
  Cycle sleep_min_ = kNoCycle;
  /// One bit per SM.
  std::uint64_t all_sms_ = 0;

  // -- event-driven admission ------------------------------------------------
  /// The AdmissionView lists, rebuilt only after a stream event (arrival,
  /// a TB queue or parked queue filling or emptying, a rebind, a finish).
  std::vector<int> active_;
  std::vector<int> waiting_;
  bool view_stale_ = true;
  /// Bumped whenever active_/waiting_ change: AdmissionView::generation.
  std::uint64_t view_generation_ = 0;
  /// SMs whose tick changed what admission reads (see tick_sm), touched or
  /// rebound since their last admission evaluation, or under a view that
  /// changed since (dirty_); and the set
  /// this cycle's admission evaluates (eval_).
  std::uint64_t dirty_ = 0;
  std::uint64_t eval_ = 0;
  /// Admission has something to evaluate next cycle.
  bool admission_due_ = true;
  /// An SM drained or was touched: a stream may have finished.
  bool streams_check_ = false;
  /// Per stream: SMs bound to it.
  std::vector<int> bound_sms_;
  /// Index of the first stream whose arrival is still ahead, and its
  /// arrival cycle (kNoCycle once every stream arrived).
  std::size_t next_arrival_ = 0;
  Cycle next_arrival_cycle_ = 0;
  /// Streams not yet finished.
  int unfinished_ = 0;

  /// The one observer fan-out: lifecycle events go to every attached
  /// sink, SM events to those that want them.
  class Fanout final : public TraceSink {
   public:
    std::vector<TraceSink*> all;
    std::vector<TraceSink*> sm;

    bool wants_warp_states() const override {
      for (const TraceSink* s : sm) {
        if (s->wants_warp_states()) return true;
      }
      return false;
    }
    void on_sched_cycles(int sm_id, int sched, StallCause cause,
                         Cycle count) override {
      for (TraceSink* s : sm) s->on_sched_cycles(sm_id, sched, cause, count);
    }
    void on_warp_state(int sm_id, int warp, WarpState prev, Cycle since,
                       WarpState next, Cycle now) override {
      for (TraceSink* s : sm) {
        s->on_warp_state(sm_id, warp, prev, since, next, now);
      }
    }
    void on_tb_launch(int sm_id, int ctaid, Cycle now) override {
      for (TraceSink* s : sm) s->on_tb_launch(sm_id, ctaid, now);
    }
    void on_tb_retire(int sm_id, int ctaid, Cycle start, Cycle end) override {
      for (TraceSink* s : sm) s->on_tb_retire(sm_id, ctaid, start, end);
    }
    void on_pro_sort(int sm_id, Cycle now) override {
      for (TraceSink* s : sm) s->on_pro_sort(sm_id, now);
    }
  };
  Fanout observers_;
  /// What the SMs dispatch to: null, the single SM sink, or &observers_.
  TraceSink* trace_ = nullptr;
  MetricsCollector* metrics_ = nullptr;

  // -- self-profiling (SimProfile) -------------------------------------------
  std::uint64_t ff_spans_ = 0;
  std::uint64_t ff_skipped_cycles_ = 0;
  std::uint64_t sm_cycles_ticked_ = 0;
  std::uint64_t admission_evals_ = 0;

  /// Flat per-kernel SLO context handed to AdmissionView (indexed by
  /// kernel id; built with the streams).
  std::vector<Cycle> arrivals_;
  std::vector<TenantSpec> tenants_;
};

/// One-shot convenience wrapper (throws SimException on stuck programs).
/// An optional observability session watches the run; it never changes
/// results.
GpuResult simulate(const GpuConfig& config, const Program& program,
                   GlobalMemory& memory, ObservabilitySession* obs = nullptr);

/// One-shot non-throwing wrapper: construction and run errors come back as
/// a structured SimError instead of an exception.
Expected<GpuResult> simulate_checked(const GpuConfig& config,
                                     const Program& program,
                                     GlobalMemory& memory,
                                     ObservabilitySession* obs = nullptr);

/// Creates a scheduler policy instance from a spec (one per SM).
std::unique_ptr<SchedulerPolicy> make_policy(const SchedulerSpec& spec);

}  // namespace prosim
