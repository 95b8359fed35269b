#include "sm/sm_core.hpp"

#include <algorithm>
#include <bit>
#include <cstring>

#include "common/check.hpp"
#include "isa/semantics.hpp"
#include "sm/coalescer.hpp"

namespace prosim {

namespace {

/// Calls f(lane) for each active lane in ascending lane order, the order
/// in which a warp's memory side effects become visible.
template <typename F>
void for_each_lane(ActiveMask active, F&& f) {
  while (active != 0) {
    f(std::countr_zero(active));
    active &= active - 1;
  }
}

/// Writes f(lane) into the active lanes of register row `dst`. Every lane
/// is evaluated in one branch-free loop the compiler can vectorize; a full
/// mask writes `dst` directly, any other mask blends the active lanes in
/// from a scratch row. f(lane) reads only index `lane` of its source rows,
/// so `dst` may alias one of them.
template <typename F>
void write_lanes(RegValue* dst, ActiveMask active, F&& f) {
  if (active == kFullMask) {
    for (int lane = 0; lane < kWarpSize; ++lane) dst[lane] = f(lane);
    return;
  }
  RegValue out[kWarpSize];
  for (int lane = 0; lane < kWarpSize; ++lane) out[lane] = f(lane);
  for_each_lane(active, [&](int lane) { dst[lane] = out[lane]; });
}

}  // namespace

void SmStats::derive_legacy_counts() {
  std::uint64_t by_class[4] = {};
  for (int c = 0; c < kNumStallCauses; ++c) {
    const LegacyStallClass cls = legacy_stall_class(static_cast<StallCause>(c));
    by_class[static_cast<int>(cls)] += cause_cycles[c];
  }
  issued = by_class[static_cast<int>(LegacyStallClass::kIssued)];
  idle_stalls = by_class[static_cast<int>(LegacyStallClass::kIdle)];
  scoreboard_stalls = by_class[static_cast<int>(LegacyStallClass::kScoreboard)];
  pipeline_stalls = by_class[static_cast<int>(LegacyStallClass::kPipeline)];
  sched_cycles = issued + idle_stalls + scoreboard_stalls + pipeline_stalls;
  // A warp instruction issues in exactly the scheduler-cycles counted
  // kIssued: a skipped span only repeats an all-stall cycle.
  warp_insts = cause_cycles[static_cast<int>(StallCause::kIssued)];
}

SmCore::SmCore(int sm_id, const SmConfig& config, const Program& program,
               GlobalMemory& gmem, MemorySubsystem& mem,
               std::unique_ptr<SchedulerPolicy> policy,
               std::function<bool()> tbs_waiting)
    : sm_id_(sm_id),
      config_(config),
      program_(program),
      gmem_(gmem),
      mem_(mem),
      policy_(std::move(policy)),
      tbs_waiting_(std::move(tbs_waiting)),
      warps_per_tb_(program.num_warps_per_tb()),
      regs_per_thread_(program.info.regs_per_thread),
      max_resident_tbs_(compute_residency(config, program.info)),
      used_warp_slots_(max_resident_tbs_ * warps_per_tb_),
      scoreboard_(config.max_warps),
      l1_(config.l1d),
      l1_mshr_(config.l1_mshr),
      const_cache_(config.const_cache),
      const_mshr_(config.const_mshr),
      wb_(max_writeback_latency(config)) {
  PROSIM_CHECK_MSG(max_resident_tbs_ > 0,
                   "kernel does not fit on the SM at all");
  PROSIM_CHECK_MSG(config_.max_warps <= 64,
                   "ready masks are 64-bit: max_warps must be <= 64");
  warps_.resize(config_.max_warps);
  warp_pc_.assign(static_cast<std::size_t>(config_.max_warps), 0);
  ibuffer_ready_.assign(static_cast<std::size_t>(config_.max_warps), 0);
  tbs_.resize(max_resident_tbs_);
  regs_.assign(static_cast<std::size_t>(config_.max_warps) * kWarpSize *
                   regs_per_thread_,
               0);
  warp_progress_.assign(config_.max_warps, 0);
  last_issue_.assign(static_cast<std::size_t>(config_.max_warps), 0);
  tb_progress_.assign(max_resident_tbs_, 0);
  tb_ctaid_.assign(max_resident_tbs_, -1);
  tb_launch_seq_.assign(max_resident_tbs_, 0);

  sched_mask_.assign(static_cast<std::size_t>(config_.num_schedulers), 0);
  for (int w = 0; w < used_warp_slots_; ++w) {
    sched_mask_[static_cast<std::size_t>(w % config_.num_schedulers)] |=
        1ull << w;
  }
  last_cause_.assign(static_cast<std::size_t>(config_.num_schedulers),
                     StallCause::kNoWarp);

  inst_meta_.resize(program_.code.size());
  for (std::size_t pc = 0; pc < program_.code.size(); ++pc) {
    const Instruction& inst = program_.code[pc];
    inst_meta_[pc] = {inst.info().is_exit ? ~std::uint64_t{0}
                                          : Scoreboard::regs_of(inst),
                      inst.info().fu, false};
  }

  // Static spin-loop detection for stall attribution: a backward branch
  // whose body consists purely of memory polls (loads/atomics), setp, and
  // the branch itself is a busy-wait — the warp re-reads a location until
  // another warp changes it. Bodies that compute (other ALU), store, or
  // synchronize do real work and stay unmarked.
  for (std::size_t pc = 0; pc < program_.code.size(); ++pc) {
    const Instruction& bra = program_.code[pc];
    if (bra.op != Opcode::kBra || bra.target < 0 ||
        static_cast<std::size_t>(bra.target) > pc) {
      continue;
    }
    bool pure_poll = false;
    for (std::size_t q = static_cast<std::size_t>(bra.target); q <= pc; ++q) {
      const Instruction& inst = program_.code[q];
      const OpcodeInfo& oi = inst.info();
      if (q == pc) break;  // the backward branch itself
      if (oi.is_load || oi.is_atomic || inst.op == Opcode::kSetp) {
        if (oi.is_load || oi.is_atomic) pure_poll = true;
        continue;
      }
      pure_poll = false;
      break;
    }
    if (!pure_poll) continue;
    for (std::size_t q = static_cast<std::size_t>(bra.target); q <= pc; ++q) {
      inst_meta_[q].in_spin = true;
    }
  }

  PolicyContext ctx;
  ctx.sm_id = sm_id_;
  ctx.num_warp_slots = used_warp_slots_;
  ctx.num_tb_slots = max_resident_tbs_;
  ctx.warps_per_tb = warps_per_tb_;
  ctx.num_schedulers = config_.num_schedulers;
  ctx.warp_progress = warp_progress_.data();
  ctx.tb_progress = tb_progress_.data();
  ctx.tb_ctaid = tb_ctaid_.data();
  ctx.tb_launch_seq = tb_launch_seq_.data();
  ctx.tbs_waiting = tbs_waiting_;
  policy_->attach(ctx);
}

int SmCore::compute_residency(const SmConfig& config, const KernelInfo& info) {
  const int wpt = (info.block_dim + kWarpSize - 1) / kWarpSize;
  const int padded_threads = wpt * kWarpSize;
  int limit = config.max_tbs;
  limit = std::min(limit, config.max_threads / padded_threads);
  limit = std::min(limit, config.max_warps / wpt);
  if (info.smem_bytes > 0)
    limit = std::min(limit, config.smem_bytes / info.smem_bytes);
  const int regs_per_tb = info.regs_per_thread * padded_threads;
  if (regs_per_tb > 0)
    limit = std::min(limit, config.num_registers / regs_per_tb);
  return limit;
}

Cycle SmCore::max_writeback_latency(const SmConfig& config) {
  const Cycle smem_worst = config.smem_latency + kWarpSize - 1;
  const Cycle latencies[] = {config.alu_latency,    config.fp_latency,
                             config.sfu_latency,    config.l1_hit_latency,
                             config.const_latency,  config.smem_latency};
  PROSIM_REQUIRE(std::ranges::min(latencies) > 0,
                 SimError::make(ErrorCategory::kInvariant,
                                "SM writeback latencies must be at least 1"));
  return std::max(std::ranges::max(latencies), smem_worst);
}

bool SmCore::can_accept_tb() const { return resident_tbs_ < max_resident_tbs_; }

template <typename Fill>
void SmCore::claim_tb_slot(int ctaid, Cycle now, Fill&& fill) {
  PROSIM_CHECK(can_accept_tb());
  int slot = -1;
  for (int t = 0; t < max_resident_tbs_; ++t) {
    if (!tbs_[t].active) {
      slot = t;
      break;
    }
  }
  PROSIM_CHECK(slot >= 0);

  TbCtx& tb = tbs_[slot];
  tb.active = true;
  tb.ctaid = ctaid;
  tb.launch_seq = next_launch_seq_++;
  tb.start_cycle = now;
  tb_ctaid_[slot] = ctaid;
  tb_launch_seq_[slot] = tb.launch_seq;
  issued_mask_ &= ~tb_bits(slot);
  fill(slot, tb);
  ++resident_tbs_;
  policy_->on_tb_launch(slot);
  if (trace_ != nullptr) trace_->on_tb_launch(sm_id_, ctaid, now);
}

void SmCore::launch_tb(int ctaid, Cycle now) {
  claim_tb_slot(ctaid, now, [&](int slot, TbCtx& tb) {
    tb.warps_live = warps_per_tb_;
    tb.smem.assign(static_cast<std::size_t>(program_.info.smem_bytes + 7) / 8,
                   0);
    tb_progress_[slot] = 0;

    for (int i = 0; i < warps_per_tb_; ++i) {
      const int w = slot * warps_per_tb_ + i;
      WarpCtx& wc = warps_[w];
      const int threads =
          std::min(kWarpSize, program_.info.block_dim - i * kWarpSize);
      PROSIM_CHECK(threads > 0);
      const ActiveMask mask =
          threads == kWarpSize ? kFullMask : ((1u << threads) - 1);
      wc.stack.reset(mask);
      warp_pc_[w] = 0;
      wc.allocated = true;
      wc.finished = false;
      wc.tb_slot = slot;
      ibuffer_ready_[w] = now + 1;
      refill_mask_ |= 1ull << w;
      live_mask_ |= 1ull << w;
      scoreboard_.reset(w);
      refresh_issue_bits(w);
      warp_progress_[w] = 0;
      last_issue_[static_cast<std::size_t>(w)] = now;
      std::memset(row(w, 0), 0,
                  static_cast<std::size_t>(regs_per_thread_) * kWarpSize *
                      sizeof(RegValue));
    }
  });
}

void SmCore::release_tb_slot(int tb_slot, Cycle now) {
  TbCtx& tb = tbs_[tb_slot];
  timeline_.push_back({tb.ctaid, tb.start_cycle, now});
  policy_->on_tb_finish(tb_slot);
  if (trace_ != nullptr)
    trace_->on_tb_retire(sm_id_, tb.ctaid, tb.start_cycle, now);
  tb.active = false;
  tb_ctaid_[tb_slot] = -1;
  parked_mask_ &= ~tb_bits(tb_slot);
  done_mask_ &= ~tb_bits(tb_slot);
  --resident_tbs_;
}

void SmCore::retire_tb(int tb_slot, Cycle now) {
  const TbCtx& tb = tbs_[tb_slot];
  ++stats_.tbs_executed;

  // Warp-level divergence: spread of sibling-warp completion times.
  Cycle first = kNoCycle;
  Cycle last = 0;
  for (int i = 0; i < warps_per_tb_; ++i) {
    const Cycle f = warps_[tb_slot * warps_per_tb_ + i].finish_cycle;
    first = std::min(first, f);
    last = std::max(last, f);
  }
  stats_.warp_finish_disparity_sum += last - first;

  if (register_dump_ != nullptr) {
    // The dump is [ctaid][tid][reg]: transpose each warp's lane rows.
    for (int tid = 0; tid < program_.info.block_dim; ++tid) {
      const int w = tb_slot * warps_per_tb_ + tid / kWarpSize;
      const int lane = tid % kWarpSize;
      RegValue* out =
          register_dump_ +
          (static_cast<std::size_t>(tb.ctaid) * program_.info.block_dim +
           tid) *
              regs_per_thread_;
      for (int r = 0; r < regs_per_thread_; ++r) out[r] = row(w, r)[lane];
    }
  }
  release_tb_slot(tb_slot, now);
}

bool SmCore::drained() const {
  return resident_tbs_ == 0 && !ldst_op_.valid && wb_.empty() &&
         live_pending_loads_ == 0;
}

// ---------------------------------------------------------------------------
// Preemptive yield/resume (preemptive_slo admission; docs/SERVING.md)
// ---------------------------------------------------------------------------

bool SmCore::all_resident_spin_stuck() const {
  // live_mask_ holds exactly the resident TBs' unfinished, unparked warps;
  // each must spin and have issued since its TB was (re)launched.
  const bool stuck = resident_tbs_ > 0 &&
                     (live_mask_ & ~(spin_mask_ & issued_mask_)) == 0;
#ifdef PROSIM_DEBUG_CHECKS
  // The same verdict from each resident warp's SIMT stack, finish and
  // barrier flags, and last issue cycle.
  bool scan = resident_tbs_ > 0;
  for (int t = 0; t < max_resident_tbs_ && scan; ++t) {
    if (!tbs_[t].active) continue;
    for (int i = 0; i < warps_per_tb_; ++i) {
      const int w = t * warps_per_tb_ + i;
      const WarpCtx& wc = warps_[w];
      if (wc.finished || (parked_mask_ & (1ull << w)) != 0) continue;
      // A warp cannot issue in its launch cycle (its fetch is due next).
      const bool issued = last_issue_[static_cast<std::size_t>(w)] >
                          tbs_[t].start_cycle;
      if (!issued ||
          !inst_meta_[static_cast<std::size_t>(wc.stack.pc())].in_spin) {
        scan = false;
        break;
      }
    }
  }
  PROSIM_CHECK(stuck == scan);
#endif
  return stuck;
}

int SmCore::oldest_tb_slot() const {
  int best = -1;
  for (int t = 0; t < max_resident_tbs_; ++t) {
    if (!tbs_[t].active) continue;
    if (best < 0 || tbs_[t].launch_seq < tbs_[best].launch_seq) best = t;
  }
  return best;
}

void SmCore::request_yield(int tb_slot) {
  PROSIM_CHECK(pending_yield_slot_ < 0 && tbs_[tb_slot].active);
  pending_yield_slot_ = tb_slot;
  yield_mask_ = tb_bits(tb_slot);
}

bool SmCore::yield_quiescent() const {
  PROSIM_CHECK(pending_yield_slot_ >= 0);
  const int slot = pending_yield_slot_;
  // An LDST op still dispatching for one of the TB's warps pins the TB; an
  // in-flight transaction with no scoreboard reservation (a store, or a
  // dst-less atomic whose functional effect landed at issue) does not —
  // its eventual completion never touches warp state.
  if (ldst_op_.valid && warps_[ldst_op_.warp].tb_slot == slot) return false;
  for (int i = 0; i < warps_per_tb_; ++i) {
    // pending_mask == 0 proves no writeback or in-flight load can still
    // name this warp: every reserve is released exactly once, by the
    // wb_ event or the final load transaction.
    if (scoreboard_.pending_mask(slot * warps_per_tb_ + i) != 0) return false;
  }
  return true;
}

TbCheckpoint SmCore::take_yield_checkpoint(Cycle now) {
  PROSIM_CHECK(pending_yield_slot_ >= 0 && yield_quiescent());
  const int slot = pending_yield_slot_;
  TbCtx& tb = tbs_[slot];

  TbCheckpoint ckpt;
  ckpt.ctaid = tb.ctaid;
  ckpt.tb_progress = tb_progress_[slot];
  ckpt.smem = std::move(tb.smem);
  ckpt.warps.resize(static_cast<std::size_t>(warps_per_tb_));
  for (int i = 0; i < warps_per_tb_; ++i) {
    const int w = slot * warps_per_tb_ + i;
    WarpCtx& wc = warps_[w];
    TbCheckpoint::WarpCkpt& out = ckpt.warps[static_cast<std::size_t>(i)];
    out.stack = wc.stack;
    out.finished = wc.finished;
    out.at_barrier = (parked_mask_ & (1ull << w)) != 0;
    out.barrier_arrive = wc.barrier_arrive;
    out.finish_cycle = wc.finish_cycle;
    out.progress = warp_progress_[w];
    live_mask_ &= ~(1ull << w);
    wc.allocated = false;
  }
  const RegValue* block = row(slot * warps_per_tb_, 0);
  ckpt.regs.assign(block, block + static_cast<std::size_t>(warps_per_tb_) *
                                      regs_per_thread_ * kWarpSize);

  // Close the residency span for the timeline, but the TB is not executed:
  // tbs_executed and the finish-disparity stat count only true retirements.
  release_tb_slot(slot, now);
  yield_mask_ = 0;
  pending_yield_slot_ = -1;
  return ckpt;
}

void SmCore::resume_tb(const TbCheckpoint& ckpt, Cycle now) {
  claim_tb_slot(ckpt.ctaid, now, [&](int slot, TbCtx& tb) {
    tb.warps_live = 0;
    tb.smem = ckpt.smem;
    tb_progress_[slot] = ckpt.tb_progress;

    for (int i = 0; i < warps_per_tb_; ++i) {
      const int w = slot * warps_per_tb_ + i;
      const TbCheckpoint::WarpCkpt& in =
          ckpt.warps[static_cast<std::size_t>(i)];
      WarpCtx& wc = warps_[w];
      wc.stack = in.stack;
      if (!in.finished) warp_pc_[w] = in.stack.pc();
      wc.allocated = true;
      wc.finished = in.finished;
      wc.barrier_arrive = in.barrier_arrive;
      wc.finish_cycle = in.finish_cycle;
      wc.tb_slot = slot;
      ibuffer_ready_[w] = now + 1;
      refill_mask_ |= 1ull << w;
      scoreboard_.reset(w);
      refresh_issue_bits(w);
      warp_progress_[w] = in.progress;
      last_issue_[static_cast<std::size_t>(w)] = now;
      if (in.finished) {
        done_mask_ |= 1ull << w;
      } else {
        ++tb.warps_live;
        (in.at_barrier ? parked_mask_ : live_mask_) |= 1ull << w;
      }
    }
    // A checkpointable TB always had a non-barrier live warp (the spinner),
    // so the restored barrier can never be complete-but-unreleased.
    PROSIM_CHECK(tb.warps_live > warps_at_barrier(slot));
    std::memcpy(row(slot * warps_per_tb_, 0), ckpt.regs.data(),
                ckpt.regs.size() * sizeof(RegValue));
  });
}

// ---------------------------------------------------------------------------
// Cycle phases
// ---------------------------------------------------------------------------

SmCore::Tick SmCore::cycle(Cycle now) {
  stats_.occupancy_tb_cycles += static_cast<std::uint64_t>(resident_tbs_);
  bool drained = drain_responses(now);
  drained |= drain_writebacks(now);
  // The LDST line retries: it waits on no port until it is refused again.
  if (ldst_blocked_port_ >= 0) {
    mem_.cancel_request_wait(ldst_blocked_port_, sm_id_);
  }
  ldst_blocked_port_ = -1;
  bool hot = ldst_op_.valid && ldst_cycle(now);
  hot |= issue_cycle(now);
  if (trace_warp_states_enabled_) trace_warp_states(now);
  return hot ? Tick::kHot : drained ? Tick::kDrained : Tick::kQuiet;
}

void SmCore::set_trace_sink(TraceSink* trace) {
  trace_ = trace;
  trace_warp_states_enabled_ = trace != nullptr && trace->wants_warp_states();
  if (trace_ != nullptr) {
    warp_trace_state_.assign(static_cast<std::size_t>(config_.max_warps),
                             WarpState::kUnallocated);
    warp_state_since_.assign(static_cast<std::size_t>(config_.max_warps), 0);
  }
  policy_->set_trace(trace, sm_id_);
}

void SmCore::trace_finalize(Cycle end) {
  if (!trace_warp_states_enabled_) return;
  for (int w = 0; w < used_warp_slots_; ++w) {
    const WarpState prev = warp_trace_state_[static_cast<std::size_t>(w)];
    if (prev == WarpState::kUnallocated) continue;
    trace_->on_warp_state(sm_id_, w, prev,
                          warp_state_since_[static_cast<std::size_t>(w)],
                          WarpState::kUnallocated, end);
    warp_trace_state_[static_cast<std::size_t>(w)] = WarpState::kUnallocated;
    warp_state_since_[static_cast<std::size_t>(w)] = end;
  }
}

void SmCore::skip_cycles(Cycle count) {
  stats_.occupancy_tb_cycles +=
      count * static_cast<std::uint64_t>(resident_tbs_);
  // A skip only follows a cycle in which every scheduler recorded a stall,
  // and every input to the classification is constant across the span
  // (next_event and external_wakeup cover them all), so the last cause
  // repeats verbatim. Warp states are likewise constant: no per-warp events
  // are needed, and slice durations span the skip via the transition cycle
  // numbers.
  for (int sched = 0; sched < config_.num_schedulers; ++sched)
    count_cause(sched, last_cause_[static_cast<std::size_t>(sched)], count);
}

Cycle SmCore::next_event(Cycle now) const {
  // A valid LDST op that dispatched made the cycle hot; one that did not
  // waits on external_wakeup(), so it sets no time here.
  Cycle t = wb_.next_after(now);
  if (sfu_ready_at_ > now) t = std::min(t, sfu_ready_at_);
  if (ldst_busy_until_ > now) t = std::min(t, ldst_busy_until_);
  std::uint64_t pending = live_mask_ & refill_mask_;
  while (pending != 0) {
    const int w = std::countr_zero(pending);
    pending &= pending - 1;
    const Cycle r = ibuffer_ready_[w];
    if (r > now) t = std::min(t, r);
  }
  t = std::min(t, policy_->next_wakeup(now));
  return t;
}

bool SmCore::drain_responses(Cycle now) {
  bool any = false;
  while (mem_.has_response(sm_id_)) {
    any = true;
    const MemResponse resp = mem_.pop_response(sm_id_);
    if (resp.is_atomic) {
      // Atomics bypass the L1; the token (if any) is the pending load.
      if (resp.token != kNoToken) complete_load_transaction(resp.token, now);
      continue;
    }
    if (resp.is_const) {
      const_cache_.fill(resp.line_addr, /*dirty=*/false);
      for (std::uint32_t token : const_mshr_.release(resp.line_addr)) {
        complete_load_transaction(token, now);
      }
      continue;
    }
    if (config_.l1_enabled) l1_.fill(resp.line_addr, /*dirty=*/false);
    for (std::uint32_t token : l1_mshr_.release(resp.line_addr)) {
      complete_load_transaction(token, now);
    }
  }
  return any;
}

bool SmCore::drain_writebacks(Cycle now) {
  return wb_.drain(now, [&](const WbEvent& ev) {
    if (ev.kind == WbKind::kRegRelease) {
      scoreboard_.release(ev.warp, ev.reg);
      refresh_issue_bits(ev.warp);
    } else {
      complete_load_transaction(ev.token, now);
    }
  });
}

bool SmCore::ldst_cycle(Cycle now) {
  const int start = ldst_op_.next;
  int budget = config_.ldst_dispatch_per_cycle;
  while (budget > 0 && ldst_op_.next < ldst_op_.num_lines) {
    const Addr line = ldst_op_.lines[ldst_op_.next];
    switch (ldst_op_.kind) {
      case MemReqKind::kRead: {
        // Constant fetches go through the per-SM constant cache; global
        // loads through the L1D. Same miss machinery, separate tags.
        const bool is_const = ldst_op_.is_const;
        Cache& cache = is_const ? const_cache_ : l1_;
        Mshr<std::uint32_t>& mshr = is_const ? const_mshr_ : l1_mshr_;
        const bool cacheable = is_const || config_.l1_enabled;
        const Cycle hit_latency =
            is_const ? config_.const_latency : config_.l1_hit_latency;
        if (cacheable && cache.access(line)) {
          ++cache.hits;
          wb_.push({now + hit_latency, WbKind::kLoadComplete, 0, 0,
                    ldst_op_.token});
          break;
        }
        // A blocked line retries next cycle; only a response (MSHR
        // release, fill) or a freed port can change its verdict.
        if (mshr.has(line)) {
          if (!mshr.can_merge(line)) return ldst_op_.next != start;
          ++cache.misses;
          ++mshr.merges;
          mshr.merge(line, ldst_op_.token);
          break;
        }
        if (!mshr.can_allocate() || !can_inject(line) ||
            (faults_ != nullptr && faults_->mshr_blocked(sm_id_, now))) {
          return ldst_op_.next != start;
        }
        ++cache.misses;
        mshr.allocate(line, ldst_op_.token);
        mem_.inject({line, MemReqKind::kRead, sm_id_, 0, is_const}, now);
        break;
      }
      case MemReqKind::kWrite: {
        if (!can_inject(line)) return ldst_op_.next != start;
        l1_.invalidate(line);  // write-evict, write-through
        mem_.inject({line, MemReqKind::kWrite, sm_id_, 0, false}, now);
        break;
      }
      case MemReqKind::kAtomic: {
        if (!can_inject(line)) return ldst_op_.next != start;
        l1_.invalidate(line);  // atomics operate at the L2
        mem_.inject({line, MemReqKind::kAtomic, sm_id_, ldst_op_.token, false},
                    now);
        break;
      }
    }
    ++ldst_op_.next;
    --budget;
  }
  if (ldst_op_.next == ldst_op_.num_lines) ldst_op_.valid = false;
  return true;
}

bool SmCore::can_inject(Addr line) {
  if (mem_.can_inject(line)) return true;
  ldst_blocked_port_ = mem_.interconnect().partition_of(line);
  mem_.wait_request_slot(ldst_blocked_port_, sm_id_);
  return false;
}

bool SmCore::fu_can_accept(const Instruction& inst, Cycle now) const {
  switch (inst.info().fu) {
    case FuType::kSpInt:
    case FuType::kSpFp:
    case FuType::kControl:
      return true;
    case FuType::kSfu:
      return sfu_ready_at_ <= now;
    case FuType::kMem:
      return !ldst_op_.valid && ldst_busy_until_ <= now;
  }
  return false;
}

void SmCore::refresh_issue_bits(int warp) {
  const InstMeta& meta = inst_meta_[static_cast<std::size_t>(warp_pc_[warp])];
  const std::uint64_t hazard = scoreboard_.pending_mask(warp) & meta.regs;
  auto assign = [warp](std::uint64_t& mask, bool on) {
    mask = (mask & ~(1ull << warp)) | (std::uint64_t{on} << warp);
  };
  assign(hazard_mask_, hazard != 0);
  assign(mem_wait_mask_, (hazard & warps_[warp].mem_pending) != 0);
  assign(spin_mask_, meta.in_spin);
  assign(sfu_mask_, meta.fu == FuType::kSfu);
  assign(ldst_mask_, meta.fu == FuType::kMem);
}

#ifdef PROSIM_DEBUG_CHECKS
void SmCore::check_asleep(Cycle now) const {
  PROSIM_CHECK(wb_.next_after(now - 1) > now);
  for (int sched = 0; sched < config_.num_schedulers; ++sched) {
    const std::uint64_t candidates =
        live_mask_ & ~yield_mask_ &
        sched_mask_[static_cast<std::size_t>(sched)] &
        policy_->consider_mask(sched);
    std::uint64_t fetching = 0;
    for (std::uint64_t scan = candidates & refill_mask_; scan != 0;
         scan &= scan - 1) {
      const int w = std::countr_zero(scan);
      if (ibuffer_ready_[w] > now) fetching |= 1ull << w;
    }
    PROSIM_CHECK((candidates & ~fetching & ~hazard_mask_ &
                  ~fu_busy_mask(now)) == 0);
  }
}

void SmCore::check_issue_bits(std::uint64_t candidates, Cycle now) const {
  for (std::uint64_t scan = candidates; scan != 0; scan &= scan - 1) {
    const int w = std::countr_zero(scan);
    const std::uint64_t bit = 1ull << w;
    const WarpCtx& wc = warps_[w];
    PROSIM_CHECK(wc.allocated && !wc.finished &&
                 warp_pc_[w] == wc.stack.pc());
    const auto pc = static_cast<std::size_t>(warp_pc_[w]);
    const Instruction& inst = program_.code[pc];
    const std::uint64_t pending = scoreboard_.pending_mask(w);
    const std::uint64_t hazard =
        inst.info().is_exit ? pending : pending & Scoreboard::regs_of(inst);
    PROSIM_CHECK(((hazard_mask_ & bit) != 0) == (hazard != 0));
    PROSIM_CHECK(((mem_wait_mask_ & bit) != 0) ==
                 ((hazard & wc.mem_pending) != 0));
    PROSIM_CHECK(((spin_mask_ & bit) != 0) == inst_meta_[pc].in_spin);
    PROSIM_CHECK(((fu_busy_mask(now) & bit) != 0) == !fu_can_accept(inst, now));
    PROSIM_CHECK(((refill_mask_ & bit) != 0) == (ibuffer_ready_[w] > now));
  }
}
#endif

bool SmCore::issue_cycle(Cycle now) {
  policy_->begin_cycle(now);
  bool issued_any = false;
  issued_now_mask_ = 0;
  for (int sched = 0; sched < config_.num_schedulers; ++sched) {
    const auto si = static_cast<std::size_t>(sched);
    // Candidates: allocated, unfinished, not at a barrier (live_mask_),
    // not draining toward a yield checkpoint (~yield_mask_), owned by this
    // hardware scheduler, and visible per the policy's consider mask.
    const std::uint64_t candidates = live_mask_ & ~yield_mask_ &
                                     sched_mask_[si] &
                                     policy_->consider_mask(sched);
    // Drop the refill bits whose cycle has come; the rest still refill.
    for (std::uint64_t scan = candidates & refill_mask_; scan != 0;
         scan &= scan - 1) {
      const int w = std::countr_zero(scan);
      if (ibuffer_ready_[w] <= now) refill_mask_ &= ~(1ull << w);
    }
#ifdef PROSIM_DEBUG_CHECKS
    check_issue_bits(candidates, now);
#endif
    const std::uint64_t fetched = candidates & ~refill_mask_;
    const std::uint64_t unblocked = fetched & ~hazard_mask_;
    const std::uint64_t ready = unblocked & ~fu_busy_mask(now);

    if (ready != 0) {
      const int w = policy_->pick(sched, ready, now);
      PROSIM_CHECK_MSG(w >= 0 && w < used_warp_slots_ &&
                           (ready & (1ull << w)) != 0,
                       "policy picked a warp outside the ready mask");
      const Instruction& inst =
          program_.code[static_cast<std::size_t>(warp_pc_[w])];
      issue_warp(w, inst, now);
      issued_any = true;
      issued_now_mask_ |= 1ull << w;
      count_cause(sched, StallCause::kIssued, 1);
      continue;
    }
    // With no ready warp, any unblocked fetched candidate waits on its
    // functional unit: a pipeline stall. Else any fetched one makes it a
    // scoreboard stall: all of them spinning is a spin wait.
    StallCause cause;
    if (unblocked != 0) {
      cause = StallCause::kFuBusy;
    } else if (fetched != 0) {
      cause = (fetched & ~spin_mask_) == 0       ? StallCause::kSpinWait
              : (fetched & mem_wait_mask_) != 0 ? StallCause::kScoreboardMem
                                                : StallCause::kScoreboardAlu;
    } else {
      cause = classify_idle(sched, candidates);
    }
    last_cause_[si] = cause;
    count_cause(sched, cause, 1);
  }
  return issued_any;
}

void SmCore::count_cause(int sched, StallCause cause, Cycle count) {
  stats_.cause_cycles[static_cast<int>(cause)] += count;
  if (trace_ != nullptr) trace_->on_sched_cycles(sm_id_, sched, cause, count);
}

StallCause SmCore::classify_idle(int sched,
                                 std::uint64_t candidates) const {
  if (candidates != 0) return StallCause::kFetch;
  const std::uint64_t smask = sched_mask_[static_cast<std::size_t>(sched)];
  if ((parked_mask_ & smask) != 0) return StallCause::kBarrierWait;
  if ((done_mask_ & smask) != 0) return StallCause::kFinishWait;
  if ((live_mask_ & smask &
       (~policy_->consider_mask(sched) | yield_mask_)) != 0)
    return StallCause::kThrottled;
  return StallCause::kNoWarp;
}

// ---------------------------------------------------------------------------
// Tracing (never reached without a sink attached; off the untraced path)
// ---------------------------------------------------------------------------

WarpState SmCore::trace_state_of(int warp, Cycle now) const {
  if (!warps_[warp].allocated) return WarpState::kUnallocated;
  const std::uint64_t bit = 1ull << warp;
  // Issue wins over the post-issue flags a bar/exit just set, so summed
  // kIssued warp-cycles equal SmStats::issued exactly; the barrier /
  // finish window then opens at the next executed cycle.
  if ((issued_now_mask_ & bit) != 0) return WarpState::kIssued;
  if (warps_[warp].finished)
    return (done_mask_ & bit) != 0 ? WarpState::kFinishWait
                                   : WarpState::kUnallocated;
  if ((parked_mask_ & bit) != 0) return WarpState::kBarrierWait;
  if (ibuffer_ready_[warp] > now) return WarpState::kFetch;
  if ((hazard_mask_ & bit) != 0) {
    if ((spin_mask_ & bit) != 0) return WarpState::kSpinWait;
    return (mem_wait_mask_ & bit) != 0 ? WarpState::kMemPending
                                       : WarpState::kScoreboard;
  }
  return (fu_busy_mask(now) & bit) != 0 ? WarpState::kFuBusy
                                        : WarpState::kEligible;
}

void SmCore::trace_warp_states(Cycle now) {
  for (int w = 0; w < used_warp_slots_; ++w) {
    const WarpState cur = trace_state_of(w, now);
    const WarpState prev = warp_trace_state_[static_cast<std::size_t>(w)];
    if (cur == prev) continue;
    trace_->on_warp_state(sm_id_, w, prev,
                          warp_state_since_[static_cast<std::size_t>(w)], cur,
                          now);
    warp_trace_state_[static_cast<std::size_t>(w)] = cur;
    warp_state_since_[static_cast<std::size_t>(w)] = now;
  }
}

// ---------------------------------------------------------------------------
// Issue / functional execution
// ---------------------------------------------------------------------------

void SmCore::schedule_release(int warp, std::uint8_t reg_idx, Cycle at) {
  wb_.push({at, WbKind::kRegRelease, warp, reg_idx, 0});
}

std::uint32_t SmCore::alloc_pending_load(int warp, std::uint8_t dst,
                                         int outstanding) {
  std::uint32_t token;
  if (!free_pending_loads_.empty()) {
    token = free_pending_loads_.back();
    free_pending_loads_.pop_back();
  } else {
    token = static_cast<std::uint32_t>(pending_loads_.size());
    pending_loads_.emplace_back();
  }
  pending_loads_[token] = {warp, dst, outstanding, true};
  warps_[warp].mem_pending |= 1ull << dst;
  ++live_pending_loads_;
  return token;
}

void SmCore::complete_load_transaction(std::uint32_t token, Cycle) {
  PendingLoad& pl = pending_loads_[token];
  PROSIM_CHECK(pl.valid && pl.outstanding > 0);
  if (--pl.outstanding == 0) {
    scoreboard_.release(pl.warp, pl.dst);
    warps_[pl.warp].mem_pending &= ~(1ull << pl.dst);
    refresh_issue_bits(pl.warp);
    pl.valid = false;
    free_pending_loads_.push_back(token);
    --live_pending_loads_;
  }
}

void SmCore::issue_warp(int warp, const Instruction& inst, Cycle now) {
  WarpCtx& wc = warps_[warp];
  const ActiveMask active = wc.stack.active();
  const int lanes = popcount_mask(active);
  const int tb_slot = wc.tb_slot;

  warp_progress_[warp] += static_cast<std::uint64_t>(lanes);
  issued_mask_ |= 1ull << warp;
  last_issue_[static_cast<std::size_t>(warp)] = now;
  tb_progress_[tb_slot] += static_cast<std::uint64_t>(lanes);
  stats_.thread_insts += static_cast<std::uint64_t>(lanes);
  const bool long_latency =
      inst.op == Opcode::kLdg || inst.op == Opcode::kAtomGAdd ||
      inst.op == Opcode::kAtomGCas || inst.op == Opcode::kAtomGExch;
  policy_->on_warp_issue(warp, lanes, long_latency);

  const std::int32_t prev_pc = warp_pc_[warp];

  switch (inst.info().fu) {
    case FuType::kControl:
      if (inst.op == Opcode::kBra) {
        execute_branch(warp, inst, active);
      } else if (inst.op == Opcode::kBar) {
        wc.stack.advance();
        do_barrier(warp, now);
      } else {  // exit
        do_exit(warp, active, now);
      }
      break;
    case FuType::kMem:
      execute_memory(warp, inst, active, now);
      break;
    case FuType::kSfu:
      sfu_ready_at_ = now + config_.sfu_initiation_interval;
      execute_alu(warp, inst, active);
      wc.stack.advance();
      scoreboard_.reserve(warp, inst.dst);
      schedule_release(warp, inst.dst, now + config_.sfu_latency);
      break;
    case FuType::kSpInt:
    case FuType::kSpFp: {
      if (inst.op != Opcode::kNop) execute_alu(warp, inst, active);
      wc.stack.advance();
      if (inst.info().has_dst) {
        const Cycle lat = inst.info().fu == FuType::kSpFp
                              ? config_.fp_latency
                              : config_.alu_latency;
        scoreboard_.reserve(warp, inst.dst);
        schedule_release(warp, inst.dst, now + lat);
      }
      break;
    }
  }

  if (wc.finished) return;
  const std::int32_t new_pc = wc.stack.pc();
  warp_pc_[warp] = new_pc;
  refresh_issue_bits(warp);
  if ((parked_mask_ & (1ull << warp)) != 0) return;
  const bool redirected = new_pc != prev_pc + 1;
  ibuffer_ready_[warp] =
      now + 1 + (redirected ? config_.branch_fetch_penalty : 0);
  refill_mask_ |= 1ull << warp;
}

void SmCore::execute_alu(int warp, const Instruction& inst,
                         ActiveMask active) {
  RegValue* const d = row(warp, inst.dst);
  switch (inst.op) {
    case Opcode::kMov: {
      const RegValue* a = row(warp, inst.src0);
      write_lanes(d, active, [&](int lane) { return a[lane]; });
      return;
    }
    case Opcode::kMovi:
      write_lanes(d, active, [&](int) { return inst.imm; });
      return;
    case Opcode::kS2r: {
      const ThreadGeom warp_geom{tid_of(warp, 0),
                                 tbs_[warps_[warp].tb_slot].ctaid,
                                 program_.info.block_dim,
                                 program_.info.grid_dim};
      write_lanes(d, active, [&](int lane) {
        ThreadGeom geom = warp_geom;
        geom.tid += lane;
        return eval_sreg(inst.sreg, geom);
      });
      return;
    }
    default:
      break;
  }
  RegValue imm_row[kWarpSize];
  const RegValue* a = src_row(warp, inst.src0);
  const RegValue* b = imm_row;
  if (inst.src1_is_imm) {
    std::fill_n(imm_row, kWarpSize, inst.imm);
  } else {
    b = src_row(warp, inst.src1);
  }
  const RegValue* c = src_row(warp, inst.src2);
  with_alu_op(inst, [&](auto op) {
    write_lanes(d, active,
                [&](int lane) { return op.eval(a[lane], b[lane], c[lane]); });
  });
}

void SmCore::execute_branch(int warp, const Instruction& inst,
                            ActiveMask active) {
  WarpCtx& wc = warps_[warp];
  if (inst.pred == kNoReg) {
    wc.stack.jump(inst.target);
    return;
  }
  const RegValue* p = row(warp, inst.pred);
  ActiveMask nonzero = 0;
  for (int lane = 0; lane < kWarpSize; ++lane) {
    nonzero |= static_cast<ActiveMask>(p[lane] != 0) << lane;
  }
  wc.stack.take_branch(inst, (inst.pred_invert ? ~nonzero : nonzero) & active);
}

void SmCore::salt_lines(int count) {
  if (addr_salt_ == 0) return;
  for (int i = 0; i < count; ++i) ldst_op_.lines[i] += addr_salt_;
}

void SmCore::execute_memory(int warp, const Instruction& inst,
                            ActiveMask active, Cycle now) {
  WarpCtx& wc = warps_[warp];
  TbCtx& tb = tbs_[wc.tb_slot];

  // Every lane's address; the coalescer and bank model read active ones.
  const RegValue* base = src_row(warp, inst.src0);
  for (int lane = 0; lane < kWarpSize; ++lane) {
    lane_addrs_[lane] =
        static_cast<Addr>(static_cast<std::uint64_t>(base[lane]) +
                          static_cast<std::uint64_t>(inst.imm));
  }
  // Value, compare and destination rows; side effects run in lane order.
  const RegValue* v = src_row(warp, inst.src1);
  const RegValue* n = src_row(warp, inst.src2);
  RegValue* const d = inst.dst == kNoReg ? nullptr : row(warp, inst.dst);

  auto smem_word = [&](int lane) -> RegValue& {
    const Addr addr = lane_addrs_[lane];
    PROSIM_REQUIRE((addr & 7) == 0,
                   SimError::make(ErrorCategory::kInvariant,
                                  "unaligned shared-memory access")
                       .at_cycle(now).on_sm(sm_id_).on_warp(warp)
                       .at_pc(wc.stack.pc()));
    const std::size_t word = addr >> 3;
    PROSIM_REQUIRE(word < tb.smem.size(),
                   SimError::make(ErrorCategory::kInvariant,
                                  "shared-memory access out of range")
                       .at_cycle(now).on_sm(sm_id_).on_warp(warp)
                       .at_pc(wc.stack.pc()));
    return tb.smem[word];
  };

  switch (inst.op) {
    case Opcode::kLdg: {
      for_each_lane(active,
                    [&](int lane) { d[lane] = gmem_.load(lane_addrs_[lane]); });
      // fu_can_accept guarantees the LDST op slot is free at issue time, so
      // the coalescer writes its line list straight into it.
      const int count = coalesce_lines_into(
          lane_addrs_, active, config_.l1d.line_bytes, ldst_op_.lines);
      salt_lines(count);
      stats_.gmem_transactions += static_cast<std::uint64_t>(count);
      const std::uint32_t token = alloc_pending_load(warp, inst.dst, count);
      scoreboard_.reserve(warp, inst.dst);
      ldst_op_.valid = true;
      ldst_op_.warp = warp;
      ldst_op_.num_lines = count;
      ldst_op_.next = 0;
      ldst_op_.kind = MemReqKind::kRead;
      ldst_op_.token = token;
      ldst_op_.is_const = false;
      break;
    }
    case Opcode::kStg: {
      for_each_lane(active,
                    [&](int lane) { gmem_.store(lane_addrs_[lane], v[lane]); });
      const int count = coalesce_lines_into(
          lane_addrs_, active, config_.l1d.line_bytes, ldst_op_.lines);
      salt_lines(count);
      stats_.gmem_transactions += static_cast<std::uint64_t>(count);
      ldst_op_.valid = true;
      ldst_op_.warp = warp;
      ldst_op_.num_lines = count;
      ldst_op_.next = 0;
      ldst_op_.kind = MemReqKind::kWrite;
      ldst_op_.token = kNoToken;
      ldst_op_.is_const = false;
      break;
    }
    case Opcode::kAtomGAdd: {
      for_each_lane(active, [&](int lane) {
        const RegValue old = gmem_.atomic_add(lane_addrs_[lane], v[lane]);
        if (d != nullptr) d[lane] = old;
      });
      const int count = coalesce_lines_into(
          lane_addrs_, active, config_.l1d.line_bytes, ldst_op_.lines);
      salt_lines(count);
      stats_.gmem_transactions += static_cast<std::uint64_t>(count);
      std::uint32_t token = kNoToken;
      if (inst.dst != kNoReg) {
        token = alloc_pending_load(warp, inst.dst, count);
        scoreboard_.reserve(warp, inst.dst);
      }
      ldst_op_.valid = true;
      ldst_op_.warp = warp;
      ldst_op_.num_lines = count;
      ldst_op_.next = 0;
      ldst_op_.kind = MemReqKind::kAtomic;
      ldst_op_.token = token;
      ldst_op_.is_const = false;
      break;
    }
    case Opcode::kAtomGCas:
    case Opcode::kAtomGExch: {
      for_each_lane(active, [&](int lane) {
        const RegValue old =
            inst.op == Opcode::kAtomGCas
                ? gmem_.atomic_cas(lane_addrs_[lane], v[lane], n[lane])
                : gmem_.atomic_exch(lane_addrs_[lane], v[lane]);
        if (d != nullptr) d[lane] = old;
      });
      const int count = coalesce_lines_into(
          lane_addrs_, active, config_.l1d.line_bytes, ldst_op_.lines);
      salt_lines(count);
      stats_.gmem_transactions += static_cast<std::uint64_t>(count);
      std::uint32_t token = kNoToken;
      if (inst.dst != kNoReg) {
        token = alloc_pending_load(warp, inst.dst, count);
        scoreboard_.reserve(warp, inst.dst);
      }
      ldst_op_.valid = true;
      ldst_op_.warp = warp;
      ldst_op_.num_lines = count;
      ldst_op_.next = 0;
      ldst_op_.kind = MemReqKind::kAtomic;
      ldst_op_.token = token;
      ldst_op_.is_const = false;
      break;
    }
    case Opcode::kLds: {
      for_each_lane(active, [&](int lane) { d[lane] = smem_word(lane); });
      const int degree =
          smem_conflict_degree(lane_addrs_, active, config_.smem_banks);
      stats_.smem_conflict_extra_cycles +=
          static_cast<std::uint64_t>(degree - 1);
      ldst_busy_until_ = now + static_cast<Cycle>(degree);
      scoreboard_.reserve(warp, inst.dst);
      schedule_release(warp, inst.dst,
                       now + config_.smem_latency + degree - 1);
      break;
    }
    case Opcode::kSts: {
      for_each_lane(active, [&](int lane) { smem_word(lane) = v[lane]; });
      const int degree =
          smem_conflict_degree(lane_addrs_, active, config_.smem_banks);
      stats_.smem_conflict_extra_cycles +=
          static_cast<std::uint64_t>(degree - 1);
      ldst_busy_until_ = now + static_cast<Cycle>(degree);
      break;
    }
    case Opcode::kAtomSAdd: {
      for_each_lane(active, [&](int lane) {
        RegValue& word = smem_word(lane);
        const RegValue old = word;
        word = static_cast<RegValue>(static_cast<std::uint64_t>(word) +
                                     static_cast<std::uint64_t>(v[lane]));
        if (d != nullptr) d[lane] = old;
      });
      const int degree =
          smem_conflict_degree(lane_addrs_, active, config_.smem_banks);
      stats_.smem_conflict_extra_cycles +=
          static_cast<std::uint64_t>(degree - 1);
      ldst_busy_until_ = now + static_cast<Cycle>(degree);
      if (inst.dst != kNoReg) {
        scoreboard_.reserve(warp, inst.dst);
        schedule_release(warp, inst.dst,
                         now + config_.smem_latency + degree - 1);
      }
      break;
    }
    case Opcode::kAtomSCas: {
      for_each_lane(active, [&](int lane) {
        RegValue& word = smem_word(lane);
        const RegValue old = word;
        if (old == v[lane]) word = n[lane];
        if (d != nullptr) d[lane] = old;
      });
      const int degree =
          smem_conflict_degree(lane_addrs_, active, config_.smem_banks);
      stats_.smem_conflict_extra_cycles +=
          static_cast<std::uint64_t>(degree - 1);
      ldst_busy_until_ = now + static_cast<Cycle>(degree);
      if (inst.dst != kNoReg) {
        scoreboard_.reserve(warp, inst.dst);
        schedule_release(warp, inst.dst,
                         now + config_.smem_latency + degree - 1);
      }
      break;
    }
    case Opcode::kLdc: {
      for_each_lane(active,
                    [&](int lane) { d[lane] = gmem_.load(lane_addrs_[lane]); });
      scoreboard_.reserve(warp, inst.dst);
      if (config_.const_cache_enabled) {
        const int count = coalesce_lines_into(
            lane_addrs_, active, config_.const_cache.line_bytes,
            ldst_op_.lines);
        salt_lines(count);
        stats_.const_transactions += static_cast<std::uint64_t>(count);
        const std::uint32_t token =
            alloc_pending_load(warp, inst.dst, count);
        ldst_op_.valid = true;
        ldst_op_.warp = warp;
        ldst_op_.num_lines = count;
        ldst_op_.next = 0;
        ldst_op_.kind = MemReqKind::kRead;
        ldst_op_.token = token;
        ldst_op_.is_const = true;
      } else {
        // Always-hit approximation: fixed latency, no tags.
        ldst_busy_until_ = now + 1;
        schedule_release(warp, inst.dst, now + config_.const_latency);
      }
      break;
    }
    default:
      PROSIM_CHECK_MSG(false, "non-memory opcode in execute_memory");
  }
  wc.stack.advance();
}

// ---------------------------------------------------------------------------
// Watchdog diagnosis
// ---------------------------------------------------------------------------

void SmCore::diagnose(Cycle now, std::vector<WarpBlockInfo>& warps,
                      SmHealth& health) const {
  for (int w = 0; w < used_warp_slots_; ++w) {
    const WarpCtx& wc = warps_[w];
    if (!wc.allocated || wc.finished || !tbs_[wc.tb_slot].active) continue;
    const TbCtx& tb = tbs_[wc.tb_slot];

    WarpBlockInfo info;
    info.sm_id = sm_id_;
    info.warp = w;
    info.ctaid = tb.ctaid;
    info.pc = wc.stack.empty() ? -1 : wc.stack.pc();
    info.warps_at_barrier = warps_at_barrier(wc.tb_slot);
    info.warps_live = tb.warps_live;
    info.issue_gap = now - last_issue_[static_cast<std::size_t>(w)];

    if ((parked_mask_ & (1ull << w)) != 0) {
      info.reason = WarpBlockReason::kBarrier;
      info.barrier_wait = now - wc.barrier_arrive;
    } else if (ibuffer_ready_[w] > now) {
      info.reason = WarpBlockReason::kFetch;
    } else {
      const Instruction& inst =
          program_.code[static_cast<std::size_t>(wc.stack.pc())];
      if (!scoreboard_.available(w, inst)) {
        info.reason = WarpBlockReason::kScoreboard;
        info.pending_regs =
            scoreboard_.pending_mask(w) & Scoreboard::regs_of(inst);
      } else if (inst.info().is_exit && scoreboard_.pending_mask(w) != 0) {
        info.reason = WarpBlockReason::kDrain;
        info.pending_regs = scoreboard_.pending_mask(w);
      } else if (!fu_can_accept(inst, now)) {
        info.reason = WarpBlockReason::kFuBusy;
      } else {
        info.reason = WarpBlockReason::kRunnable;
      }
    }
    warps.push_back(info);
  }

  health.sm_id = sm_id_;
  health.resident_tbs = resident_tbs_;
  health.live_pending_loads = live_pending_loads_;
  health.l1_mshr_occupancy = l1_mshr_.occupancy();
  health.const_mshr_occupancy = const_mshr_.occupancy();
  health.ldst_busy = ldst_op_.valid || ldst_busy_until_ > now;
  health.issued = stats_.cause_cycles[static_cast<int>(StallCause::kIssued)];
}

// ---------------------------------------------------------------------------
// Barriers / warp & TB completion
// ---------------------------------------------------------------------------

void SmCore::do_barrier(int warp, Cycle now) {
  WarpCtx& wc = warps_[warp];
  PROSIM_REQUIRE(wc.stack.depth() == 1,
                 SimError::make(ErrorCategory::kBarrierMismatch,
                                "barrier executed inside a divergent region")
                     .at_cycle(now).on_sm(sm_id_).on_warp(warp)
                     .at_pc(wc.stack.pc()));
  wc.barrier_arrive = now;
  live_mask_ &= ~(1ull << warp);
  parked_mask_ |= 1ull << warp;
  policy_->on_warp_barrier_arrive(warp, wc.tb_slot);
  if (warps_at_barrier(wc.tb_slot) == tbs_[wc.tb_slot].warps_live)
    release_barrier(wc.tb_slot, now);
}

void SmCore::release_barrier(int tb_slot, Cycle now) {
  const std::uint64_t released = parked_mask_ & tb_bits(tb_slot);
  for (std::uint64_t scan = released; scan != 0; scan &= scan - 1) {
    const int w = std::countr_zero(scan);
    ibuffer_ready_[w] = now + 1;
    stats_.barrier_wait_cycles += now - warps_[w].barrier_arrive;
  }
  refill_mask_ |= released;
  live_mask_ |= released;
  parked_mask_ &= ~released;
  ++stats_.barrier_releases;
  policy_->on_barrier_release(tb_slot);
}

void SmCore::do_exit(int warp, ActiveMask active, Cycle now) {
  WarpCtx& wc = warps_[warp];
  wc.stack.exit_lanes(active);
  if (wc.stack.empty()) finish_warp(warp, now);
}

void SmCore::finish_warp(int warp, Cycle now) {
  WarpCtx& wc = warps_[warp];
  wc.finished = true;
  wc.finish_cycle = now;
  live_mask_ &= ~(1ull << warp);
  done_mask_ |= 1ull << warp;
  TbCtx& tb = tbs_[wc.tb_slot];
  --tb.warps_live;
  policy_->on_warp_finish(warp, wc.tb_slot);
  if (tb.warps_live == 0) {
    retire_tb(wc.tb_slot, now);
  } else if (warps_at_barrier(wc.tb_slot) == tb.warps_live) {
    // The finished warp was the last one the barrier was waiting on.
    release_barrier(wc.tb_slot, now);
  }
}

}  // namespace prosim
