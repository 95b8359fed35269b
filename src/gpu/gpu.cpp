#include "gpu/gpu.hpp"

#include <algorithm>
#include <bit>
#include <cstdlib>
#include <string>

#include "common/percentiles.hpp"
#include "core/pro_scheduler.hpp"
#include "gpu/scheduler_registry.hpp"
#include "metrics/metrics.hpp"

namespace prosim {

namespace {

void accumulate_stats(SmStats& into, const SmStats& s) {
  for (const SmStatsField& f : kSmStatsFields) into.*f.member += s.*f.member;
  for (int c = 0; c < kNumStallCauses; ++c)
    into.cause_cycles[c] += s.cause_cycles[c];
}

/// Distinct physical address spaces per kernel: co-resident kernels must
/// contend for L2/DRAM capacity, not falsely alias each other's lines.
/// Kernel 0 (and therefore every single-kernel run) gets salt 0.
Addr stream_addr_salt(int kernel_id) {
  return static_cast<Addr>(kernel_id) << 40;
}

/// The Gpu keeps its SM sets in one-word masks.
const GpuConfig& require_sm_count(const GpuConfig& config) {
  PROSIM_REQUIRE(config.num_sms >= 1 &&
                     config.num_sms <= Interconnect::kMaxSms,
                 SimError::make(ErrorCategory::kInvariant,
                                "num_sms must be in [1, " +
                                    std::to_string(Interconnect::kMaxSms) +
                                    "], got " +
                                    std::to_string(config.num_sms)));
  return config;
}

}  // namespace

void Gpu::CoreTotals::add(const SmCore& sm) {
  accumulate_stats(stats, sm.stats());
  stats.derive_legacy_counts();
  l1_hits += sm.l1().hits;
  l1_misses += sm.l1().misses;
}

GpuConfig GpuConfig::test_config() {
  GpuConfig cfg;
  cfg.num_sms = 2;
  cfg.mem.num_partitions = 2;
  return cfg;
}

Gpu::Gpu(const GpuConfig& config, Program program, GlobalMemory& memory)
    : Gpu(config,
          [&] {
            std::vector<KernelLaunch> launches;
            launches.push_back(
                KernelLaunch{0, "", std::move(program), &memory, 0, {}});
            return launches;
          }(),
          make_admission("fifo_exclusive"), /*per_kernel_report=*/false) {}

Gpu::Gpu(const GpuConfig& config, std::vector<KernelLaunch> launches,
         const std::string& admission)
    : Gpu(config, std::move(launches),
          [&] {
            std::unique_ptr<AdmissionPolicy> policy = make_admission(admission);
            PROSIM_REQUIRE(
                policy != nullptr,
                SimError::make(ErrorCategory::kInvariant,
                               "unknown admission policy: " + admission));
            return policy;
          }(),
          /*per_kernel_report=*/true) {}

Gpu::Gpu(const GpuConfig& config, std::vector<KernelLaunch> launches,
         std::unique_ptr<AdmissionPolicy> admission, bool per_kernel_report)
    : config_(require_sm_count(config)),
      admission_(std::move(admission)),
      faults_(config.faults.enabled
                  ? std::make_unique<FaultInjector>(
                        config.faults, config.num_sms,
                        config.mem.num_partitions)
                  : nullptr),
      mem_(config.mem, config.num_sms, faults_.get()),
      watchdog_(config.watchdog),
      per_kernel_report_(per_kernel_report) {
  PROSIM_REQUIRE(!launches.empty(),
                 SimError::make(ErrorCategory::kInvariant,
                                "multi-stream run needs at least one kernel"));
  for (std::size_t i = 0; i < launches.size(); ++i) {
    const KernelLaunch& l = launches[i];
    PROSIM_REQUIRE(l.kernel_id == static_cast<int>(i),
                   SimError::make(ErrorCategory::kInvariant,
                                  "kernel_id must equal launch index"));
    PROSIM_REQUIRE(i == 0 || l.arrival >= launches[i - 1].arrival,
                   SimError::make(ErrorCategory::kInvariant,
                                  "launches must arrive in order"));
    PROSIM_REQUIRE(l.memory != nullptr,
                   SimError::make(ErrorCategory::kInvariant,
                                  "kernel launch without a GlobalMemory"));
    const std::string error = l.program.validate();
    PROSIM_REQUIRE(error.empty(),
                   SimError::make(ErrorCategory::kInvariant,
                                  "invalid program: " + error));
  }

  // Debug kill-switch: force the original tick-every-cycle loop. Not part
  // of the config fingerprint — results are bit-identical either way.
  // Fault injection draws per-cycle random numbers, so it ticks too.
  tick_all_ =
      std::getenv("PROSIM_NO_FASTFORWARD") != nullptr || faults_ != nullptr;
  mem_.set_tick_all(tick_all_);

  streams_.reserve(launches.size());
  for (KernelLaunch& l : launches) {
    arrivals_.push_back(l.arrival);
    tenants_.push_back(l.tenant);
    streams_.push_back(std::make_unique<Stream>(std::move(l)));
  }
  if (config_.record_registers) {
    for (auto& st : streams_) {
      const KernelInfo& info = st->launch.program.info;
      st->registers.assign(static_cast<std::size_t>(info.grid_dim) *
                               info.block_dim * info.regs_per_thread,
                           0);
    }
  }

  const auto n = static_cast<std::size_t>(config_.num_sms);
  binding_.assign(n, -1);
  per_sm_acc_.assign(n, CoreTotals{});
  timeline_acc_.resize(n);
  sms_.resize(n);
  wake_at_.assign(n, 0);
  synced_.assign(n, 0);
  all_sms_ = ~0ull >> (Interconnect::kMaxSms - config_.num_sms);
  dirty_ = all_sms_;
  bound_sms_.assign(streams_.size(), 0);
  unfinished_ = static_cast<int>(streams_.size());
  // Every SM starts bound to the earliest-arrival kernel (stream 0).
  for (int s = 0; s < config_.num_sms; ++s) bind_sm(s, 0);
  // Cycle-0 arrivals precede every attach, which retro-emits them.
  next_arrival_cycle_ = streams_[0]->launch.arrival;
  note_arrivals();
}

void Gpu::bind_sm(int s, int k) {
  Stream& st = *streams_[k];
  if (sms_[s] != nullptr) {
    sync_sm(s);
    --bound_sms_[binding_[s]];
    note_preemption(binding_[s]);
    // Tear-down accounting: the outgoing generation's counters belong to
    // the stream it executed and to this SM slot's running totals.
    streams_[binding_[s]]->acc.add(*sms_[s]);
    per_sm_acc_[s].add(*sms_[s]);
    for (const TbTimelineEntry& e : sms_[s]->timeline()) {
      timeline_acc_[s].push_back(e);
    }
  }
  auto policy = make_policy(config_.scheduler);
  if (s == 0 && !per_kernel_report_ && config_.record_tb_order_sm0) {
    if (auto* pro = dynamic_cast<ProPolicy*>(policy.get())) {
      pro->set_order_trace(&tb_order_sm0_);
    }
  }
  sms_[s] = std::make_unique<SmCore>(
      s, config_.sm, st.launch.program, *st.launch.memory, mem_,
      std::move(policy), [this, k] { return streams_[k]->tbs.has_waiting(); });
  sms_[s]->set_fault_injector(faults_.get());
  sms_[s]->set_addr_salt(stream_addr_salt(k));
  if (config_.record_registers) {
    sms_[s]->set_register_dump(streams_[k]->registers.data());
  }
  if (trace_ != nullptr) sms_[s]->set_trace_sink(trace_);
  binding_[s] = k;
  ++bound_sms_[k];
  note_preemption(k);
  synced_[s] = now_;
  wake_now(s);
  mark_dirty(s);
  view_stale_ = true;
  emit({now_, SimEventKind::kSmBind, k, s});
}

const std::vector<RegValue>& Gpu::stream_registers(int kernel) const {
  return streams_[static_cast<std::size_t>(kernel)]->registers;
}

Gpu::CoreTotals Gpu::sm_totals(int s) const {
  CoreTotals t = per_sm_acc_[s];
  t.add(*sms_[s]);
  return t;
}

Gpu::CoreTotals Gpu::kernel_totals(int k) const {
  CoreTotals t = streams_[k]->acc;
  for (int s = 0; s < num_sms(); ++s) {
    if (binding_[s] == k) t.add(*sms_[s]);
  }
  return t;
}

int Gpu::waiting_tbs() const {
  int waiting = 0;
  for (const auto& st : streams_) {
    if (!st->finished && st->launch.arrival <= now_) {
      waiting += st->tbs.remaining() + static_cast<int>(st->parked.size());
    }
  }
  return waiting;
}

bool Gpu::refresh_view() {
  if (!view_stale_ && !tick_all_) return false;
  view_stale_ = false;
  std::vector<int> active;
  std::vector<int> waiting;
  for (const auto& st : streams_) {
    if (st->finished || st->launch.arrival > now_) continue;
    active.push_back(st->launch.kernel_id);
    if (st->tbs.has_waiting() || !st->parked.empty()) {
      waiting.push_back(st->launch.kernel_id);
    }
  }
  if (active == active_ && waiting == waiting_) return false;
  active_ = std::move(active);
  waiting_ = std::move(waiting);
  ++view_generation_;
  return true;
}

void Gpu::harvest_yields() {
  // Quiescent yield victims checkpoint into their stream's parked queue;
  // the freed slot is available to this same cycle's launch loop. A victim
  // turns quiescent only in a cycle that did work, which marks it (a yield
  // is pending).
  for (std::uint64_t scan = eval_; scan != 0; scan &= scan - 1) {
    const int s = std::countr_zero(scan);
    if (sms_[s]->yield_pending() < 0 || !sms_[s]->yield_quiescent()) continue;
    Stream& st = *streams_[binding_[s]];
    touch_sm(s);
    st.parked.push_back(sms_[s]->take_yield_checkpoint(now_));
    ++st.demotions;
    emit({now_, SimEventKind::kTbCheckpoint, binding_[s], s,
          st.parked.back().ctaid});
  }
}

void Gpu::request_yields() {
  const AdmissionView view{active_, waiting_, arrivals_.data(), tenants_.data(),
                           static_cast<int>(streams_.size()),
                           view_generation_};
  // Also the SMs this cycle's launch loop touched: their state changed.
  for (std::uint64_t scan = eval_ | dirty_; scan != 0; scan &= scan - 1) {
    const int s = std::countr_zero(scan);
    if (sms_[s]->yield_pending() >= 0 || sms_[s]->resident_tbs() == 0)
      continue;
    const int k = binding_[s];
    const int focus = admission_->preempt_focus(s, view);
    if (focus < 0) continue;
    const Stream& bound = *streams_[k];
    // Yielding only ever helps an SM whose every resident TB is spin-stuck:
    // TBs making progress drain on their own (TB-drain granularity). Two
    // triggers: the focus kernel wants this SM (focus != k), or the focus
    // kernel is stuck on its own occupancy limit (oversubscribed blocking
    // kernels: rotate the oldest spinner out so a queued TB can run —
    // the Cooperative-Kernels yield).
    const bool rotate = focus == k && !sms_[s]->can_accept_tb() &&
                        (bound.tbs.has_waiting() || !bound.parked.empty());
    if ((focus != k || rotate) && sms_[s]->all_resident_spin_stuck()) {
      const int slot = sms_[s]->oldest_tb_slot();
      touch_sm(s);
      sms_[s]->request_yield(slot);
      emit({now_, SimEventKind::kYieldRequest, k, s,
            sms_[s]->resident_ctaid(slot)});
    }
  }
}

void Gpu::assign_tbs() {
  if (faults_ != nullptr && faults_->tb_launch_blocked(now_)) return;
  // One TB per SM per cycle, round-robin over SMs starting one further
  // each cycle: the global work distribution engine refilling an SM as
  // soon as a resident TB retires.
  const int first = next_sm_;
  next_sm_ = (next_sm_ + 1) % num_sms();
  // This cycle evaluates the SMs marked since the last evaluation; marks
  // made from here on are for the next cycle.
  eval_ = tick_all_ ? all_sms_ : dirty_;
  dirty_ = 0;
  admission_due_ = false;
  // No SM marked and no stream event: every decision would repeat.
  if (eval_ == 0 && !view_stale_) return;

  const bool preemptive = admission_->preemptive();
  if (preemptive) harvest_yields();

  if (refresh_view()) eval_ = all_sms_;
  // With no TB waiting or parked, no SM can launch, resume or rebind, and
  // no policy has a focus to yield to.
  if (waiting_.empty()) return;
  const AdmissionView view{active_, waiting_, arrivals_.data(), tenants_.data(),
                           static_cast<int>(streams_.size()),
                           view_generation_};

  // The rotation: the marked SMs from `first` up, then those below it.
  const std::uint64_t below = (1ull << first) - 1;
  std::uint64_t high = eval_ & ~below;
  std::uint64_t low = eval_ & below;
  while ((high | low) != 0) {
    std::uint64_t& scan = high != 0 ? high : low;
    const int s = std::countr_zero(scan);
    scan &= scan - 1;
    ++admission_evals_;
    // A full SM still holds work: it can neither take a TB nor rebind.
    if (!sms_[s]->can_accept_tb() && !sms_[s]->drained()) continue;
    int k = binding_[s];
    const Stream& bound = *streams_[k];
    const bool bound_serves = !bound.finished && bound.launch.arrival <= now_ &&
                              (bound.tbs.has_waiting() ||
                               !bound.parked.empty()) &&
                              admission_->may_refill(s, k, view);
    if (!bound_serves) {
      // The bound kernel has nothing (or may give nothing) to this SM; a
      // fully drained SM asks the admission policy for its next kernel.
      if (!sms_[s]->drained()) continue;
      const int next = admission_->next_stream(s, view);
      if (next < 0) continue;
      if (next != k) {
        if (preemptive && !bound.finished &&
            (bound.tbs.has_waiting() || !bound.parked.empty())) {
          // Rebinding away from a kernel that still has work is the
          // stream-level demotion (it stops getting SMs).
          ++streams_[k]->demotions;
          emit({now_, SimEventKind::kDemotion, k, s});
        }
        bind_sm(s, next);
      }
      k = next;
    }
    Stream& st = *streams_[k];
    if (sms_[s]->can_accept_tb()) {
      if (st.tbs.has_waiting()) {
        if (!st.launched_any) {
          st.launched_any = true;
          st.first_launch = now_;
          emit({now_, SimEventKind::kAdmissionGrant, k, s});
        }
        const int ctaid = st.tbs.pop();
        touch_sm(s);
        sms_[s]->launch_tb(ctaid, now_);
        if (!st.tbs.has_waiting()) wake_bound(k);
        emit({now_, SimEventKind::kTbLaunch, k, s, ctaid});
      } else if (!st.parked.empty()) {
        const int ctaid = st.parked.front().ctaid;
        touch_sm(s);
        sms_[s]->resume_tb(st.parked.front(), now_);
        st.parked.pop_front();
        ++st.resumptions;
        emit({now_, SimEventKind::kTbResume, k, s, ctaid});
      }
    }
  }

  if (preemptive) {
    // Launches and resumptions above may have changed the waiting set;
    // the yield decisions see the rebuilt view, and a changed view makes
    // every SM due for evaluation again next cycle.
    if (refresh_view()) {
      eval_ = all_sms_;
      dirty_ = all_sms_;
      admission_due_ = true;
    }
    request_yields();
  }
}

void Gpu::note_arrivals() {
  if (now_ < next_arrival_cycle_) return;
  while (next_arrival_ < streams_.size() &&
         streams_[next_arrival_]->launch.arrival <= now_) {
    const KernelLaunch& l = streams_[next_arrival_++]->launch;
    note_preemption(l.kernel_id);
    emit({l.arrival, SimEventKind::kKernelArrival, l.kernel_id});
  }
  next_arrival_cycle_ = next_arrival_ < streams_.size()
                            ? streams_[next_arrival_]->launch.arrival
                            : kNoCycle;
  view_stale_ = true;
  admission_due_ = true;
}

void Gpu::update_streams() {
  for (auto& st : streams_) {
    if (st->finished || st->launch.arrival > now_) continue;
    if (st->tbs.has_waiting() || !st->parked.empty() || !st->launched_any)
      continue;
    bool busy = false;
    for (std::size_t s = 0; s < sms_.size(); ++s) {
      if (binding_[s] == st->launch.kernel_id && !sms_[s]->drained()) {
        busy = true;
        break;
      }
    }
    if (!busy) {
      st->finished = true;
      st->finish = now_;
      --unfinished_;
      view_stale_ = true;
      admission_due_ = true;
      emit_finish(*st);
    }
  }
}

bool Gpu::preempted(const Stream& st, Cycle at) const {
  return !st.finished && st.launch.arrival <= at &&
         (st.tbs.has_waiting() || !st.parked.empty()) &&
         bound_sms_[st.launch.kernel_id] == 0;
}

void Gpu::note_preemption(int k) {
  if (!admission_->preemptive()) return;
  Stream& st = *streams_[k];
  const bool now_preempted = preempted(st, now_);
  if (now_preempted == (st.preempted_since != kNoCycle)) return;
  if (now_preempted) {
    st.preempted_since = now_;
  } else {
    st.preempted_cycles += now_ - st.preempted_since;
    st.preempted_since = kNoCycle;
  }
}

std::uint64_t Gpu::preempted_cycles(const Stream& st) const {
  return st.preempted_cycles +
         (st.preempted_since != kNoCycle ? now_ - st.preempted_since : 0);
}

#ifdef PROSIM_DEBUG_CHECKS
void Gpu::check_preempted(Cycle executed, Cycle count) {
  for (auto& st : streams_) {
    if (preempted(*st, executed)) st->preempted_check += count;
    PROSIM_CHECK(preempted_cycles(*st) == st->preempted_check);
  }
}
#endif

void Gpu::sync_sm(int s) {
  if (synced_[s] < now_) {
    sms_[s]->skip_cycles(now_ - synced_[s]);
    synced_[s] = now_;
  }
}

void Gpu::sync_all() {
  for (int s = 0; s < num_sms(); ++s) sync_sm(s);
}

void Gpu::touch_sm(int s) {
  sync_sm(s);
  wake_now(s);
  mark_dirty(s);
  view_stale_ = true;
  streams_check_ = true;
}

void Gpu::wake_bound(int k) {
  for (int s = 0; s < num_sms(); ++s) {
    if (binding_[s] == k) wake_now(s);
  }
}

void Gpu::wake_now(int s) {
  // A sleeper's wake time is never before the executed cycle, and an awake
  // SM's is the executed cycle itself.
  awake_ |= 1ull << s;
  wake_at_[s] = now_;
}

void Gpu::wake_sleepers() {
  if (now_ < sleep_min_) return;
  Cycle next = kNoCycle;
  for (std::uint64_t scan = all_sms_ & ~awake_; scan != 0; scan &= scan - 1) {
    const int s = std::countr_zero(scan);
    if (wake_at_[s] <= now_) {
      awake_ |= 1ull << s;
    } else {
      next = std::min(next, wake_at_[s]);
    }
  }
  sleep_min_ = next;
}

Cycle Gpu::earliest_sm_wake() {
  Cycle t;
  if (awake_ != 0) {
    t = wake_at_[std::countr_zero(awake_)];  // every awake SM's is equal
  } else {
    // Every SM sleeps: the lower bound becomes exact.
    sleep_min_ = *std::min_element(wake_at_.begin(), wake_at_.end());
    t = sleep_min_;
  }
  const Interconnect& icnt = mem_.interconnect();
  for (std::uint64_t scan = icnt.response_ports(); scan != 0;
       scan &= scan - 1) {
    t = std::min(t, icnt.response_head_ready(std::countr_zero(scan)));
  }
  return t;
}

void Gpu::tick_due_sms() {
  if (tick_all_) {
    for (int s = 0; s < num_sms(); ++s) tick_sm(s);
    return;
  }
  wake_sleepers();
  const Interconnect& icnt = mem_.interconnect();
  std::uint64_t due = awake_;
  for (std::uint64_t scan = icnt.response_ports() & ~due; scan != 0;
       scan &= scan - 1) {
    const int s = std::countr_zero(scan);
    if (icnt.response_head_ready(s) <= now_) due |= 1ull << s;
  }
  // Waiters on a request port popped this cycle; a lower SM may refill the
  // freed slot before a waiter's turn, so each looks when it comes.
  const std::uint64_t woken = icnt.woken() & ~due;
#ifdef PROSIM_DEBUG_CHECKS
  check_due_set(due, woken);
#endif
  for (std::uint64_t scan = due | woken; scan != 0; scan &= scan - 1) {
    const int s = std::countr_zero(scan);
    if ((due >> s & 1) != 0 || sms_[s]->ldst_slot_free()) tick_sm(s);
  }
#ifdef PROSIM_DEBUG_CHECKS
  check_wakes();
#endif
}

void Gpu::tick_sm(int s) {
  sync_sm(s);
  wake_now(s);  // no longer a sleeper
  SmCore& sm = *sms_[s];
  const SmCore::Tick tick = sm.cycle(now_);
  ++sm_cycles_ticked_;
  synced_[s] = now_ + 1;
  // A hot cycle may have unblocked anything (an issue, a dispatched line),
  // so only the others can sleep until their next event.
  const bool hot = tick == SmCore::Tick::kHot;
  if (hot) {
    wake_at_[s] = now_ + 1;
  } else {
    wake_at_[s] = sm.next_event(now_);
    awake_ &= ~(1ull << s);
    sleep_min_ = std::min(sleep_min_, wake_at_[s]);
  }
  if (tick == SmCore::Tick::kQuiet) return;
  // Admission reads free slots, drained(), yield quiescence and spin-stuck.
  // A drain can change only the two that matter with a yield pending or no
  // TB resident; the rest change only in a hot cycle.
  if (hot || sm.yield_pending() >= 0 || sm.resident_tbs() == 0) mark_dirty(s);
  if (sm.drained()) streams_check_ = true;
}

#ifdef PROSIM_DEBUG_CHECKS
void Gpu::check_due_set(std::uint64_t due, std::uint64_t woken) const {
  for (int s = 0; s < num_sms(); ++s) {
    const bool sm_due = wake_at_[s] <= now_ || sms_[s]->external_wakeup();
    const bool got = (due >> s & 1) != 0 ||
                     ((woken >> s & 1) != 0 && sms_[s]->ldst_slot_free());
    PROSIM_CHECK(sm_due == got);
    PROSIM_CHECK(((awake_ >> s & 1) != 0) == (wake_at_[s] <= now_));
    if (!sm_due) sms_[s]->check_asleep(now_);
  }
}

void Gpu::check_wakes() {
  const Interconnect& icnt = mem_.interconnect();
  Cycle sm_wake = kNoCycle;
  for (int s = 0; s < num_sms(); ++s) {
    sm_wake = std::min({sm_wake, wake_at_[s], icnt.response_head_ready(s)});
    PROSIM_CHECK(((icnt.response_ports() >> s & 1) != 0) ==
                 (icnt.response_head_ready(s) != kNoCycle));
  }
  PROSIM_CHECK(earliest_sm_wake() == sm_wake);
  Cycle partition_wake = kNoCycle;
  for (const MemoryPartition& p : mem_.partitions()) {
    partition_wake = std::min(partition_wake, p.wake_at());
  }
  PROSIM_CHECK(mem_.next_event() == partition_wake);
}
#endif

void Gpu::check_progress() {
  if (watchdog_.due(now_)) {
    sync_all();
    if (std::optional<SimError> stuck =
            watchdog_.check(now_, sms_, waiting_tbs())) {
      throw SimException(std::move(*stuck));
    }
  }
  if (now_ >= config_.max_cycles) {
    sync_all();
    throw SimException(watchdog_.overrun_error(now_, sms_, config_.max_cycles));
  }
}

Cycle Gpu::next_step() {
  if (admission_due_ || awake_ != 0) return now_;
  Cycle target = std::min(earliest_sm_wake(), mem_.next_event());
  if (target <= now_) return now_;
  // Never skip past a watchdog window boundary or the max_cycles backstop:
  // both checks must observe the same cycles they would under ticking.
  if (config_.watchdog.enabled) {
    target = std::min(target, watchdog_.next_check());
  }
  target = std::min(target, config_.max_cycles);
  // Metrics sampling must observe counters exactly at interval boundaries.
  if (metrics_ != nullptr) {
    target = std::min(target, metrics_->next_sample_cycle());
  }
  // A kernel arrival is a stream event: its cycle executes.
  target = std::min(target, next_arrival_cycle_);
  return std::max(target, now_);
}

bool Gpu::step() {
  note_arrivals();
  assign_tbs();
  mem_.cycle(now_);
  tick_due_sms();

  [[maybe_unused]] const Cycle executed = now_;
  ++now_;
  if (streams_check_ || tick_all_) {
    streams_check_ = false;
    update_streams();
  }
  const bool running = unfinished_ > 0 || !mem_.idle();

  // Advance the clock to the next cycle anything is due: every cycle in
  // between would have repeated the executed one verbatim.
  const Cycle target = running && !tick_all_ ? next_step() : now_;
  if (target > now_) {
    const Cycle skipped = target - now_;
    ++ff_spans_;
    ff_skipped_cycles_ += skipped;
    const auto n = static_cast<Cycle>(sms_.size());
    next_sm_ = static_cast<int>(
        (static_cast<Cycle>(next_sm_) + skipped) % n);  // per-cycle rotation
  }
  now_ = target;
#ifdef PROSIM_DEBUG_CHECKS
  if (admission_->preemptive()) check_preempted(executed, target - executed);
#endif
  check_progress();

  if (!running) sync_all();
  if (metrics_ != nullptr && now_ >= metrics_->next_sample_cycle()) {
    sync_all();
    sample_metrics();
  }
  return running;
}

void Gpu::set_trace_sink(TraceSink* sink) {
  if (sink == nullptr) return;
  // Retro-emit, to this sink only, what the lifecycle already did: the
  // arrivals so far (cycle-0 launches) and every SM's current binding.
  for (std::size_t k = 0; k < next_arrival_; ++k) {
    const KernelLaunch& l = streams_[k]->launch;
    sink->on_sim_event({l.arrival, SimEventKind::kKernelArrival, l.kernel_id});
  }
  for (int s = 0; s < num_sms(); ++s) {
    sink->on_sim_event({now_, SimEventKind::kSmBind, binding_[s], s});
  }
  observers_.all.push_back(sink);
  if (sink->wants_sm_events()) observers_.sm.push_back(sink);
  // A single SM sink is dispatched to directly, without the fan-out loop.
  if (!observers_.sm.empty()) {
    trace_ = observers_.sm.size() == 1 ? observers_.sm.front() : &observers_;
  }
  for (auto& sm : sms_) sm->set_trace_sink(trace_);
}

void Gpu::set_metrics(MetricsCollector* metrics) {
  if (metrics == nullptr) return;
  metrics_ = metrics;
}

void Gpu::set_event_journal(EventJournal* journal) { set_trace_sink(journal); }

void Gpu::sample_metrics() {
  MetricsCollector& m = *metrics_;
  const Cycle span = now_ - m.last_sample_cycle();
  if (span == 0) return;
  MetricsRegistry& reg = m.registry();
  // A gauge series records its value; a counter series the delta of its
  // cumulative value since the previous sample.
  auto gauge = [&](MetricScope scope, int id, std::string metric,
                   double value) {
    reg.record(now_, scope, id, std::move(metric), value);
  };
  auto counter = [&](MetricScope scope, int id, std::string metric,
                     std::uint64_t cumulative) {
    const std::uint64_t d = m.delta(scope, id, metric.c_str(), cumulative);
    gauge(scope, id, std::move(metric), static_cast<double>(d));
    return d;
  };

  std::vector<std::uint64_t> progress_all;
  std::vector<std::uint64_t> progress_sm;
  for (std::size_t s = 0; s < sms_.size(); ++s) {
    const SmCore& sm = *sms_[s];
    const int id = static_cast<int>(s);
    constexpr MetricScope kSm = MetricScope::kSm;
    // Counters are cumulative across rebind tear-downs (acc + live core),
    // so the per-interval deltas telescope to the run totals exactly.
    const SmStats totals = sm_totals(id).stats;
    const std::uint64_t d_issued = counter(kSm, id, "issued", totals.issued);
    gauge(kSm, id, "ipc",
          static_cast<double>(d_issued) / static_cast<double>(span));
    gauge(kSm, id, "runnable_warps", sm.runnable_warps());
    gauge(kSm, id, "resident_tbs", sm.resident_tbs());
    gauge(kSm, id, "occupancy",
          static_cast<double>(sm.resident_tbs()) /
              static_cast<double>(sm.max_resident_tbs()));
    gauge(kSm, id, "l1_mshr", sm.l1_mshr_occupancy());
    for (int c = 0; c < kNumStallCauses; ++c) {
      counter(kSm, id,
              std::string("stall.") +
                  stall_cause_name(static_cast<StallCause>(c)),
              totals.cause_cycles[c]);
    }
    progress_sm.clear();
    sm.sample_progress(progress_sm);
    if (!progress_sm.empty()) {
      std::uint64_t lo = progress_sm[0];
      std::uint64_t hi = progress_sm[0];
      std::uint64_t sum = 0;
      for (const std::uint64_t p : progress_sm) {
        lo = std::min(lo, p);
        hi = std::max(hi, p);
        sum += p;
      }
      gauge(kSm, id, "progress_min", static_cast<double>(lo));
      gauge(kSm, id, "progress_max", static_cast<double>(hi));
      gauge(kSm, id, "progress_mean",
            static_cast<double>(sum) /
                static_cast<double>(progress_sm.size()));
      progress_all.insert(progress_all.end(), progress_sm.begin(),
                          progress_sm.end());
    }
  }

  if (per_kernel_report_) {
    for (const auto& st : streams_) {
      if (st->launch.arrival > now_) continue;
      const int k = st->launch.kernel_id;
      constexpr MetricScope kKernel = MetricScope::kKernel;
      const SmStats totals = kernel_totals(k).stats;
      counter(kKernel, k, "issued", totals.issued);
      counter(kKernel, k, "tbs_executed", totals.tbs_executed);
      gauge(kKernel, k, "bound_sms", bound_sms_[k]);
      gauge(kKernel, k, "waiting_tbs", st->tbs.remaining());
      gauge(kKernel, k, "parked_tbs", static_cast<double>(st->parked.size()));
      counter(kKernel, k, "demotions", st->demotions);
      counter(kKernel, k, "resumptions", st->resumptions);
      counter(kKernel, k, "preempted_cycles", preempted_cycles(*st));
    }
  }

  constexpr MetricScope kGpu = MetricScope::kGpu;
  counter(kGpu, 0, "l2_hits", mem_.l2_hits());
  counter(kGpu, 0, "l2_misses", mem_.l2_misses());
  counter(kGpu, 0, "dram_row_hits", mem_.dram_row_hits());
  counter(kGpu, 0, "dram_row_misses", mem_.dram_row_misses());
  const Interconnect& icnt = mem_.interconnect();
  std::uint64_t free_slots = 0;
  for (int p = 0; p < icnt.num_partitions(); ++p) {
    free_slots += icnt.request_free_slots(p);
  }
  gauge(kGpu, 0, "icnt_request_free_slots", static_cast<double>(free_slots));
  if (!progress_all.empty()) {
    const Percentiles pct(std::move(progress_all));
    gauge(kGpu, 0, "progress_p10", static_cast<double>(pct.percentile(10)));
    gauge(kGpu, 0, "progress_p50", static_cast<double>(pct.percentile(50)));
    gauge(kGpu, 0, "progress_p90", static_cast<double>(pct.percentile(90)));
  }
  m.mark_sampled(now_);
}

void Gpu::emit_finish(const Stream& st) {
  if (!per_kernel_report_) return;
  emit({now_, SimEventKind::kKernelFinish, st.launch.kernel_id});
  if (st.launch.tenant.deadline_cycles == 0) return;
  const Cycle deadline = st.launch.arrival + st.launch.tenant.deadline_cycles;
  emit({now_,
        st.finish <= deadline ? SimEventKind::kSloMet
                              : SimEventKind::kSloMissed,
        st.launch.kernel_id, -1, -1, deadline});
}

GpuResult Gpu::run() {
  while (step()) {
  }
  if (metrics_ != nullptr && now_ > metrics_->last_sample_cycle()) {
    sample_metrics();  // final partial interval
  }
  if (trace_ != nullptr) {
    for (auto& sm : sms_) sm->trace_finalize(now_);
  }
  emit({now_, SimEventKind::kSimEnd});
  return collect();
}

Expected<GpuResult> Gpu::run_checked() {
  try {
    return run();
  } catch (SimException& e) {
    return e.take_error();
  }
}

GpuResult Gpu::collect() {
  sync_all();
  GpuResult result;
  result.cycles = now_;
  const KernelInfo& info0 = streams_[0]->launch.program.info;
  result.regs_per_thread = info0.regs_per_thread;
  result.block_dim = info0.block_dim;
  for (std::size_t s = 0; s < sms_.size(); ++s) {
    const CoreTotals totals = sm_totals(static_cast<int>(s));
    result.per_sm.push_back(totals.stats);
    accumulate_stats(result.totals, totals.stats);
    result.l1_hits += totals.l1_hits;
    result.l1_misses += totals.l1_misses;
    std::vector<TbTimelineEntry> timeline = timeline_acc_[s];
    for (const TbTimelineEntry& e : sms_[s]->timeline()) timeline.push_back(e);
    result.timelines.push_back(std::move(timeline));
  }
  if (faults_ != nullptr) result.faults_injected = faults_->total_faults();
  result.profile.total_cycles = now_;
  result.profile.ff_spans = ff_spans_;
  result.profile.ff_skipped_cycles = ff_skipped_cycles_;
  result.profile.sm_cycles_ticked = sm_cycles_ticked_;
  result.profile.partition_cycles_ticked = mem_.partition_cycles_ticked();
  result.profile.admission_evals = admission_evals_;
  result.l2_hits = mem_.l2_hits();
  result.l2_misses = mem_.l2_misses();
  result.dram_row_hits = mem_.dram_row_hits();
  result.dram_row_misses = mem_.dram_row_misses();
  result.tb_order_sm0 = tb_order_sm0_;
  if (!per_kernel_report_) {
    result.registers = streams_[0]->registers;
  } else {
    // Per-kernel slices: accumulated tear-down counters plus the share of
    // every live core still bound to the kernel. Registers stay per-stream
    // (see stream_registers) — grids differ per kernel.
    for (const auto& st : streams_) {
      KernelSlice slice;
      slice.kernel_id = st->launch.kernel_id;
      slice.name = st->launch.name;
      slice.arrival = st->launch.arrival;
      slice.first_launch = st->first_launch;
      slice.launched = st->launched_any;
      slice.finish = st->finish;
      slice.finished = st->finished;
      const CoreTotals totals = kernel_totals(slice.kernel_id);
      slice.stats = totals.stats;
      slice.l1_hits = totals.l1_hits;
      slice.l1_misses = totals.l1_misses;
      slice.slo_active = admission_->preemptive();
      slice.tenant = st->launch.tenant;
      slice.demotions = st->demotions;
      slice.resumptions = st->resumptions;
      slice.preempted_cycles = preempted_cycles(*st);
      result.kernel_slices.push_back(std::move(slice));
    }
  }
  return result;
}

void ObservabilitySession::attach(Gpu& gpu) {
  gpu.set_trace_sink(warp_lanes_.get());
  gpu.set_trace_sink(windows_.get());
  gpu.set_metrics(metrics_.get());
  gpu.set_event_journal(journal_.get());
}

GpuResult simulate(const GpuConfig& config, const Program& program,
                   GlobalMemory& memory, ObservabilitySession* obs) {
  Gpu gpu(config, program, memory);
  if (obs != nullptr) obs->attach(gpu);
  return gpu.run();
}

Expected<GpuResult> simulate_checked(const GpuConfig& config,
                                     const Program& program,
                                     GlobalMemory& memory,
                                     ObservabilitySession* obs) {
  try {
    return simulate(config, program, memory, obs);
  } catch (SimException& e) {
    return e.take_error();
  }
}

}  // namespace prosim
