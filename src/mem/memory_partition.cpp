#include "mem/memory_partition.hpp"

namespace prosim {

MemoryPartition::MemoryPartition(const MemConfig& config, int partition_id)
    : config_(config),
      partition_id_(partition_id),
      l2_(config.l2),
      mshr_(config.l2_mshr),
      dram_(config.dram),
      hit_responses_(config.l2_hit_latency, /*bandwidth_per_cycle=*/1,
                     /*capacity=*/64) {}

void MemoryPartition::drain_dram(Cycle now) {
  // Retry queued dirty-victim writebacks first so they cannot be starved.
  while (!pending_writebacks_.empty() && dram_.can_accept()) {
    MemRequest wb;
    wb.line_addr = pending_writebacks_.front();
    wb.kind = MemReqKind::kWrite;
    dram_.push(wb, now);
    pending_writebacks_.pop_front();
  }

  while (dram_.has_completion(now)) {
    const MemRequest done = dram_.pop_completion();
    // Fill the L2; the line is dirty if any merged requester was an atomic.
    const std::span<const MissToken> tokens = mshr_.release(done.line_addr);
    bool any_atomic = false;
    for (const MissToken& t : tokens) any_atomic = any_atomic || t.is_atomic;
    const Cache::Victim victim = l2_.fill(done.line_addr, any_atomic);
    if (victim.valid && victim.dirty) {
      pending_writebacks_.push_back(victim.line_addr);
    }
    for (const MissToken& t : tokens) {
      MemResponse response;
      response.line_addr = done.line_addr;
      response.sm_id = t.sm_id;
      response.token = t.token;
      response.is_atomic = t.is_atomic;
      response.is_const = t.is_const;
      ready_responses_.push_back(response);
    }
  }
}

bool MemoryPartition::serve_request(Cycle now, Interconnect& icnt) {
  if (!icnt.has_request(partition_id_, now)) return false;
  const MemRequest& head = icnt.peek_request(partition_id_);

  switch (head.kind) {
    case MemReqKind::kWrite: {
      if (l2_.access(head.line_addr)) {
        l2_.mark_dirty(head.line_addr);
        ++l2_.hits;
      } else {
        // No-allocate: forward to DRAM when there is room.
        if (!dram_.can_accept()) return false;  // backpressure
        ++l2_.misses;
        dram_.push(head, now);
      }
      icnt.pop_request(partition_id_);
      return true;
    }
    case MemReqKind::kRead:
    case MemReqKind::kAtomic: {
      const bool is_atomic = head.kind == MemReqKind::kAtomic;
      if (l2_.probe(head.line_addr)) {
        // A hit blocked on the response path retries without touching the
        // cache: it counts and refreshes LRU once, when it goes.
        if (!hit_responses_.can_push()) return false;
        l2_.access(head.line_addr);
        ++l2_.hits;
        if (is_atomic) l2_.mark_dirty(head.line_addr);
        MemResponse response;
        response.line_addr = head.line_addr;
        response.sm_id = head.sm_id;
        response.token = head.token;
        response.is_atomic = is_atomic;
        response.is_const = head.is_const;
        hit_responses_.push(response, now);
        icnt.pop_request(partition_id_);
        return true;
      }
      // Miss: merge or allocate an MSHR entry.
      MissToken token{head.sm_id, head.token, is_atomic, head.is_const};
      if (mshr_.has(head.line_addr)) {
        if (!mshr_.can_merge(head.line_addr)) {
          return false;  // merge slots exhausted: backpressure
        }
        ++l2_.misses;
        ++mshr_.merges;
        mshr_.merge(head.line_addr, token);
        icnt.pop_request(partition_id_);
        return true;
      }
      if (!mshr_.can_allocate() || !dram_.can_accept()) {
        return false;  // backpressure
      }
      ++l2_.misses;
      mshr_.allocate(head.line_addr, token);
      MemRequest fetch = head;
      fetch.kind = MemReqKind::kRead;
      dram_.push(fetch, now);
      icnt.pop_request(partition_id_);
      return true;
    }
  }
  return false;
}

void MemoryPartition::cycle(Cycle now, Interconnect& icnt) {
  dram_.cycle(now);
  drain_dram(now);

  // Move delayed L2 hits into the ready set.
  while (hit_responses_.can_pop(now)) {
    ready_responses_.push_back(hit_responses_.pop(now));
  }

  // Push ready responses into the interconnect while credit remains.
  while (!ready_responses_.empty() &&
         icnt.can_send_response(ready_responses_.front().sm_id)) {
    icnt.send_response(ready_responses_.front(), now);
    ready_responses_.pop_front();
  }

  const bool served = serve_request(now, icnt);

  Cycle wake = dram_.next_event(now);
  const Cycle hit = hit_responses_.next_ready();
  if (hit != kNoCycle) wake = std::min(wake, std::max(hit, now + 1));
  if (!pending_writebacks_.empty() && dram_.can_accept()) wake = now + 1;
  const Cycle head = icnt.request_head_ready(partition_id_);
  if (head > now) {
    wake = std::min(wake, head);  // kNoCycle when the port is empty
  } else if (served) {
    wake = now + 1;
  }
  wake_at_ = wake;
}

}  // namespace prosim
