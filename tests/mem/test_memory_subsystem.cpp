// End-to-end tests of the SM-facing memory system: interconnect -> L2 ->
// DRAM -> response, including L2 caching, MSHR merging across SMs, atomic
// dirtying, and write paths.
#include "mem/memory_subsystem.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <iterator>
#include <sstream>
#include <string>

#include "common/rng.hpp"

namespace prosim {
namespace {

MemConfig cfg() {
  MemConfig c;
  c.num_partitions = 2;
  c.l2 = CacheGeometry{8 * 1024, 128, 4};
  c.l2_mshr = MshrConfig{8, 4};
  c.l2_hit_latency = 10;
  c.icnt_latency = 5;
  c.icnt_bandwidth = 1;
  c.icnt_queue_capacity = 8;
  c.dram.row_hit_latency = 20;
  c.dram.row_miss_latency = 50;
  return c;
}

MemRequest read(Addr line, int sm, std::uint32_t token = 0) {
  return MemRequest{line, MemReqKind::kRead, sm, token};
}

/// Steps the subsystem until a response for `sm` appears; pops it and
/// returns the arrival cycle.
Cycle run_until_response(MemorySubsystem& mem, int sm, Cycle start,
                         MemResponse* out = nullptr, Cycle limit = 5000) {
  for (Cycle t = start; t < start + limit; ++t) {
    mem.cycle(t);
    if (mem.has_response(sm)) {
      const MemResponse resp = mem.pop_response(sm);
      if (out != nullptr) *out = resp;
      return t;
    }
  }
  ADD_FAILURE() << "no response for sm " << sm;
  return 0;
}

TEST(MemorySubsystem, ReadMissRoundTrip) {
  MemorySubsystem mem(cfg(), 2);
  ASSERT_TRUE(mem.can_inject(0));
  mem.inject(read(0, 0, 42), 0);
  MemResponse resp;
  const Cycle t = run_until_response(mem, 0, 0, &resp);
  EXPECT_EQ(resp.line_addr, 0u);
  EXPECT_EQ(resp.token, 42u);
  EXPECT_FALSE(resp.is_atomic);
  // icnt(5) + miss service (50) + icnt(5) plus queuing: at least 60.
  EXPECT_GE(t, 60u);
  EXPECT_EQ(mem.l2_misses(), 1u);
}

TEST(MemorySubsystem, SecondReadHitsL2AndIsFaster) {
  MemorySubsystem mem(cfg(), 2);
  mem.inject(read(0, 0), 0);
  const Cycle t_miss = run_until_response(mem, 0, 0);

  mem.inject(read(0, 0), t_miss + 1);
  const Cycle t_hit = run_until_response(mem, 0, t_miss + 1);
  EXPECT_LT(t_hit - (t_miss + 1), t_miss);
  EXPECT_EQ(mem.l2_hits(), 1u);
}

TEST(MemorySubsystem, MshrMergesAcrossSms) {
  MemorySubsystem mem(cfg(), 2);
  mem.inject(read(0, 0, 7), 0);
  mem.inject(read(0, 1, 9), 1);
  // Both SMs must receive a response for the single DRAM fetch.
  bool got0 = false;
  bool got1 = false;
  for (Cycle t = 0; t < 2000 && !(got0 && got1); ++t) {
    mem.cycle(t);
    if (mem.has_response(0)) {
      EXPECT_EQ(mem.pop_response(0).token, 7u);
      got0 = true;
    }
    if (mem.has_response(1)) {
      EXPECT_EQ(mem.pop_response(1).token, 9u);
      got1 = true;
    }
  }
  EXPECT_TRUE(got0 && got1);
  // One DRAM read serviced both.
  std::uint64_t dram_reads = 0;
  for (const auto& p : mem.partitions()) dram_reads += p.dram().reads;
  EXPECT_EQ(dram_reads, 1u);
}

TEST(MemorySubsystem, WritesAreFireAndForget) {
  MemorySubsystem mem(cfg(), 1);
  mem.inject({0, MemReqKind::kWrite, 0, 0}, 0);
  for (Cycle t = 0; t < 500; ++t) {
    mem.cycle(t);
    EXPECT_FALSE(mem.has_response(0));
  }
  std::uint64_t dram_writes = 0;
  for (const auto& p : mem.partitions()) dram_writes += p.dram().writes;
  EXPECT_EQ(dram_writes, 1u);  // L2 write-miss forwarded no-allocate
}

TEST(MemorySubsystem, WriteHitStaysInL2) {
  MemorySubsystem mem(cfg(), 1);
  mem.inject(read(0, 0), 0);
  const Cycle t0 = run_until_response(mem, 0, 0);
  // Line now resident: write should dirty it without touching DRAM.
  mem.inject({0, MemReqKind::kWrite, 0, 0}, t0 + 1);
  std::uint64_t writes_before = 0;
  for (const auto& p : mem.partitions()) writes_before += p.dram().writes;
  for (Cycle t = t0 + 1; t < t0 + 300; ++t) mem.cycle(t);
  std::uint64_t writes_after = 0;
  for (const auto& p : mem.partitions()) writes_after += p.dram().writes;
  EXPECT_EQ(writes_after, writes_before);
}

TEST(MemorySubsystem, AtomicRespondsAndDirtiesL2) {
  MemorySubsystem mem(cfg(), 1);
  mem.inject({0, MemReqKind::kAtomic, 0, 5}, 0);
  MemResponse resp;
  run_until_response(mem, 0, 0, &resp);
  EXPECT_TRUE(resp.is_atomic);
  EXPECT_EQ(resp.token, 5u);
}

TEST(MemorySubsystem, PartitionsServeDisjointAddresses) {
  MemorySubsystem mem(cfg(), 1);
  mem.inject(read(0, 0, 1), 0);    // partition 0
  mem.inject(read(128, 0, 2), 0);  // partition 1
  int responses = 0;
  for (Cycle t = 0; t < 2000 && responses < 2; ++t) {
    mem.cycle(t);
    while (mem.has_response(0)) {
      (void)mem.pop_response(0);
      ++responses;
    }
  }
  EXPECT_EQ(responses, 2);
  EXPECT_EQ(mem.partitions()[0].dram().reads, 1u);
  EXPECT_EQ(mem.partitions()[1].dram().reads, 1u);
}

TEST(MemorySubsystem, IdleAfterDraining) {
  MemorySubsystem mem(cfg(), 1);
  EXPECT_TRUE(mem.idle());
  mem.inject(read(0, 0), 0);
  EXPECT_FALSE(mem.idle());
  run_until_response(mem, 0, 0);
  // After popping the response everything is drained.
  for (Cycle t = 0; t < 10; ++t) mem.cycle(1000 + t);
  EXPECT_TRUE(mem.idle());
}

TEST(MemorySubsystem, ManyRequestsAllComplete) {
  // Saturation test: more requests than MSHRs/queues; everything must
  // still complete exactly once.
  MemorySubsystem mem(cfg(), 4);
  constexpr int kPerSm = 40;
  int injected[4] = {0, 0, 0, 0};
  int received[4] = {0, 0, 0, 0};
  Cycle t = 0;
  while (t < 50000) {
    bool all_done = true;
    for (int sm = 0; sm < 4; ++sm) {
      if (injected[sm] < kPerSm) {
        const Addr line = static_cast<Addr>(injected[sm]) * 128 +
                          static_cast<Addr>(sm) * 64 * 128;
        if (mem.can_inject(line)) {
          mem.inject(read(line, sm, static_cast<std::uint32_t>(injected[sm])),
                     t);
          ++injected[sm];
        }
      }
      if (injected[sm] < kPerSm || received[sm] < kPerSm) all_done = false;
    }
    mem.cycle(t);
    for (int sm = 0; sm < 4; ++sm) {
      while (mem.has_response(sm)) {
        (void)mem.pop_response(sm);
        ++received[sm];
      }
    }
    if (all_done) break;
    ++t;
  }
  for (int sm = 0; sm < 4; ++sm) {
    EXPECT_EQ(received[sm], kPerSm) << "sm " << sm;
  }
}

/// Drives one subsystem with a seeded mixed request stream (reads, writes
/// and atomics over a small working set, so hits, merges and evictions all
/// occur) and returns every response as "cycle sm token line" plus the
/// L2/DRAM counters. `tick_all` is the reference mode.
std::string drive(const MemConfig& c, int num_sms, std::uint64_t seed,
                  bool tick_all, std::uint64_t* ticked = nullptr) {
  constexpr MemReqKind kKinds[] = {MemReqKind::kWrite, MemReqKind::kAtomic,
                                   MemReqKind::kRead, MemReqKind::kRead};
  MemorySubsystem mem(c, num_sms);
  mem.set_tick_all(tick_all);
  Rng rng(seed);
  std::ostringstream log;
  std::uint32_t token = 0;
  for (Cycle t = 0; t < 6'000; ++t) {
    mem.cycle(t);
    for (int sm = 0; sm < num_sms; ++sm) {
      while (mem.has_response(sm)) {
        const MemResponse r = mem.pop_response(sm);
        log << t << ' ' << r.sm_id << ' ' << r.token << ' ' << r.line_addr
            << '\n';
      }
      // Bursty injection keeps ports, MSHRs and DRAM queues saturated for a
      // while, then lets them drain.
      if (t < 4'000 && rng.next_bool(0.7)) {
        MemRequest req;
        req.line_addr = rng.next_below(48) * 128;
        req.sm_id = sm;
        req.token = token++;
        req.kind = kKinds[rng.next_below(std::size(kKinds))];
        if (mem.can_inject(req.line_addr)) mem.inject(req, t);
      }
    }
  }
  if (ticked != nullptr) *ticked = mem.partition_cycles_ticked();
  log << "l2 " << mem.l2_hits() << '/' << mem.l2_misses() << " dram "
      << mem.dram_row_hits() << '/' << mem.dram_row_misses()
      << (mem.idle() ? " idle" : "");
  return log.str();
}

TEST(MemorySubsystem, DuePartitionsMatchTickingEveryCycle) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    Rng rng(seed * 977);
    MemConfig c = cfg();
    c.num_partitions = static_cast<int>(rng.next_in(1, 2));
    // A small L2 evicts (dirty victims, writebacks); a large one hits
    // nearly always, enough to back the hit-response path up.
    const int l2_bytes = rng.next_bool(0.5) ? 2 * 1024 : 16 * 1024;
    c.l2 = CacheGeometry{l2_bytes, 128, 4};
    c.l2_mshr = MshrConfig{static_cast<int>(rng.next_in(2, 8)), 2};
    c.l2_hit_latency = static_cast<Cycle>(rng.next_in(30, 100));
    c.dram.queue_capacity = static_cast<int>(rng.next_in(2, 8));
    c.icnt_queue_capacity = static_cast<int>(rng.next_in(1, 8));
    const int num_sms = static_cast<int>(rng.next_in(1, 8));
    SCOPED_TRACE("seed " + std::to_string(seed));
    std::uint64_t due = 0;
    std::uint64_t all = 0;
    const std::string event = drive(c, num_sms, seed, false, &due);
    EXPECT_EQ(event, drive(c, num_sms, seed, true, &all));
    EXPECT_LT(due, all);  // partitions did sleep
  }
}

}  // namespace
}  // namespace prosim
