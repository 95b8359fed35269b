// Direct MemoryPartition tests: L2 write-back behaviour, dirty-victim
// writebacks, atomic dirtying, and MSHR backpressure — driven through a
// private interconnect.
#include "mem/memory_partition.hpp"

#include <gtest/gtest.h>

namespace prosim {
namespace {

MemConfig cfg() {
  MemConfig c;
  c.num_partitions = 1;
  c.l2 = CacheGeometry{1024, 128, 2};  // tiny: 4 sets x 2 ways
  c.l2_mshr = MshrConfig{2, 2};
  c.l2_hit_latency = 5;
  c.icnt_latency = 1;
  c.icnt_bandwidth = 4;
  c.icnt_queue_capacity = 16;
  c.dram.row_hit_latency = 10;
  c.dram.row_miss_latency = 20;
  c.dram.queue_capacity = 8;
  return c;
}

struct Rig {
  explicit Rig(const MemConfig& c = cfg()) : icnt(c, 1), part(c, 0) {}

  void send(MemRequest r) { icnt.send_request(r, now); }

  /// Steps until a response arrives at SM 0 (and pops it).
  MemResponse run_until_response(Cycle limit = 2000) {
    for (; now < limit; ++now) {
      icnt.begin_cycle(now);
      part.cycle(now, icnt);
      if (icnt.has_response(0)) return icnt.pop_response(0);
    }
    ADD_FAILURE() << "no response";
    return {};
  }

  void run(Cycle cycles) {
    const Cycle until = now + cycles;
    for (; now < until; ++now) {
      icnt.begin_cycle(now);
      part.cycle(now, icnt);
      while (icnt.has_response(0)) (void)icnt.pop_response(0);
    }
  }

  Cycle now = 0;
  Interconnect icnt;
  MemoryPartition part;
};

MemRequest read(Addr line, std::uint32_t token = 0) {
  return {line, MemReqKind::kRead, 0, token};
}

TEST(MemoryPartition, AtomicDirtiesLineAndVictimWritesBack) {
  Rig rig;
  // Atomic miss: fetch + dirty.
  rig.send({0, MemReqKind::kAtomic, 0, 1});
  const MemResponse r = rig.run_until_response();
  EXPECT_TRUE(r.is_atomic);
  // Evict the dirty line by filling both ways of its set plus one more
  // (set stride = 4 sets * 128B = 512B).
  rig.send(read(512));
  (void)rig.run_until_response();
  rig.send(read(1024));
  (void)rig.run_until_response();
  rig.run(200);
  // The dirty victim (line 0) must have been written to DRAM.
  EXPECT_GE(rig.part.dram().writes, 1u);
}

TEST(MemoryPartition, CleanVictimsDoNotWriteBack) {
  Rig rig;
  rig.send(read(0));
  (void)rig.run_until_response();
  rig.send(read(512));
  (void)rig.run_until_response();
  rig.send(read(1024));
  (void)rig.run_until_response();
  rig.run(200);
  EXPECT_EQ(rig.part.dram().writes, 0u);
}

TEST(MemoryPartition, WriteMissForwardsWithoutAllocating) {
  Rig rig;
  rig.send({0, MemReqKind::kWrite, 0, 0});
  rig.run(200);
  EXPECT_EQ(rig.part.dram().writes, 1u);
  // The line was not allocated: a subsequent read must miss.
  rig.send(read(0));
  (void)rig.run_until_response();
  EXPECT_EQ(rig.part.l2().misses, 2u);  // write miss + read miss
  EXPECT_EQ(rig.part.l2().hits, 0u);
}

TEST(MemoryPartition, WriteHitDirtiesWithoutDramTraffic) {
  Rig rig;
  rig.send(read(0));
  (void)rig.run_until_response();
  rig.send({0, MemReqKind::kWrite, 0, 0});
  rig.run(200);
  EXPECT_EQ(rig.part.dram().writes, 0u);
  // ...but the line is now dirty: evicting it writes back.
  rig.send(read(512));
  (void)rig.run_until_response();
  rig.send(read(1024));
  (void)rig.run_until_response();
  rig.run(200);
  EXPECT_EQ(rig.part.dram().writes, 1u);
}

TEST(MemoryPartition, MshrMergesSameLineRequests) {
  Rig rig;
  rig.send(read(0, 1));
  rig.send(read(0, 2));
  int got = 0;
  for (; rig.now < 2000 && got < 2; ++rig.now) {
    rig.icnt.begin_cycle(rig.now);
    rig.part.cycle(rig.now, rig.icnt);
    while (rig.icnt.has_response(0)) {
      (void)rig.icnt.pop_response(0);
      ++got;
    }
  }
  EXPECT_EQ(got, 2);
  EXPECT_EQ(rig.part.dram().reads, 1u);  // one fetch served both
  EXPECT_EQ(rig.part.mshr_merges(), 1u);
}

TEST(MemoryPartition, MshrExhaustionBackpressuresWithoutLoss) {
  Rig rig;  // 2 MSHR entries
  rig.send(read(0, 1));
  rig.send(read(512, 2));
  rig.send(read(1024, 3));  // would need a third entry: must wait
  int got = 0;
  for (; rig.now < 4000 && got < 3; ++rig.now) {
    rig.icnt.begin_cycle(rig.now);
    rig.part.cycle(rig.now, rig.icnt);
    while (rig.icnt.has_response(0)) {
      (void)rig.icnt.pop_response(0);
      ++got;
    }
  }
  EXPECT_EQ(got, 3);  // everything eventually completes
  EXPECT_EQ(rig.part.dram().reads, 3u);
}

TEST(MemoryPartition, IdleReflectsInFlightWork) {
  Rig rig;
  EXPECT_TRUE(rig.part.idle());
  rig.send(read(0));
  // After a few cycles the request has crossed the interconnect and sits
  // in the MSHR/DRAM: the partition is busy.
  rig.run(4);
  EXPECT_FALSE(rig.part.idle());
  (void)rig.run_until_response();
  rig.run(5);
  EXPECT_TRUE(rig.part.idle());
}

TEST(MemoryPartition, BackpressuredHitCountsOnce) {
  // A 100-cycle hit latency overflows the 64-entry hit-response queue at
  // one hit per cycle: hits then wait at the request-port head. Each must
  // count (and refresh LRU) once, when it goes, not on every retry.
  MemConfig c = cfg();
  c.l2_hit_latency = 100;
  Rig rig(c);
  rig.send(read(0));
  (void)rig.run_until_response();  // the one miss fills line 0
  constexpr int kHits = 200;
  int sent = 0;
  int got = 0;
  for (; rig.now < 20'000 && got < kHits; ++rig.now) {
    while (sent < kHits && rig.icnt.can_send_request(0)) {
      rig.send(read(0, static_cast<std::uint32_t>(sent++)));
    }
    rig.icnt.begin_cycle(rig.now);
    rig.part.cycle(rig.now, rig.icnt);
    while (rig.icnt.has_response(0)) {
      (void)rig.icnt.pop_response(0);
      ++got;
    }
  }
  EXPECT_EQ(got, kHits);
  EXPECT_EQ(rig.part.l2().hits, static_cast<std::uint64_t>(kHits));
  EXPECT_EQ(rig.part.l2().misses, 1u);
}

}  // namespace
}  // namespace prosim
