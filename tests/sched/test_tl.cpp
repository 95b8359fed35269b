#include "sched/tl.hpp"

#include <gtest/gtest.h>

#include "policy_test_util.hpp"

namespace prosim {
namespace {

// FakeSm defaults: 4 TB slots x 4 warps = 16 warp slots, 2 schedulers.
// Scheduler 0 owns even slots (0,2,...,14) — 8 warps per scheduler.

TEST(Tl, ActiveSetFillsOnLaunchRestPends) {
  FakeSm sm;
  TlPolicy tl(/*active_set_size=*/2);
  tl.attach(sm.ctx);
  sm.launch(tl, 0, 0);  // warps 0..3
  sm.launch(tl, 1, 1);  // warps 4..7
  // Scheduler 0 sees warps 0,2 first -> active; 4,6 pend.
  EXPECT_EQ(tl.active_set(0), (std::vector<int>{0, 2}));
  EXPECT_EQ(tl.pending_set(0), (std::deque<int>{4, 6}));
}

TEST(Tl, ConsiderMaskHidesPendingWarps) {
  FakeSm sm;
  TlPolicy tl(2);
  tl.attach(sm.ctx);
  sm.launch(tl, 0, 0);
  sm.launch(tl, 1, 1);
  const std::uint64_t consider = tl.consider_mask(0);
  EXPECT_TRUE(consider & (1ull << 0));
  EXPECT_TRUE(consider & (1ull << 2));
  EXPECT_FALSE(consider & (1ull << 4));
  EXPECT_FALSE(consider & (1ull << 6));
}

TEST(Tl, LongLatencyIssueDemotesAndPromotes) {
  FakeSm sm;
  TlPolicy tl(2);
  tl.attach(sm.ctx);
  sm.launch(tl, 0, 0);
  sm.launch(tl, 1, 1);
  tl.on_warp_issue(0, 32, /*long_latency=*/true);
  EXPECT_EQ(tl.active_set(0), (std::vector<int>{2, 4}));
  EXPECT_EQ(tl.pending_set(0), (std::deque<int>{6, 0}));
}

TEST(Tl, ShortLatencyIssueKeepsActiveSet) {
  FakeSm sm;
  TlPolicy tl(2);
  tl.attach(sm.ctx);
  sm.launch(tl, 0, 0);
  sm.launch(tl, 1, 1);
  tl.on_warp_issue(0, 32, /*long_latency=*/false);
  EXPECT_EQ(tl.active_set(0), (std::vector<int>{0, 2}));
}

TEST(Tl, DemoteWithoutPendingKeepsWarp) {
  FakeSm sm;
  TlPolicy tl(4);  // room for everything
  tl.attach(sm.ctx);
  sm.launch(tl, 0, 0);
  tl.on_warp_issue(0, 32, true);
  EXPECT_EQ(tl.active_set(0), (std::vector<int>{0, 2}));
}

TEST(Tl, BarrierArrivalDemotesWarp) {
  FakeSm sm;
  TlPolicy tl(2);
  tl.attach(sm.ctx);
  sm.launch(tl, 0, 0);
  sm.launch(tl, 1, 1);
  tl.on_warp_barrier_arrive(0, 0);
  EXPECT_EQ(tl.active_set(0), (std::vector<int>{2, 4}));
  // The parked warp is never promoted while the barrier holds.
  tl.on_warp_issue(2, 32, true);
  tl.on_warp_issue(4, 32, true);
  const auto& active = tl.active_set(0);
  for (int w : active) EXPECT_NE(w, 0);
}

TEST(Tl, BarrierReleaseMakesWarpPromotableAgain) {
  FakeSm sm;
  TlPolicy tl(2);
  tl.attach(sm.ctx);
  sm.launch(tl, 0, 0);
  sm.launch(tl, 1, 1);
  // All four of scheduler 0's warps cycle: demote 0 and 2 via barrier.
  tl.on_warp_barrier_arrive(0, 0);
  tl.on_warp_barrier_arrive(2, 0);
  EXPECT_EQ(tl.active_set(0), (std::vector<int>{4, 6}));
  tl.on_barrier_release(0);
  // Demote an active warp: warp 0 (front of pending, now runnable) returns.
  tl.on_warp_issue(4, 32, true);
  EXPECT_EQ(tl.active_set(0), (std::vector<int>{0, 6}));
}

TEST(Tl, FinishRemovesAndBackfills) {
  FakeSm sm;
  TlPolicy tl(2);
  tl.attach(sm.ctx);
  sm.launch(tl, 0, 0);
  sm.launch(tl, 1, 1);
  tl.on_warp_finish(0, 0);
  EXPECT_EQ(tl.active_set(0), (std::vector<int>{2, 4}));
  EXPECT_EQ(tl.pending_set(0), (std::deque<int>{6}));
  // Finish of a pending warp just removes it.
  tl.on_warp_finish(6, 1);
  EXPECT_TRUE(tl.pending_set(0).empty());
}

TEST(Tl, YieldedTbLeavesBothSetsAndResumesOnce) {
  FakeSm sm;
  TlPolicy tl(2);
  tl.attach(sm.ctx);
  sm.launch(tl, 0, 0);  // scheduler 0: warps 0, 2 active
  sm.launch(tl, 1, 1);  // warps 4, 6 pend
  // TB slot 0 yields with unfinished warps: 4 and 6 take their places.
  tl.on_tb_finish(0);
  EXPECT_EQ(tl.active_set(0), (std::vector<int>{4, 6}));
  EXPECT_TRUE(tl.pending_set(0).empty());
  // Its resume into slot 0 queues each warp once.
  sm.launch(tl, 0, 0);
  EXPECT_EQ(tl.active_set(0), (std::vector<int>{4, 6}));
  EXPECT_EQ(tl.pending_set(0), (std::deque<int>{0, 2}));
}

TEST(Tl, ActiveSetNeverExceedsLimitUnderChurn) {
  FakeSm sm(4, 4, 2);
  TlPolicy tl(3);
  tl.attach(sm.ctx);
  for (int t = 0; t < 4; ++t) sm.launch(tl, t, t);
  for (int round = 0; round < 50; ++round) {
    const auto& active = tl.active_set(0);
    ASSERT_LE(static_cast<int>(active.size()), 3);
    if (!active.empty()) {
      tl.on_warp_issue(active.front(), 32, true);
    }
  }
}

TEST(Tl, PickIsRoundRobinWithinActive) {
  FakeSm sm;
  TlPolicy tl(3);
  tl.attach(sm.ctx);
  sm.launch(tl, 0, 0);
  sm.launch(tl, 1, 1);
  const std::uint64_t ready = tl.consider_mask(0);
  const int a = tl.pick(0, ready, 0);
  const int b = tl.pick(0, ready, 1);
  const int c = tl.pick(0, ready, 2);
  EXPECT_NE(a, b);
  EXPECT_NE(b, c);
  EXPECT_NE(a, c);
  EXPECT_EQ(tl.pick(0, ready, 3), a);  // wraps
}

TEST(Tl, BarrierKernelCannotDeadlock) {
  // Regression for the livelock found during bring-up: warps at a barrier
  // used to squat in the active set while their runnable siblings were
  // hidden in pending. Simulate the event sequence and verify a runnable
  // warp is always visible.
  FakeSm sm(1, 8, 1);  // 1 TB of 8 warps, one scheduler
  TlPolicy tl(2);
  tl.attach(sm.ctx);
  sm.launch(tl, 0, 0);
  // Warps reach the barrier one by one; after each arrival the active set
  // must still expose a not-at-barrier warp (until all 8 arrived).
  for (int w = 0; w < 8; ++w) {
    tl.on_warp_barrier_arrive(w, 0);
    if (w < 7) {
      bool has_runnable = false;
      for (int a : tl.active_set(0)) {
        if (a > w) has_runnable = true;  // not yet at barrier
      }
      EXPECT_TRUE(has_runnable) << "after arrival " << w;
    }
  }
  tl.on_barrier_release(0);
  EXPECT_FALSE(tl.active_set(0).empty());
}

}  // namespace
}  // namespace prosim
