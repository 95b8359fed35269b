#include "common/delay_queue.hpp"

#include <gtest/gtest.h>

namespace prosim {
namespace {

TEST(DelayQueue, ItemInvisibleUntilLatencyElapses) {
  DelayQueue<int> q(/*latency=*/5, /*bandwidth=*/1, /*capacity=*/4);
  q.push(42, /*now=*/10);
  for (Cycle t = 10; t < 15; ++t) {
    EXPECT_FALSE(q.can_pop(t)) << "cycle " << t;
  }
  ASSERT_TRUE(q.can_pop(15));
  EXPECT_EQ(q.pop(15), 42);
}

TEST(DelayQueue, BandwidthLimitsPopsPerCycle) {
  DelayQueue<int> q(0, /*bandwidth=*/2, /*capacity=*/8);
  for (int i = 0; i < 5; ++i) q.push(i, 0);
  EXPECT_TRUE(q.can_pop(0));
  EXPECT_EQ(q.pop(0), 0);
  EXPECT_EQ(q.pop(0), 1);
  EXPECT_FALSE(q.can_pop(0));  // budget exhausted
  EXPECT_EQ(q.pop(1), 2);      // a new cycle resets the budget
}

TEST(DelayQueue, CapacityBlocksPush) {
  DelayQueue<int> q(1, 1, /*capacity=*/2);
  EXPECT_TRUE(q.can_push());
  q.push(1, 0);
  q.push(2, 0);
  EXPECT_FALSE(q.can_push());
  (void)q.pop(1);
  EXPECT_TRUE(q.can_push());
}

TEST(DelayQueue, FifoOrderPreserved) {
  DelayQueue<int> q(3, 4, 16);
  q.push(7, 0);
  q.push(8, 1);
  q.push(9, 1);
  EXPECT_EQ(q.pop(10), 7);
  EXPECT_EQ(q.pop(10), 8);
  EXPECT_EQ(q.pop(10), 9);
  EXPECT_TRUE(q.empty());
}

TEST(DelayQueue, SizeTracksContents) {
  DelayQueue<int> q(1, 1, 8);
  EXPECT_EQ(q.size(), 0u);
  q.push(1, 0);
  q.push(2, 0);
  EXPECT_EQ(q.size(), 2u);
}

TEST(DelayQueueDeathTest, OverflowAborts) {
  DelayQueue<int> q(1, 1, 1);
  q.push(1, 0);
  EXPECT_DEATH(q.push(2, 0), "overflow");
}

TEST(DelayQueueDeathTest, PopWithoutReadyItemAborts) {
  DelayQueue<int> q(5, 1, 4);
  q.push(1, 0);
  EXPECT_DEATH(q.pop(0), "can_pop");
}

}  // namespace
}  // namespace prosim
