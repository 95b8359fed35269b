#include "mem/mshr.hpp"

#include <map>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.hpp"

namespace prosim {
namespace {

TEST(Mshr, AllocateAndRelease) {
  Mshr<int> m(MshrConfig{4, 2});
  EXPECT_FALSE(m.has(0));
  EXPECT_TRUE(m.can_allocate());
  m.allocate(0, 10);
  EXPECT_TRUE(m.has(0));
  auto tokens = m.release(0);
  ASSERT_EQ(tokens.size(), 1u);
  EXPECT_EQ(tokens[0], 10);
  EXPECT_FALSE(m.has(0));
}

TEST(Mshr, MergeCollectsTokensInOrder) {
  Mshr<int> m(MshrConfig{4, 3});
  m.allocate(128, 1);
  ASSERT_TRUE(m.can_merge(128));
  m.merge(128, 2);
  m.merge(128, 3);
  auto tokens = m.release(128);
  ASSERT_EQ(tokens.size(), 3u);
  EXPECT_EQ(tokens[0], 1);
  EXPECT_EQ(tokens[1], 2);
  EXPECT_EQ(tokens[2], 3);
}

TEST(Mshr, MergeCapEnforced) {
  Mshr<int> m(MshrConfig{4, 2});
  m.allocate(0, 1);
  m.merge(0, 2);
  EXPECT_FALSE(m.can_merge(0));
}

TEST(Mshr, EntryCapEnforced) {
  Mshr<int> m(MshrConfig{2, 8});
  m.allocate(0, 1);
  m.allocate(128, 2);
  EXPECT_FALSE(m.can_allocate());
  (void)m.release(0);
  EXPECT_TRUE(m.can_allocate());
}

TEST(Mshr, CannotMergeAbsentLine) {
  Mshr<int> m(MshrConfig{2, 8});
  EXPECT_FALSE(m.can_merge(64));
}

TEST(Mshr, OccupancyTracksEntries) {
  Mshr<int> m(MshrConfig{4, 4});
  EXPECT_EQ(m.occupancy(), 0);
  m.allocate(0, 1);
  m.allocate(128, 2);
  m.merge(0, 3);  // merges don't change occupancy
  EXPECT_EQ(m.occupancy(), 2);
}

TEST(MshrDeathTest, ReleaseOfUnknownLineAborts) {
  Mshr<int> m(MshrConfig{2, 2});
  EXPECT_DEATH((void)m.release(0), "unknown line");
}

TEST(MshrDeathTest, DoubleAllocateAborts) {
  Mshr<int> m(MshrConfig{2, 2});
  m.allocate(0, 1);
  EXPECT_DEATH(m.allocate(0, 2), "");
}

// Property check against a std::map reference over random allocate, merge
// and release sequences: every query and the token order on release agree.
TEST(MshrProperty, MatchesMapReference) {
  Rng rng(0x3511);
  for (const MshrConfig config :
       {MshrConfig{1, 1}, MshrConfig{4, 2}, MshrConfig{8, 8},
        MshrConfig{32, 8}, MshrConfig{6, 3}}) {
    Mshr<int> mshr(config);
    std::map<Addr, std::vector<int>> ref;
    int next_token = 0;
    for (int step = 0; step < 4000; ++step) {
      // A small line pool makes hits on live entries common.
      const Addr line = rng.next_below(
                            static_cast<std::uint64_t>(config.entries) * 2 + 1) *
                        128;
      const auto it = ref.find(line);
      const bool live = it != ref.end();
      ASSERT_EQ(mshr.has(line), live);
      ASSERT_EQ(mshr.can_allocate(),
                static_cast<int>(ref.size()) < config.entries);
      ASSERT_EQ(mshr.can_merge(line),
                live && static_cast<int>(it->second.size()) <
                            config.max_merges);
      ASSERT_EQ(mshr.occupancy(), static_cast<int>(ref.size()));
      if (live && rng.next_below(3) == 0) {
        const std::span<const int> got = mshr.release(line);
        ASSERT_EQ(std::vector<int>(got.begin(), got.end()), it->second);
        ref.erase(it);
      } else if (live && mshr.can_merge(line)) {
        mshr.merge(line, next_token);
        it->second.push_back(next_token++);
      } else if (!live && mshr.can_allocate()) {
        mshr.allocate(line, next_token);
        ref[line].push_back(next_token++);
      }
    }
  }
}

}  // namespace
}  // namespace prosim
