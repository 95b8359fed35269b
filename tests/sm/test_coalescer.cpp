#include "sm/coalescer.hpp"

#include <algorithm>
#include <map>
#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.hpp"

namespace prosim {
namespace {

TEST(Coalescer, FullyCoalescedWarpIsOneTransaction) {
  Addr addrs[kWarpSize];
  for (int i = 0; i < kWarpSize; ++i) addrs[i] = 1024 + i * 4;
  auto lines = coalesce_lines(addrs, kFullMask, 128);
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_EQ(lines[0], 1024u);
}

TEST(Coalescer, EightByteStrideSpansTwoLines) {
  Addr addrs[kWarpSize];
  for (int i = 0; i < kWarpSize; ++i) addrs[i] = i * 8;  // 256 bytes
  auto lines = coalesce_lines(addrs, kFullMask, 128);
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_EQ(lines[0], 0u);
  EXPECT_EQ(lines[1], 128u);
}

TEST(Coalescer, FullyScatteredIsThirtyTwoTransactions) {
  Addr addrs[kWarpSize];
  for (int i = 0; i < kWarpSize; ++i)
    addrs[i] = static_cast<Addr>(i) * 4096;
  auto lines = coalesce_lines(addrs, kFullMask, 128);
  EXPECT_EQ(lines.size(), 32u);
}

TEST(Coalescer, InactiveLanesIgnored) {
  Addr addrs[kWarpSize] = {};
  addrs[0] = 0;
  addrs[5] = 128;
  addrs[9] = 999999;  // garbage in an inactive lane
  auto lines = coalesce_lines(addrs, (1u << 0) | (1u << 5), 128);
  ASSERT_EQ(lines.size(), 2u);
}

TEST(Coalescer, ResultSortedAscending) {
  Addr addrs[kWarpSize] = {};
  addrs[0] = 512;
  addrs[1] = 0;
  addrs[2] = 256;
  auto lines = coalesce_lines(addrs, 0x7, 128);
  ASSERT_EQ(lines.size(), 3u);
  EXPECT_LT(lines[0], lines[1]);
  EXPECT_LT(lines[1], lines[2]);
}

TEST(Coalescer, BroadcastSameAddressIsOneLine) {
  Addr addrs[kWarpSize];
  for (int i = 0; i < kWarpSize; ++i) addrs[i] = 4096;
  auto lines = coalesce_lines(addrs, kFullMask, 128);
  EXPECT_EQ(lines.size(), 1u);
}

TEST(BankConflicts, ConflictFreeUnitStride) {
  Addr addrs[kWarpSize];
  for (int i = 0; i < kWarpSize; ++i) addrs[i] = i * 8;  // one word per bank
  EXPECT_EQ(smem_conflict_degree(addrs, kFullMask, 32), 1);
}

TEST(BankConflicts, BroadcastIsConflictFree) {
  Addr addrs[kWarpSize];
  for (int i = 0; i < kWarpSize; ++i) addrs[i] = 64;  // same word
  EXPECT_EQ(smem_conflict_degree(addrs, kFullMask, 32), 1);
}

TEST(BankConflicts, StrideOfBanksIsFullySerialized) {
  Addr addrs[kWarpSize];
  for (int i = 0; i < kWarpSize; ++i)
    addrs[i] = static_cast<Addr>(i) * 32 * 8;  // all hit bank 0
  EXPECT_EQ(smem_conflict_degree(addrs, kFullMask, 32), 32);
}

TEST(BankConflicts, TwoWayConflict) {
  Addr addrs[kWarpSize];
  for (int i = 0; i < kWarpSize; ++i)
    addrs[i] = static_cast<Addr>(i % 16) * 8 +
               static_cast<Addr>(i / 16) * 16 * 8;
  // Lanes i and i+16 hit the same bank with different words.
  EXPECT_EQ(smem_conflict_degree(addrs, kFullMask, 16), 2);
}

TEST(BankConflicts, NoActiveLanesIsZero) {
  Addr addrs[kWarpSize] = {};
  EXPECT_EQ(smem_conflict_degree(addrs, 0, 32), 0);
}

TEST(BankConflicts, InactiveLanesIgnored) {
  Addr addrs[kWarpSize];
  for (int i = 0; i < kWarpSize; ++i) addrs[i] = 0;  // all same word
  addrs[3] = 32 * 8;  // would conflict with lane 0 if active
  EXPECT_EQ(smem_conflict_degree(addrs, kFullMask & ~(1u << 3), 32), 1);
}

// Property check of coalesce_lines_into and smem_conflict_degree against
// std::set references, over strided, broadcast, reversed and random lane
// addresses under random active masks (including none and one lane).
// Random lanes exercise the bitmap sort, scattered ones the wide-span sort.
struct LanePattern {
  const char* name;
  Addr (*addr)(int lane, Addr base, Rng& rng);
};

const LanePattern kPatterns[] = {
    {"stride1", [](int lane, Addr base, Rng&) { return base + lane * 8; }},
    {"stride2", [](int lane, Addr base, Rng&) { return base + lane * 16; }},
    {"stride32", [](int lane, Addr base, Rng&) { return base + lane * 256; }},
    {"broadcast", [](int, Addr base, Rng&) { return base; }},
    {"reversed",
     [](int lane, Addr base, Rng&) { return base + (kWarpSize - 1 - lane) * 8; }},
    {"random",
     [](int, Addr base, Rng& rng) { return base + rng.next_below(4096); }},
    {"scattered",
     [](int, Addr base, Rng& rng) { return base + (rng.next_below(8) << 20); }},
};

std::vector<Addr> reference_lines(const Addr* addrs, ActiveMask active,
                                  int line_bytes) {
  std::set<Addr> lines;
  for (int lane = 0; lane < kWarpSize; ++lane) {
    if ((active >> lane) & 1) {
      lines.insert(addrs[lane] / line_bytes * line_bytes);
    }
  }
  return {lines.begin(), lines.end()};
}

int reference_degree(const Addr* addrs, ActiveMask active, int banks) {
  std::set<Addr> words;
  for (int lane = 0; lane < kWarpSize; ++lane) {
    if ((active >> lane) & 1) words.insert(addrs[lane] / 8);
  }
  std::map<Addr, int> per_bank;
  int degree = 0;
  for (const Addr word : words) {
    degree = std::max(degree, ++per_bank[word % static_cast<Addr>(banks)]);
  }
  return degree;
}

TEST(CoalescerProperty, MatchesSetReference) {
  Rng rng(0xC0A1);
  for (const LanePattern& pattern : kPatterns) {
    for (int trial = 0; trial < 200; ++trial) {
      Addr addrs[kWarpSize];
      const Addr base = rng.next_below(1 << 16) * 4;
      for (int lane = 0; lane < kWarpSize; ++lane) {
        addrs[lane] = pattern.addr(lane, base, rng);
      }
      ActiveMask active = static_cast<ActiveMask>(rng.next_u64());
      if (trial % 10 == 0) active = 0;
      if (trial % 10 == 1) active = 1u << rng.next_below(kWarpSize);
      if (trial % 10 == 2) active = kFullMask;
      SCOPED_TRACE(::testing::Message() << pattern.name << " trial " << trial
                                        << " active " << active);
      for (const int line_bytes : {32, 128}) {
        Addr out[kWarpSize];
        const int count = coalesce_lines_into(addrs, active, line_bytes, out);
        EXPECT_EQ(std::vector<Addr>(out, out + count),
                  reference_lines(addrs, active, line_bytes));
      }
      for (const int banks : {1, 16, 32, 48, 96}) {
        EXPECT_EQ(smem_conflict_degree(addrs, active, banks),
                  reference_degree(addrs, active, banks))
            << "banks " << banks;
      }
    }
  }
}

}  // namespace
}  // namespace prosim
