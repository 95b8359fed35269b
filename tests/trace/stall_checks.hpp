// Shared stall-taxonomy check: an SmStats' cause_cycles sum per legacy
// class to its issued/idle/scoreboard/pipeline counters.
#pragma once

#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "sm/sm_core.hpp"

namespace prosim {

/// The causes sum per legacy class to the legacy counters.
inline void expect_reconciles(const SmStats& s, const std::string& where) {
  std::uint64_t by_class[4] = {};
  for (int c = 0; c < kNumStallCauses; ++c) {
    by_class[static_cast<int>(
        legacy_stall_class(static_cast<StallCause>(c)))] += s.cause_cycles[c];
  }
  EXPECT_EQ(by_class[static_cast<int>(LegacyStallClass::kIssued)], s.issued)
      << where;
  EXPECT_EQ(by_class[static_cast<int>(LegacyStallClass::kIdle)],
            s.idle_stalls)
      << where;
  EXPECT_EQ(by_class[static_cast<int>(LegacyStallClass::kScoreboard)],
            s.scoreboard_stalls)
      << where;
  EXPECT_EQ(by_class[static_cast<int>(LegacyStallClass::kPipeline)],
            s.pipeline_stalls)
      << where;
}

}  // namespace prosim
