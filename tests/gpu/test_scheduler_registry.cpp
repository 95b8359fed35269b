#include "gpu/scheduler_registry.hpp"

#include <gtest/gtest.h>

#include <set>
#include <string>

#include "core/pro_scheduler.hpp"
#include "gpu/gpu.hpp"  // make_policy
#include "sched/lrr.hpp"

namespace prosim {
namespace {

TEST(SchedulerRegistry, EveryKindHasExactlyOneRow) {
  std::set<SchedulerKind> kinds;
  std::set<std::string> names;
  for (const SchedulerInfo& info : scheduler_registry()) {
    EXPECT_TRUE(kinds.insert(info.kind).second)
        << "duplicate kind for " << info.name;
    EXPECT_TRUE(names.insert(info.name).second)
        << "duplicate name " << info.name;
    EXPECT_NE(info.description, nullptr);
    EXPECT_NE(info.factory, nullptr);
  }
  // One row per SchedulerKind enumerator.
  for (SchedulerKind kind :
       {SchedulerKind::kLrr, SchedulerKind::kGto, SchedulerKind::kTl,
        SchedulerKind::kPro, SchedulerKind::kProAdaptive,
        SchedulerKind::kCaws, SchedulerKind::kOwl}) {
    EXPECT_EQ(kinds.count(kind), 1u);
  }
  EXPECT_EQ(scheduler_registry().size(), 7u);
}

TEST(SchedulerRegistry, LegacyWrappersRoundTrip) {
  for (const SchedulerInfo& info : scheduler_registry()) {
    EXPECT_STREQ(scheduler_name(info.kind), info.name);
    const SchedulerInfo* found = find_scheduler(info.name);
    ASSERT_NE(found, nullptr) << info.name;
    EXPECT_EQ(found->kind, info.kind);
  }
  EXPECT_EQ(find_scheduler("NOPE"), nullptr);
}

TEST(SchedulerRegistry, FactoriesHonorTheSpec) {
  SchedulerSpec spec;
  spec.kind = SchedulerKind::kLrr;
  auto lrr = make_policy(spec);
  EXPECT_NE(dynamic_cast<LrrPolicy*>(lrr.get()), nullptr);

  spec.kind = SchedulerKind::kPro;
  auto pro = make_policy(spec);
  EXPECT_NE(dynamic_cast<ProPolicy*>(pro.get()), nullptr);
}

TEST(SchedulerRegistry, ListingNamesEveryScheduler) {
  const std::string listing = list_schedulers();
  for (const SchedulerInfo& info : scheduler_registry()) {
    EXPECT_NE(listing.find(info.name), std::string::npos) << info.name;
    EXPECT_NE(listing.find(info.description), std::string::npos)
        << info.name;
  }
}

}  // namespace
}  // namespace prosim
