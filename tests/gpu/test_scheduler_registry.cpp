#include "gpu/scheduler_registry.hpp"

#include <gtest/gtest.h>

#include <map>
#include <set>
#include <string>

#include "gpu/gpu.hpp"  // make_policy

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
  // Every row's factory builds the policy its kind names.
  const std::map<SchedulerKind, std::string> policy_names = {
      {SchedulerKind::kLrr, "lrr"},
      {SchedulerKind::kGto, "gto"},
      {SchedulerKind::kTl, "tl"},
      {SchedulerKind::kPro, "pro"},
      {SchedulerKind::kProAdaptive, "pro-adaptive"},
      {SchedulerKind::kCaws, "caws"},
      {SchedulerKind::kOwl, "owl"}};
  for (const SchedulerInfo& info : scheduler_registry()) {
    SchedulerSpec spec;
    spec.kind = info.kind;
    EXPECT_EQ(make_policy(spec)->name(), policy_names.at(info.kind))
        << info.name;
  }
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
