// Fingerprint coverage for the three cache-key ingredients: GpuConfig,
// ProConfig, and Workload. The property that matters is distinctness —
// any knob that changes simulation output must change the fingerprint,
// or the result cache would serve stale data.
#include <set>
#include <string>

#include <gtest/gtest.h>

#include "gpu/gpu_config.hpp"
#include "gpu/scheduler_registry.hpp"
#include "kernels/registry.hpp"
#include "sweep_test_util.hpp"

namespace prosim {
namespace {

TEST(ConfigFingerprint, IdenticalConfigsMatch) {
  EXPECT_EQ(GpuConfig{}.fingerprint(), GpuConfig{}.fingerprint());
  EXPECT_EQ(GpuConfig::test_config().fingerprint(),
            GpuConfig::test_config().fingerprint());
}

TEST(ConfigFingerprint, TimingKnobsAreAllObserved) {
  const std::uint64_t base = GpuConfig{}.fingerprint();
  std::set<std::uint64_t> seen{base};

  auto expect_distinct = [&seen](const GpuConfig& cfg, const char* what) {
    EXPECT_TRUE(seen.insert(cfg.fingerprint()).second)
        << what << " did not change the fingerprint";
  };

  GpuConfig cfg;
  cfg.num_sms = 7;
  expect_distinct(cfg, "num_sms");

  cfg = GpuConfig{};
  cfg.scheduler.kind = SchedulerKind::kGto;
  expect_distinct(cfg, "scheduler kind");

  cfg = GpuConfig{};
  cfg.scheduler.kind = SchedulerKind::kTl;
  expect_distinct(cfg, "scheduler kind (TL)");

  cfg = GpuConfig{};
  cfg.scheduler.pro.sort_threshold = 500;
  expect_distinct(cfg, "PRO sort_threshold");

  cfg = GpuConfig{};
  cfg.scheduler.pro.handle_barriers = false;
  expect_distinct(cfg, "PRO handle_barriers");

  cfg = GpuConfig{};
  cfg.faults = FaultConfig::chaos(7);
  expect_distinct(cfg, "fault injection");

  cfg = GpuConfig{};
  cfg.faults = FaultConfig::chaos(8);
  expect_distinct(cfg, "fault seed");

  cfg = GpuConfig{};
  cfg.record_registers = true;
  expect_distinct(cfg, "record_registers");

  cfg = GpuConfig{};
  cfg.record_tb_order_sm0 = true;
  expect_distinct(cfg, "record_tb_order_sm0");

  cfg = GpuConfig{};
  cfg.max_cycles = 1000;
  expect_distinct(cfg, "max_cycles");

  cfg = GpuConfig{};
  cfg.sm.num_schedulers = cfg.sm.num_schedulers + 1;
  expect_distinct(cfg, "SM partition count");
}

TEST(ConfigFingerprint, DisabledFaultKnobsDoNotLeakIntoKey) {
  // A disabled FaultConfig must fingerprint the same regardless of its
  // latent knob values — those knobs have no timing effect while off.
  GpuConfig a;
  GpuConfig b;
  b.faults = FaultConfig::chaos(42);
  b.faults.enabled = false;
  EXPECT_EQ(a.fingerprint(), b.fingerprint());
}

TEST(ConfigFingerprint, KeyIsHumanReadable) {
  GpuConfig cfg;
  cfg.scheduler.kind = SchedulerKind::kPro;
  EXPECT_EQ(cfg.fingerprint_key(), "PRO.sms14");
  cfg.faults = FaultConfig::chaos(9);
  EXPECT_EQ(cfg.fingerprint_key(), "PRO.sms14.f9");
}

TEST(ConfigFingerprint, SchedulerNameRoundTrips) {
  for (SchedulerKind kind :
       {SchedulerKind::kLrr, SchedulerKind::kGto, SchedulerKind::kTl,
        SchedulerKind::kPro, SchedulerKind::kProAdaptive, SchedulerKind::kCaws,
        SchedulerKind::kOwl}) {
    const SchedulerInfo* parsed = find_scheduler(scheduler_name(kind));
    ASSERT_NE(parsed, nullptr) << scheduler_name(kind);
    EXPECT_EQ(parsed->kind, kind);
  }
  EXPECT_EQ(find_scheduler("FIFO"), nullptr);
  EXPECT_EQ(find_scheduler(""), nullptr);
}

TEST(ProConfigFingerprint, KnobsDistinct) {
  std::set<std::uint64_t> seen{ProConfig{}.fingerprint()};
  ProConfig p;
  p.sort_threshold = 2000;
  EXPECT_TRUE(seen.insert(p.fingerprint()).second);
  p = ProConfig{};
  p.handle_finish = false;
  EXPECT_TRUE(seen.insert(p.fingerprint()).second);
  p = ProConfig{};
  p.fast_nowait_increasing = true;
  EXPECT_TRUE(seen.insert(p.fingerprint()).second);
  p = ProConfig{};
  p.model_sort_latency = true;
  EXPECT_TRUE(seen.insert(p.fingerprint()).second);
}

TEST(WorkloadFingerprint, ReproducibleForEqualWorkloads) {
  // Two independently built but identical workloads (same program, same
  // init data) hash the same — the property that lets a rerun hit cache.
  const Workload a = runner_test::make_mem_workload("twin", 3);
  const Workload b = runner_test::make_mem_workload("twin", 3);
  EXPECT_EQ(a.fingerprint(), b.fingerprint());
}

TEST(WorkloadFingerprint, ProgramAndDataChangesObserved) {
  const Workload base = runner_test::make_mem_workload("base", 3);

  // Different grid size → different program metadata.
  EXPECT_NE(base.fingerprint(),
            runner_test::make_mem_workload("base", 4).fingerprint());

  // Different instruction stream, same name and shape.
  EXPECT_NE(base.fingerprint(),
            runner_test::make_alu_workload("base", 3).fingerprint());

  // Same program, different init-memory image.
  Workload tweaked = runner_test::make_mem_workload("base", 3);
  tweaked.init = [](GlobalMemory& mem) {
    for (int i = 0; i < 3 * 64; ++i) {
      mem.store(static_cast<Addr>(i) * 8, i + 2);  // +2 instead of +1
    }
  };
  EXPECT_NE(base.fingerprint(), tweaked.fingerprint());
}

TEST(WorkloadFingerprint, AllRegistryWorkloadsDistinct) {
  std::set<std::uint64_t> fps;
  for (const Workload& w : all_workloads()) {
    EXPECT_TRUE(fps.insert(w.fingerprint()).second)
        << "duplicate fingerprint for " << w.kernel;
  }
  EXPECT_EQ(fps.size(), all_workloads().size());
}

}  // namespace
}  // namespace prosim
