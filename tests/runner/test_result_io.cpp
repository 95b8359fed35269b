// GpuResult <-> JSON round trip — the storage contract of the result
// cache. The round trip must be bit-exact (serialize → parse → serialize
// yields the same bytes), including the optional heavyweight fields
// (timelines, registers, PRO TB-order samples) and fault counters.
#include <filesystem>
#include <fstream>
#include <string>

#include <gtest/gtest.h>

#include "gpu/gpu.hpp"
#include "gpu/result_io.hpp"
#include "mem/global_memory.hpp"
#include "runner/result_cache.hpp"
#include "sweep_test_util.hpp"

namespace prosim {
namespace {

namespace fs = std::filesystem;

GpuResult simulate_workload(const Workload& w, const GpuConfig& cfg) {
  GlobalMemory mem;
  w.init(mem);
  return simulate(cfg, w.program, mem);
}

TEST(ResultIo, RoundTripIsBitExact) {
  // PRO + every recording flag on + fault injection: populates timelines,
  // tb_order_sm0, registers, and faults_injected all at once.
  GpuConfig cfg = runner_test::sweep_test_config();
  cfg.scheduler.kind = SchedulerKind::kPro;
  cfg.record_registers = true;
  cfg.record_tb_order_sm0 = true;
  cfg.faults = FaultConfig::chaos(5);
  const Workload w = runner_test::make_mem_workload("roundtrip", 4);
  const GpuResult original = simulate_workload(w, cfg);

  const std::string json = gpu_result_to_json(original);
  Expected<GpuResult> parsed = gpu_result_from_json(json);
  ASSERT_TRUE(parsed.has_value()) << parsed.error().message;

  // Re-serializing the parsed result must reproduce the exact bytes —
  // this single check covers every field the writer emits.
  EXPECT_EQ(gpu_result_to_json(parsed.value()), json);

  // Spot-check structure, so a writer/reader bug that drops a field
  // symmetrically still gets caught.
  const GpuResult& r = parsed.value();
  EXPECT_EQ(r.cycles, original.cycles);
  EXPECT_EQ(r.totals.thread_insts, original.totals.thread_insts);
  ASSERT_EQ(r.per_sm.size(), original.per_sm.size());
  EXPECT_GT(r.per_sm.size(), 0u);
  EXPECT_EQ(r.per_sm[0].issued, original.per_sm[0].issued);
  ASSERT_EQ(r.timelines.size(), original.timelines.size());
  ASSERT_GT(original.timelines[0].size(), 0u);
  EXPECT_EQ(r.timelines[0][0].ctaid, original.timelines[0][0].ctaid);
  EXPECT_EQ(r.timelines[0][0].start, original.timelines[0][0].start);
  EXPECT_EQ(r.timelines[0][0].end, original.timelines[0][0].end);
  EXPECT_EQ(r.tb_order_sm0.size(), original.tb_order_sm0.size());
  EXPECT_EQ(r.faults_injected, original.faults_injected);
  EXPECT_GT(r.faults_injected, 0u);  // chaos preset must actually fire
  EXPECT_EQ(r.l2_misses, original.l2_misses);
  EXPECT_EQ(r.registers, original.registers);
  EXPECT_GT(r.registers.size(), 0u);
  EXPECT_EQ(r.regs_per_thread, original.regs_per_thread);
  EXPECT_EQ(r.block_dim, original.block_dim);
}

TEST(ResultIo, RoundTripWithoutOptionalRecordings) {
  const Workload w = runner_test::make_alu_workload("lean", 2);
  const GpuResult original =
      simulate_workload(w, runner_test::sweep_test_config());
  EXPECT_TRUE(original.registers.empty());
  EXPECT_TRUE(original.tb_order_sm0.empty());

  const std::string json = gpu_result_to_json(original);
  Expected<GpuResult> parsed = gpu_result_from_json(json);
  ASSERT_TRUE(parsed.has_value()) << parsed.error().message;
  EXPECT_EQ(gpu_result_to_json(parsed.value()), json);
}

TEST(ResultIo, MalformedInputIsARecoverableError) {
  EXPECT_FALSE(gpu_result_from_json("").has_value());
  EXPECT_FALSE(gpu_result_from_json("not json at all").has_value());
  EXPECT_FALSE(gpu_result_from_json("{\"truncated\": ").has_value());
  EXPECT_FALSE(gpu_result_from_json("[]").has_value());          // wrong shape
  EXPECT_FALSE(gpu_result_from_json("{}").has_value());          // missing schema
  EXPECT_FALSE(gpu_result_from_json(
                   "{\"schema\": \"prosim-result-v1\"}")  // missing fields
                   .has_value());
}

// The optional serving block (concurrent-kernel runs) is part of the
// storage contract too: per-kernel slices must survive the round trip
// bit-exactly, and single-kernel documents must never grow the block.
TEST(ResultIo, ServingBlockRoundTripsBitExactly) {
  GpuConfig cfg = runner_test::sweep_test_config();
  GlobalMemory mem_a;
  GlobalMemory mem_b;
  const Workload a = runner_test::make_mem_workload("serve_a", 3);
  const Workload b = runner_test::make_alu_workload("serve_b", 2);
  a.init(mem_a);
  b.init(mem_b);
  std::vector<KernelLaunch> launches;
  KernelLaunch la;
  la.kernel_id = 0;
  la.name = "serve_a";
  la.program = a.program;
  la.memory = &mem_a;
  launches.push_back(std::move(la));
  KernelLaunch lb;
  lb.kernel_id = 1;
  lb.name = "serve_b";
  lb.program = b.program;
  lb.memory = &mem_b;
  lb.arrival = 100;
  launches.push_back(std::move(lb));
  Gpu gpu(cfg, std::move(launches), "tb_interleaved");
  const GpuResult original = gpu.run();
  ASSERT_EQ(original.kernel_slices.size(), 2u);

  const std::string json = gpu_result_to_json(original);
  EXPECT_NE(json.find("\"serving\""), std::string::npos);
  EXPECT_NE(json.find(kServingSchema), std::string::npos);
  Expected<GpuResult> parsed = gpu_result_from_json(json);
  ASSERT_TRUE(parsed.has_value()) << parsed.error().message;
  EXPECT_EQ(gpu_result_to_json(parsed.value()), json);

  const GpuResult& r = parsed.value();
  ASSERT_EQ(r.kernel_slices.size(), 2u);
  for (std::size_t i = 0; i < 2; ++i) {
    const KernelSlice& got = r.kernel_slices[i];
    const KernelSlice& want = original.kernel_slices[i];
    EXPECT_EQ(got.kernel_id, want.kernel_id);
    EXPECT_EQ(got.name, want.name);
    EXPECT_EQ(got.arrival, want.arrival);
    EXPECT_EQ(got.first_launch, want.first_launch);
    EXPECT_EQ(got.launched, want.launched);
    EXPECT_EQ(got.finish, want.finish);
    EXPECT_EQ(got.finished, want.finished);
    EXPECT_EQ(got.stats.warp_insts, want.stats.warp_insts);
    EXPECT_EQ(got.l1_misses, want.l1_misses);
  }
  // A single-kernel document never grows the block.
  const Workload solo = runner_test::make_alu_workload("solo", 1);
  const GpuResult solo_result =
      simulate_workload(solo, runner_test::sweep_test_config());
  EXPECT_EQ(gpu_result_to_json(solo_result).find("\"serving\""),
            std::string::npos);
}

// A run under a preemptive admission policy upgrades the serving block to
// prosim-serving-v2 (tenant specs + preemption counters), which must
// round-trip bit-exactly; legacy-admission documents (the test above)
// stay on v1 bytes — that pair IS the documented fingerprinting rule.
TEST(ResultIo, ServingV2BlockRoundTripsBitExactly) {
  GpuConfig cfg = runner_test::sweep_test_config();
  GlobalMemory mem_a;
  GlobalMemory mem_b;
  const Workload a = runner_test::make_mem_workload("slo_a", 3);
  const Workload b = runner_test::make_alu_workload("slo_b", 2);
  a.init(mem_a);
  b.init(mem_b);
  std::vector<KernelLaunch> launches;
  KernelLaunch la;
  la.kernel_id = 0;
  la.name = "slo_a";
  la.program = a.program;
  la.memory = &mem_a;
  la.tenant.deadline_cycles = 50'000;
  launches.push_back(std::move(la));
  KernelLaunch lb;
  lb.kernel_id = 1;
  lb.name = "slo_b";
  lb.program = b.program;
  lb.memory = &mem_b;
  lb.arrival = 100;
  lb.tenant.priority = 2;
  lb.tenant.deadline_cycles = 9'000;
  launches.push_back(std::move(lb));
  Gpu gpu(cfg, std::move(launches), "preemptive_slo");
  const GpuResult original = gpu.run();
  ASSERT_EQ(original.kernel_slices.size(), 2u);
  EXPECT_TRUE(original.kernel_slices[0].slo_active);

  const std::string json = gpu_result_to_json(original);
  EXPECT_NE(json.find(kServingSchemaV2), std::string::npos);
  EXPECT_NE(json.find("\"demotions\""), std::string::npos);
  Expected<GpuResult> parsed = gpu_result_from_json(json);
  ASSERT_TRUE(parsed.has_value()) << parsed.error().message;
  EXPECT_EQ(gpu_result_to_json(parsed.value()), json);

  const GpuResult& r = parsed.value();
  ASSERT_EQ(r.kernel_slices.size(), 2u);
  for (std::size_t i = 0; i < 2; ++i) {
    const KernelSlice& got = r.kernel_slices[i];
    const KernelSlice& want = original.kernel_slices[i];
    EXPECT_TRUE(got.slo_active);
    EXPECT_EQ(got.tenant.priority, want.tenant.priority);
    EXPECT_EQ(got.tenant.deadline_cycles, want.tenant.deadline_cycles);
    EXPECT_EQ(got.demotions, want.demotions);
    EXPECT_EQ(got.resumptions, want.resumptions);
    EXPECT_EQ(got.preempted_cycles, want.preempted_cycles);
    EXPECT_EQ(got.slo_met(), want.slo_met());
  }
}

TEST(ResultIo, ServingSchemaMismatchIsRejected) {
  const Workload w = runner_test::make_alu_workload("badserve", 1);
  const GpuResult original =
      simulate_workload(w, runner_test::sweep_test_config());
  std::string json = gpu_result_to_json(original);
  ASSERT_EQ(json.back(), '}');
  json.insert(json.size() - 1,
              ",\"serving\":{\"schema\":\"prosim-serving-v0\",\"kernels\":[]}");
  Expected<GpuResult> parsed = gpu_result_from_json(json);
  ASSERT_FALSE(parsed.has_value());
  EXPECT_NE(parsed.error().message.find("serving schema"), std::string::npos)
      << parsed.error().message;
}

// A document this build would not write, such as one with an unknown
// top-level member, is rejected, and the result cache treats it as a miss:
// a cache hit always re-serializes to the bytes it was read from.
TEST(ResultIo, UnknownTopLevelMemberIsRejected) {
  const Workload w = runner_test::make_alu_workload("future", 1);
  const GpuResult original =
      simulate_workload(w, runner_test::sweep_test_config());
  std::string json = gpu_result_to_json(original);
  ASSERT_EQ(json.back(), '}');
  json.insert(json.size() - 1,
              ",\"future_block\":{\"schema\":\"prosim-future-v9\"}");

  Expected<GpuResult> parsed = gpu_result_from_json(json);
  ASSERT_FALSE(parsed.has_value());
  EXPECT_NE(parsed.error().message.find("unknown"), std::string::npos)
      << parsed.error().message;

  const fs::path dir = fs::path(::testing::TempDir()) / "prosim_unknown";
  fs::remove_all(dir);
  const runner::ResultCache cache(dir.string());
  std::ofstream(cache.path_for("future")) << json << "\n";
  EXPECT_FALSE(cache.load("future").has_value());
}

TEST(ResultIo, SchemaMismatchIsRejected) {
  const Workload w = runner_test::make_alu_workload("schema", 1);
  const GpuResult original =
      simulate_workload(w, runner_test::sweep_test_config());
  std::string json = gpu_result_to_json(original);
  const std::string::size_type pos = json.find(kGpuResultSchema);
  ASSERT_NE(pos, std::string::npos);
  json.replace(pos, std::string(kGpuResultSchema).size(), "prosim-result-v0");
  Expected<GpuResult> parsed = gpu_result_from_json(json);
  ASSERT_FALSE(parsed.has_value());
  EXPECT_NE(parsed.error().message.find("schema"), std::string::npos)
      << parsed.error().message;
}

}  // namespace
}  // namespace prosim
