// Tests for the metrics registry, event journal, and observability
// session (docs/OBSERVABILITY.md, "Metrics & event journal").
//
// The load-bearing checks are the reconciliation contracts: per-kernel
// series telescope to the slice counters, and the journal's demotion
// accounting must reproduce the pinned preemptive counters from
// test_litmus_preemptive — all while the canonical GpuResult bytes stay
// identical to an unobserved run. Seeds/SimProperty.Holds (property 4)
// telescopes the per-SM stall-cause series in every trial.
#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/json.hpp"
#include "gpu/gpu.hpp"
#include "gpu/result_io.hpp"
#include "kernels/registry.hpp"
#include "litmus/litmus.hpp"
#include "metrics/metrics.hpp"
#include "../trace/trace_checks.hpp"

namespace prosim {
namespace {

using litmus::find_litmus;
using litmus::Regime;

// ---------------------------------------------------------------------
// Registry / collector unit behavior.

TEST(MetricsRegistry, CsvIsLongFormatWithHeader) {
  MetricsRegistry reg;
  reg.record(100, MetricScope::kSm, 3, "ipc", 0.5);
  reg.record(200, MetricScope::kGpu, 0, "l2_hits", 42.0);
  std::ostringstream os;
  reg.write_csv(os);
  EXPECT_EQ(os.str(),
            "cycle,scope,id,metric,value\n"
            "100,sm,3,ipc,0.5\n"
            "200,gpu,0,l2_hits,42\n");
}

TEST(MetricsRegistry, JsonParsesAndCarriesSchema) {
  MetricsRegistry reg;
  reg.record(100, MetricScope::kKernel, 1, "bound_sms", 2.0);
  std::ostringstream os;
  reg.write_json(os, 100);
  const JsonParseResult doc = parse_json(os.str());
  ASSERT_TRUE(doc.ok()) << doc.error->message;
  EXPECT_EQ(doc.value->at("schema").as_string(), "prosim-metrics-v1");
  EXPECT_EQ(doc.value->at("interval").as_u64(), 100u);
  ASSERT_EQ(doc.value->at("samples").items().size(), 1u);
  const JsonValue& s = doc.value->at("samples").items()[0];
  EXPECT_EQ(s.at("scope").as_string(), "kernel");
  EXPECT_EQ(s.at("metric").as_string(), "bound_sms");
}

TEST(MetricsCollector, DeltasTelescopeToCumulative) {
  MetricsCollector m(10);
  EXPECT_EQ(m.delta(MetricScope::kSm, 0, "issued", 100), 100u);
  EXPECT_EQ(m.delta(MetricScope::kSm, 0, "issued", 250), 150u);
  EXPECT_EQ(m.delta(MetricScope::kSm, 0, "issued", 250), 0u);
  // Distinct series don't interfere.
  EXPECT_EQ(m.delta(MetricScope::kSm, 1, "issued", 30), 30u);
  EXPECT_EQ(m.delta(MetricScope::kGpu, 0, "issued", 7), 7u);
}

TEST(MetricsCollector, SampleScheduleAdvancesPastSampledCycle) {
  MetricsCollector m(100);
  EXPECT_EQ(m.next_sample_cycle(), 100u);
  m.mark_sampled(100);
  EXPECT_EQ(m.last_sample_cycle(), 100u);
  EXPECT_EQ(m.next_sample_cycle(), 200u);
  // A late (clamped) sample still schedules the next aligned boundary.
  m.mark_sampled(250);
  EXPECT_EQ(m.next_sample_cycle(), 300u);
}

TEST(ObservabilityOptions, SuffixedPathLandsBeforeExtension) {
  EXPECT_EQ(suffixed_path("dir/serve.jsonl", "gto.slo"),
            "dir/serve.gto.slo.jsonl");
  EXPECT_EQ(suffixed_path("metrics", "key"), "metrics.key");
  ObservabilityOptions o;
  o.metrics_interval = 10;
  o.metrics_csv = "m.csv";
  o.events_jsonl = "e.jsonl";
  const ObservabilityOptions cell = o.for_cell("PRO.resident");
  EXPECT_EQ(cell.metrics_csv, "m.PRO.resident.csv");
  EXPECT_EQ(cell.events_jsonl, "e.PRO.resident.jsonl");
  EXPECT_EQ(cell.metrics_interval, 10u);
}

TEST(ObservabilitySession, PayForUseProducts) {
  ObservabilityOptions none;
  ObservabilitySession off(none);
  EXPECT_EQ(off.metrics(), nullptr);
  EXPECT_EQ(off.journal(), nullptr);

  ObservabilityOptions journal_only;
  journal_only.events_jsonl = "/tmp/unused.jsonl";
  ObservabilitySession on(journal_only);
  EXPECT_EQ(on.metrics(), nullptr);
  EXPECT_NE(on.journal(), nullptr);
}

// ---------------------------------------------------------------------
// The pinned preemptive scenario (test_litmus_preemptive's
// run_slo_scenario): the journal's demotion accounting must reproduce
// the pinned counters, and attaching both observers must leave the
// canonical result bytes untouched.

/// `trace_first` attaches `trace` before the other observers (the order
/// of a sink attached by hand ahead of a session), else after them (the
/// order of a replay that adds a counting sink last).
GpuResult run_slo_scenario(const GpuConfig& config,
                           MetricsCollector* metrics,
                           EventJournal* journal,
                           TraceSink* trace = nullptr,
                           bool trace_first = false) {
  const litmus::LitmusTest* barrier = find_litmus("tb_tree_barrier");
  EXPECT_NE(barrier, nullptr);
  const int residency =
      SmCore::compute_residency(config.sm, barrier->build(1).info);
  const int grid = barrier->grid_for(Regime::kOversubscribed, residency);

  GlobalMemory barrier_memory;
  GlobalMemory tenant_memory;
  std::vector<KernelLaunch> launches;
  KernelLaunch foreground;
  foreground.kernel_id = 0;
  foreground.name = "tb_tree_barrier";
  foreground.program = barrier->build(grid);
  foreground.memory = &barrier_memory;
  launches.push_back(std::move(foreground));
  KernelLaunch tenant;
  tenant.kernel_id = 1;
  tenant.name = "background_tenant";
  tenant.program = litmus::background_tenant_program(4);
  tenant.memory = &tenant_memory;
  tenant.tenant.priority = 1;
  tenant.tenant.deadline_cycles = 100'000;
  launches.push_back(std::move(tenant));

  Gpu gpu(config, std::move(launches), "preemptive_slo");
  if (trace_first) gpu.set_trace_sink(trace);
  gpu.set_metrics(metrics);
  gpu.set_event_journal(journal);
  if (!trace_first) gpu.set_trace_sink(trace);
  return gpu.run();
}

TEST(EventJournal, PreemptiveScenarioAccountingMatchesPinnedCounters) {
  const GpuConfig cfg = litmus::litmus_config(SchedulerKind::kLrr);
  const std::string plain =
      gpu_result_to_json(run_slo_scenario(cfg, nullptr, nullptr));

  MetricsCollector metrics(250);
  EventJournal journal;
  const GpuResult r = run_slo_scenario(cfg, &metrics, &journal);
  EXPECT_EQ(gpu_result_to_json(r), plain)
      << "observers changed the canonical serving result bytes";

  // The pinned contract from test_litmus_preemptive: barrier kernel 0
  // suffers 8 demotions (checkpointed or rebound-away) and 7 resumptions.
  ASSERT_EQ(r.kernel_slices.size(), 2u);
  EXPECT_EQ(r.kernel_slices[0].demotions, 8u);
  EXPECT_EQ(journal.count(SimEventKind::kTbCheckpoint) +
                journal.count(SimEventKind::kDemotion),
            8u);
  EXPECT_EQ(journal.count(SimEventKind::kTbResume), 7u);
  EXPECT_EQ(journal.count(SimEventKind::kKernelArrival), 2u);
  EXPECT_EQ(journal.count(SimEventKind::kKernelFinish), 2u);
  // The tenant has a 100k deadline and meets it; the barrier kernel has
  // no SLO, so exactly one slo_met and no slo_missed.
  EXPECT_EQ(journal.count(SimEventKind::kSloMet), 1u);
  EXPECT_EQ(journal.count(SimEventKind::kSloMissed), 0u);
  EXPECT_EQ(journal.count(SimEventKind::kSimEnd), 1u);

  // Journal rows are in nondecreasing cycle order, and every demotion
  // kind row names the barrier kernel.
  Cycle prev = 0;
  for (const SimEvent& e : journal.events()) {
    EXPECT_GE(e.cycle, prev);
    prev = e.cycle;
    if (e.kind == SimEventKind::kTbCheckpoint ||
        e.kind == SimEventKind::kDemotion) {
      EXPECT_EQ(e.kernel, 0);
    }
  }
}

// The journal's rows do not depend on when it was attached relative to
// the other sinks: each attach retro-emits the arrivals and bindings that
// preceded it to that sink only.
TEST(EventJournal, AttachOrderKeepsRows) {
  const GpuConfig cfg = litmus::litmus_config(SchedulerKind::kLrr);
  auto rows = [&](bool trace_first) {
    MetricsCollector metrics(250);
    EventJournal journal;
    TraceSink sm_sink;  // no-op hooks; dispatched to by the SMs
    run_slo_scenario(cfg, &metrics, &journal, &sm_sink, trace_first);
    std::ostringstream jsonl;
    journal.write_jsonl(jsonl);
    return jsonl.str();
  };
  EventJournal alone;
  run_slo_scenario(cfg, nullptr, &alone);
  std::ostringstream want;
  alone.write_jsonl(want);
  EXPECT_EQ(rows(false), want.str());
  EXPECT_EQ(rows(true), want.str());
  EXPECT_EQ(alone.count(SimEventKind::kKernelArrival), 2u);
}

TEST(EventJournal, JsonlAndTimelineSerializeValidly) {
  const GpuConfig cfg = litmus::litmus_config(SchedulerKind::kLrr);
  EventJournal journal;
  const GpuResult r = run_slo_scenario(cfg, nullptr, &journal);

  std::ostringstream jsonl;
  journal.write_jsonl(jsonl);
  std::istringstream lines(jsonl.str());
  std::string line;
  std::size_t rows = 0;
  bool saw_checkpoint = false;
  while (std::getline(lines, line)) {
    const JsonParseResult doc = parse_json(line);
    ASSERT_TRUE(doc.ok()) << "row " << rows << ": " << doc.error->message;
    const JsonValue& obj = *doc.value;
    EXPECT_TRUE(obj.find("cycle") != nullptr);
    EXPECT_TRUE(obj.find("event") != nullptr);
    if (obj.at("event").as_string() == "tb_checkpoint") {
      saw_checkpoint = true;
      EXPECT_NE(obj.find("tb"), nullptr);
    }
    ++rows;
  }
  EXPECT_EQ(rows, journal.events().size());
  EXPECT_TRUE(saw_checkpoint);

  std::ostringstream timeline;
  journal.write_kernel_timeline(
      timeline, {"tb_tree_barrier", "background_tenant"});
  const JsonValue events = expect_valid_trace(timeline.str(), r.cycles);
  ASSERT_TRUE(events.is_array());
  // Both kernels are named and get at least one binding slice (every
  // kernel gets SM time in this scenario).
  bool named[2] = {false, false};
  bool sliced[2] = {false, false};
  for (const JsonValue& e : events.items()) {
    const std::string ph = e.at("ph").as_string();
    const int pid = static_cast<int>(e.at("pid").as_i64());
    ASSERT_TRUE(pid == 0 || pid == 1);
    if (ph == "M" && e.at("name").as_string() == "process_name") {
      named[pid] = true;
    }
    if (ph == "X") sliced[pid] = true;
  }
  EXPECT_TRUE(named[0] && named[1]);
  EXPECT_TRUE(sliced[0] && sliced[1]);
}

// ---------------------------------------------------------------------
// Per-kernel series: demotion/resumption deltas telescope to the final
// slice counters of the pinned scenario.

TEST(MetricsReconciliation, KernelSeriesTelescopeToSliceCounters) {
  const GpuConfig cfg = litmus::litmus_config(SchedulerKind::kLrr);
  MetricsCollector metrics(250);
  const GpuResult r = run_slo_scenario(cfg, &metrics, nullptr);
  ASSERT_EQ(r.kernel_slices.size(), 2u);

  double demotions = 0.0;
  double resumptions = 0.0;
  double preempted = 0.0;
  for (const MetricSample& s : metrics.registry().samples()) {
    if (s.scope != MetricScope::kKernel || s.id != 0) continue;
    if (s.metric == "demotions") demotions += s.value;
    if (s.metric == "resumptions") resumptions += s.value;
    if (s.metric == "preempted_cycles") preempted += s.value;
  }
  EXPECT_EQ(static_cast<std::uint64_t>(demotions),
            r.kernel_slices[0].demotions);
  EXPECT_EQ(static_cast<std::uint64_t>(resumptions),
            r.kernel_slices[0].resumptions);
  EXPECT_EQ(static_cast<std::uint64_t>(preempted),
            r.kernel_slices[0].preempted_cycles);
}

// ---------------------------------------------------------------------
// SimProfile: filled by every run and never serialized into the canonical
// document.

TEST(SimProfile, FilledButNeverSerialized) {
  const Workload& w = find_workload("scalarProdGPU");
  GpuConfig cfg;
  cfg.scheduler.kind = SchedulerKind::kPro;
  GlobalMemory mem;
  if (w.init) w.init(mem);
  Gpu gpu(cfg, w.program, mem);
  const GpuResult r = gpu.run();
  EXPECT_EQ(r.profile.total_cycles, r.cycles);
  EXPECT_GT(r.profile.ff_spans, 0u);
  EXPECT_GT(r.profile.ff_skipped_cycles, 0u);
  // Per-SM wakeups: some SM-cycles ran, and sleeping SMs skipped others.
  EXPECT_GT(r.profile.sm_cycles_ticked, 0u);
  EXPECT_LT(r.profile.sm_cycles_ticked, r.cycles * r.per_sm.size());
  // Partition wakeups: partitions slept through some of their cycles too.
  const auto partitions = static_cast<std::uint64_t>(cfg.mem.num_partitions);
  EXPECT_GT(r.profile.partition_cycles_ticked, 0u);
  EXPECT_LT(r.profile.partition_cycles_ticked, r.cycles * partitions);
  EXPECT_GT(r.profile.admission_evals, 0u);
  const std::string json = gpu_result_to_json(r);
  EXPECT_EQ(json.find("ff_spans"), std::string::npos);
  EXPECT_EQ(json.find("partition_cycles_ticked"), std::string::npos);
  EXPECT_EQ(json.find("admission_evals"), std::string::npos);
  EXPECT_EQ(json.find("\"profile\""), std::string::npos);
}

}  // namespace
}  // namespace prosim
