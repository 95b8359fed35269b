#include "runner/paper.hpp"

#include <algorithm>
#include <iterator>
#include <map>
#include <ostream>
#include <set>

#include "common/stats.hpp"
#include "common/table.hpp"

namespace prosim::runner {

namespace {

// The paper's baselines, in its column order.
constexpr SchedulerKind kBaselines[] = {SchedulerKind::kTl, SchedulerKind::kLrr,
                                        SchedulerKind::kGto};

constexpr SchedulerKind kAllSchedulers[] = {
    SchedulerKind::kLrr,  SchedulerKind::kGto, SchedulerKind::kTl,
    SchedulerKind::kCaws, SchedulerKind::kOwl, SchedulerKind::kPro,
    SchedulerKind::kProAdaptive};

// LPS has the multi-batch structure of the paper's Fig. 2 example.
constexpr const char* kTimelineKernel = "GPU_laplace3d";

constexpr const char* kMotivationKernels[] = {
    "aesEncrypt128",     "GPU_laplace3d",  "render",
    "bpnn_layerforward", "calculate_temp", "dynproc_kernel",
    "MonteCarloOneBlockPerOption", "scalarProdGPU"};

/// The GTX480 configuration of Table I under one scheduler.
GpuConfig paper_config(SchedulerKind kind) {
  GpuConfig cfg;  // defaults are the paper's Table I GTX480
  cfg.scheduler.kind = kind;
  return cfg;
}

GpuConfig pro(const ProConfig& pro_config) {
  GpuConfig cfg = paper_config(SchedulerKind::kPro);
  cfg.scheduler.pro = pro_config;
  return cfg;
}

GpuConfig pro_with(void (*tweak)(GpuConfig&)) {
  GpuConfig cfg = paper_config(SchedulerKind::kPro);
  tweak(cfg);
  return cfg;
}

GpuConfig tb_order_config() {
  return pro_with([](GpuConfig& c) { c.record_tb_order_sm0 = true; });
}

/// A table of simulated cycles: a row per kernel, a column per config,
/// and optionally a last column derived from the row's cycles.
struct CyclesTable {
  const char* title;
  std::vector<std::string> headers;
  std::vector<const char*> kernels;
  std::vector<GpuConfig> configs;
  std::string (*derived)(const std::vector<Cycle>&) = nullptr;
};

/// The design choices the paper calls out: barrier and finish handling
/// (§IV: no barrier handling helped scalarProd by up to 11%), THRESHOLD,
/// the §III-E sort hardware and Algorithm 1 line 59 vs the prose.
std::vector<CyclesTable> ablation_tables() {
  return {
      {"ABLATION A: PRO state handling on/off (cycles; 'no-bar speedup' > 1 "
       "means disabling barrier handling helps, as the paper observed for "
       "scalarProd)",
       {"Kernel", "PRO", "no-barrier", "no-finish", "neither",
        "no-bar speedup"},
       {"scalarProdGPU", "MonteCarloOneBlockPerOption", "dynproc_kernel",
        "bpnn_layerforward", "aesEncrypt128"},
       {pro({}), pro({.handle_barriers = false}),
        pro({.handle_finish = false}),
        pro({.handle_barriers = false, .handle_finish = false})},
       [](const std::vector<Cycle>& c) {
         return Table::fmt(static_cast<double>(c[0]) / c[1]);
       }},
      {"ABLATION B: THRESHOLD (progress re-sort interval) sweep (cycles)",
       {"Kernel", "100", "300", "1000 (paper)", "3000", "10000"},
       {"aesEncrypt128", "render", "cenergy"},
       {pro({.sort_threshold = 100}), pro({.sort_threshold = 300}),
        pro({.sort_threshold = 1000}), pro({.sort_threshold = 3000}),
        pro({.sort_threshold = 10000})}},
      {"ABLATION D: instantaneous vs comparator-latency sorts (paper argues "
       "the non-blocking sort overlaps execution; near-zero deltas confirm "
       "it)",
       {"Kernel", "instant sort", "modeled latency", "delta%"},
       {"aesEncrypt128", "render", "scalarProdGPU"},
       {pro({}), pro({.model_sort_latency = true})},
       [](const std::vector<Cycle>& c) {
         return Table::fmt(100.0 * (static_cast<double>(c[1]) - c[0]) / c[0],
                           2);
       }},
      {"ABLATION C: fast-phase noWait sort direction — prose (most progress "
       "first) vs Algorithm 1 line 59 (INC_ORDER); ratio > 1 means the prose "
       "reading is faster",
       {"Kernel", "prose (DEC)", "line 59 (INC)", "DEC/INC"},
       {"aesEncrypt128", "cenergy", "render", "findRangeK"},
       {pro({}), pro({.fast_nowait_increasing = true})},
       [](const std::vector<Cycle>& c) {
         return Table::fmt(static_cast<double>(c[1]) / c[0]);
       }},
  };
}

/// The memory substrate under PRO (Table I: FR-FCFS DRAM, 16KB L1,
/// MSHRs) carries the effects the scheduler study relies on.
CyclesTable memory_table() {
  return {"EXTENSION: memory-substrate ablations under PRO (simulated cycles; "
          "base = the paper's Table I setup)",
          {"Kernel", "base (Table I)", "FCFS DRAM", "L1 bypass",
           "4-entry MSHRs", "magic const$"},
          {"bfs_kernel", "convolutionColumnsKernel", "histogram256Kernel",
           "executeSecondLayer", "cenergy"},
          {pro({}),
           pro_with([](GpuConfig& c) {
             c.mem.dram.scheduler = DramSchedulerKind::kFcfs;
           }),
           pro_with([](GpuConfig& c) { c.sm.l1_enabled = false; }),
           pro_with([](GpuConfig& c) {
             c.sm.l1_mshr.entries = 4;
             c.mem.l2_mshr.entries = 4;
           }),
           // Always-hit constant loads.
           pro_with([](GpuConfig& c) { c.sm.const_cache_enabled = false; })}};
}

/// Per-application sums over the app's kernels: the paper's "numbers
/// reported are per application, not per kernel".
struct AppStats {
  std::uint64_t idle = 0;
  std::uint64_t scoreboard = 0;
  std::uint64_t pipeline = 0;

  std::uint64_t total_stalls() const { return idle + scoreboard + pipeline; }
};

/// Keys cells, hashing each workload's input image once, and reads their
/// results through the caller's lookup.
class Cells {
 public:
  explicit Cells(PaperLookup lookup = {}) : lookup_(std::move(lookup)) {}

  std::string key(const Workload& w, const GpuConfig& cfg) {
    auto it = workload_fp_.find(w.kernel);
    if (it == workload_fp_.end()) {
      Fingerprint fp;
      w.hash_into(fp);
      it = workload_fp_.emplace(w.kernel, fp).first;
    }
    return cache_key(w.kernel, it->second, cfg);
  }

  const GpuResult& run(const Workload& w, const GpuConfig& cfg) {
    const std::string key = this->key(w, cfg);
    const GpuResult* result = lookup_(key);
    PROSIM_REQUIRE(result != nullptr,
                   SimError::make(ErrorCategory::kInvariant,
                                  "paper report: no result for cell " + key));
    return *result;
  }
  const GpuResult& run(const Workload& w, SchedulerKind kind) {
    return run(w, paper_config(kind));
  }
  Cycle cycles(const Workload& w, SchedulerKind kind) {
    return run(w, kind).cycles;
  }

  AppStats app(const std::string& app, SchedulerKind kind) {
    AppStats stats;
    for (const Workload* w : app_workloads(app)) {
      const SmStats& t = run(*w, kind).totals;
      stats.idle += t.idle_stalls;
      stats.scoreboard += t.scoreboard_stalls;
      stats.pipeline += t.pipeline_stalls;
    }
    return stats;
  }

 private:
  PaperLookup lookup_;
  std::map<std::string, Fingerprint> workload_fp_;
};

void print_cycles_table(std::ostream& os, Cells& cells,
                        const CyclesTable& spec) {
  Table t(spec.headers);
  for (const char* kernel : spec.kernels) {
    std::vector<std::string> row{kernel};
    std::vector<Cycle> cycles;
    for (const GpuConfig& cfg : spec.configs) {
      cycles.push_back(cells.run(find_workload(kernel), cfg).cycles);
      row.push_back(Table::fmt(cycles.back()));
    }
    if (spec.derived != nullptr) row.push_back(spec.derived(cycles));
    t.add_row(row);
  }
  os << "\n" << spec.title << "\n";
  t.print(os);
}

// Tables I and II, then Figure 4: PRO's speedup over TL, LRR and GTO
// on all 25 kernels (the headline).
void print_table1(std::ostream& os) {
  const GpuConfig cfg;
  Table t({"Parameter", "Value"});
  t.add_row({"Architecture", "NVIDIA Fermi GTX480 (simulated)"});
  t.add_row({"Number of SMs", Table::fmt(cfg.num_sms)});
  t.add_row({"Max Thread Blocks per SM", Table::fmt(cfg.sm.max_tbs)});
  t.add_row({"Max Threads per Core", Table::fmt(cfg.sm.max_threads)});
  t.add_row({"Shared Memory per Core",
             Table::fmt(cfg.sm.smem_bytes / 1024) + "KB"});
  t.add_row({"L1-Cache per Core",
             Table::fmt(cfg.sm.l1d.size_bytes / 1024) + "KB"});
  t.add_row({"L2-Cache", Table::fmt(cfg.mem.num_partitions *
                                    cfg.mem.l2.size_bytes / 1024) +
                             "KB"});
  t.add_row({"Max Registers per Core", Table::fmt(cfg.sm.num_registers)});
  t.add_row({"Number of Schedulers", Table::fmt(cfg.sm.num_schedulers)});
  t.add_row({"DRAM Scheduler", "FR-FCFS"});
  os << "TABLE I: GPGPU-Sim-equivalent configuration\n";
  t.print(os);
  os << "\n";
}

void print_table2(std::ostream& os) {
  Table t({"Application", "Kernel", "Paper TBs", "Our TBs"});
  for (const Workload& w : all_workloads()) {
    t.add_row({w.app, w.kernel, Table::fmt(w.paper_tbs),
               Table::fmt(w.program.info.grid_dim)});
  }
  os << "TABLE II: benchmark applications (grids scaled per DESIGN.md)\n";
  t.print(os);
  os << "\n";
}

void print_fig4(std::ostream& os, Cells& cells) {
  os << "\n";
  print_table1(os);
  print_table2(os);

  Table t({"Kernel", "TL", "LRR", "GTO", "PRO", "PRO/TL", "PRO/LRR",
           "PRO/GTO"});
  std::vector<double> speedups[std::size(kBaselines)];
  for (const Workload& w : all_workloads()) {
    const Cycle pro = cells.cycles(w, SchedulerKind::kPro);
    std::vector<std::string> row{w.kernel};
    std::vector<std::string> ratios;
    for (std::size_t i = 0; i < std::size(kBaselines); ++i) {
      const Cycle base = cells.cycles(w, kBaselines[i]);
      speedups[i].push_back(static_cast<double>(base) / pro);
      row.push_back(Table::fmt(base));
      ratios.push_back(Table::fmt(speedups[i].back()));
    }
    row.push_back(Table::fmt(pro));
    row.insert(row.end(), ratios.begin(), ratios.end());
    t.add_row(row);
  }
  std::vector<std::string> geo{"GEOMEAN", "", "", "", ""};
  for (const auto& s : speedups) geo.push_back(Table::fmt(geomean(s)));
  t.add_row(geo);
  os << "FIGURE 4: simulated cycles per kernel and PRO speedups\n";
  os << "(paper reports geomeans of 1.13x/1.12x/1.02x over TL/LRR/GTO)\n";
  t.print(os);
}

// Figure 1: stall mix (Scoreboard / Idle / Pipeline) of the three
// baselines per application; the paper finds LRR's Idle share highest.
void print_fig1(std::ostream& os, Cells& cells) {
  for (SchedulerKind kind : kBaselines) {
    Table t({"Application", "sb%", "idle%", "pipe%"});
    double idle_share_sum = 0.0;
    int rows = 0;
    for (const std::string& app : all_app_names()) {
      const AppStats s = cells.app(app, kind);
      const double total = static_cast<double>(s.total_stalls());
      if (total == 0) continue;
      t.add_row({app, Table::fmt(100.0 * s.scoreboard / total, 1),
                 Table::fmt(100.0 * s.idle / total, 1),
                 Table::fmt(100.0 * s.pipeline / total, 1)});
      idle_share_sum += 100.0 * s.idle / total;
      ++rows;
    }
    os << "\nFIGURE 1 (" << scheduler_name(kind)
       << " stalls): share of Scoreboard / Idle / Pipeline stall cycles per "
          "application\n";
    t.print(os);
    os << "mean idle share: " << Table::fmt(idle_share_sum / rows, 1)
       << "%\n";
  }
  os << "\n(paper: LRR has the highest Idle-stall share of the three "
        "baselines)\n";
}

/// Mean completion spread (max end - min end) within consecutive groups of
/// `batch` TBs in launch order — small under batched execution.
double mean_batch_spread(const std::vector<TbTimelineEntry>& t,
                         std::size_t batch) {
  double sum = 0.0;
  std::size_t groups = 0;
  for (auto it = t.begin(); t.end() - it >= std::ptrdiff_t(batch);
       it += std::ptrdiff_t(batch), ++groups) {
    const auto [lo, hi] = std::minmax_element(
        it, it + std::ptrdiff_t(batch),
        [](const auto& a, const auto& b) { return a.end < b.end; });
    sum += static_cast<double>(hi->end - lo->end);
  }
  return groups == 0 ? 0.0 : sum / static_cast<double>(groups);
}

// Figure 2: TB execution intervals on SM 0, LRR vs PRO. Under LRR
// TBs retire in batches; under PRO resident TBs are in different phases.
void print_fig2(std::ostream& os, Cells& cells) {
  std::vector<double> spread;
  for (SchedulerKind kind : {SchedulerKind::kLrr, SchedulerKind::kPro}) {
    std::vector<TbTimelineEntry> timeline =
        cells.run(find_workload(kTimelineKernel), kind).timelines.at(0);
    std::sort(timeline.begin(), timeline.end(),
              [](const TbTimelineEntry& a, const TbTimelineEntry& b) {
                return a.start < b.start;
              });
    Table t({"TB#", "ctaid", "start", "end", "duration"});
    int idx = 0;
    for (const TbTimelineEntry& e : timeline) {
      t.add_row({Table::fmt(idx++), Table::fmt(e.ctaid), Table::fmt(e.start),
                 Table::fmt(e.end), Table::fmt(e.end - e.start)});
    }
    os << "\nFIGURE 2 (" << scheduler_name(kind)
       << "): thread-block execution intervals on SM 0, kernel "
       << kTimelineKernel << "\n";
    t.print(os);
    spread.push_back(mean_batch_spread(timeline, 4));
    os << "mean completion spread within a residency batch: "
       << Table::fmt(spread.back(), 1) << " cycles\n";
  }
  os << "\nbatch-spread ratio PRO/LRR = "
     << Table::fmt(spread[1] / spread[0], 2)
     << "  (paper: PRO staggers TB completions; LRR retires them in lockstep "
        "batches)\n";
}

// Figure 5: total-stall ratio baseline / PRO per application.
void print_fig5(std::ostream& os, Cells& cells) {
  Table t({"Application", "TL/PRO", "LRR/PRO", "GTO/PRO"});
  std::vector<double> ratios[std::size(kBaselines)];
  for (const std::string& app : all_app_names()) {
    const auto pro = static_cast<double>(
        cells.app(app, SchedulerKind::kPro).total_stalls());
    std::vector<std::string> row{app};
    for (std::size_t i = 0; i < std::size(kBaselines); ++i) {
      ratios[i].push_back(cells.app(app, kBaselines[i]).total_stalls() / pro);
      row.push_back(Table::fmt(ratios[i].back()));
    }
    t.add_row(row);
  }
  std::vector<std::string> geo{"GEOMEAN"};
  for (const auto& r : ratios) geo.push_back(Table::fmt(geomean(r)));
  t.add_row(geo);
  os << "\nFIGURE 5: total-stall-cycle ratio, baseline / PRO (greater than 1 "
        "means PRO stalls less)\n";
  os << "(paper geomeans: 1.32x TL, 1.19x LRR, 1.04x GTO)\n";
  t.print(os);
}

// Table III: PRO's Pipe/Idle/Scoreboard stall cycles per application
// and the per-type and total ratios of each baseline over PRO.
void print_table3(std::ostream& os, Cells& cells) {
  Table t({"Application", "PRO Pipe", "PRO Idle", "PRO SB",
           "TL:Pipe", "TL:Idle", "TL:SB", "TL:Total",
           "LRR:Pipe", "LRR:Idle", "LRR:SB", "LRR:Total",
           "GTO:Pipe", "GTO:Idle", "GTO:SB", "GTO:Total"});
  const auto ratio = [](std::uint64_t base, std::uint64_t pro) {
    return pro == 0 ? 1.0 : static_cast<double>(base) / pro;
  };
  // Pipe, Idle, SB and Total ratios per baseline, in the column order.
  std::vector<double> ratios[std::size(kBaselines) * 4];
  for (const std::string& app : all_app_names()) {
    const AppStats pro = cells.app(app, SchedulerKind::kPro);
    std::vector<std::string> row{app, Table::fmt(pro.pipeline),
                                 Table::fmt(pro.idle),
                                 Table::fmt(pro.scoreboard)};
    for (std::size_t b = 0; b < std::size(kBaselines); ++b) {
      const AppStats base = cells.app(app, kBaselines[b]);
      const double r[] = {ratio(base.pipeline, pro.pipeline),
                          ratio(base.idle, pro.idle),
                          ratio(base.scoreboard, pro.scoreboard),
                          ratio(base.total_stalls(), pro.total_stalls())};
      for (std::size_t k = 0; k < 4; ++k) {
        ratios[b * 4 + k].push_back(r[k]);
        row.push_back(Table::fmt(r[k]));
      }
    }
    t.add_row(row);
  }
  std::vector<std::string> geo{"GEOMEAN", "", "", ""};
  for (const auto& r : ratios) geo.push_back(Table::fmt(geomean(r)));
  t.add_row(geo);

  os << "\nTABLE III: stall-cycle improvement with PRO (ratio > 1 means PRO "
        "has fewer stalls of that type)\n";
  os << "(paper geomeans — TL: 0.70/2.40/1.58/1.32, LRR: 1.24/3.21/0.70/1.19, "
        "GTO: 1.00/1.10/1.10/1.04)\n";
  t.print(os);
}

// Table IV: PRO's sorted TB order in AES on SM 0, one row per
// THRESHOLD (1000-cycle) sort. The paper shows the first resident batch
// reordering 7 times before it retires: priorities are dynamic.
void print_table4(std::ostream& os, Cells& cells) {
  const GpuResult& r =
      cells.run(find_workload("aesEncrypt128"), tb_order_config());
  if (r.tb_order_sm0.empty()) {
    os << "no trace samples recorded\n";
    return;
  }

  // The resident TBs of SM 0 in decreasing priority order for the first 16
  // samples. (Our PRO retires boosted TBs faster than the paper's, so the
  // resident *set* also evolves; ctaids make that visible.)
  std::size_t max_cols = 0;
  for (const TbOrderSample& s : r.tb_order_sm0) {
    max_cols = std::max(max_cols, s.ctaids.size());
  }
  std::vector<std::string> headers{"Cycle"};
  for (std::size_t i = 0; i < max_cols; ++i) {
    headers.push_back(std::to_string(i + 1));
  }
  Table t(headers);
  for (std::size_t i = 0; i < r.tb_order_sm0.size() && i < 16; ++i) {
    std::vector<std::string> row{Table::fmt(r.tb_order_sm0[i].cycle)};
    for (int ctaid : r.tb_order_sm0[i].ctaids) row.push_back(Table::fmt(ctaid));
    row.resize(headers.size());
    t.add_row(std::move(row));
  }

  // Order churn over the whole run: consecutive samples whose common-TB
  // relative order changed (the paper counts 7 in its 16-sample window).
  const auto common = [](const std::vector<int>& order,
                         const std::vector<int>& other) {
    const std::set<int> keep(other.begin(), other.end());
    std::vector<int> out;
    for (int c : order) {
      if (keep.count(c)) out.push_back(c);
    }
    return out;
  };
  int order_changes = 0;
  for (std::size_t i = 1; i < r.tb_order_sm0.size(); ++i) {
    const std::vector<int>& prev = r.tb_order_sm0[i - 1].ctaids;
    const std::vector<int>& cur = r.tb_order_sm0[i].ctaids;
    if (common(prev, cur) != common(cur, prev)) ++order_changes;
  }

  os << "\nTABLE IV: sorted order of TBs in AES (SM 0), highest priority "
        "left (first 16 of "
     << r.tb_order_sm0.size() << " samples)\n";
  t.print(os);
  os << "priority order changed " << order_changes << " times across "
     << r.tb_order_sm0.size()
     << " samples (paper: 7 changes in its 16-sample window)\n";
}

void print_ablation(std::ostream& os, Cells& cells) {
  for (const CyclesTable& t : ablation_tables()) {
    print_cycles_table(os, cells, t);
  }
}

// Extension: all seven schedulers, including the §V related work
// (CAWS, OWL) and the §IV future work (adaptive PRO).
void print_related_work(std::ostream& os, Cells& cells) {
  Table t({"Kernel", "LRR", "GTO", "TL", "CAWS", "OWL", "PRO", "PRO-A"});
  std::vector<double> speedups[std::size(kAllSchedulers)];
  for (const Workload& w : all_workloads()) {
    std::vector<std::string> row{w.kernel};
    const Cycle lrr = cells.cycles(w, SchedulerKind::kLrr);
    for (std::size_t i = 0; i < std::size(kAllSchedulers); ++i) {
      const Cycle c = cells.cycles(w, kAllSchedulers[i]);
      row.push_back(Table::fmt(c));
      speedups[i].push_back(static_cast<double>(lrr) / c);
    }
    t.add_row(row);
  }
  std::vector<std::string> geo{"GEOMEAN speedup vs LRR"};
  for (const auto& s : speedups) geo.push_back(Table::fmt(geomean(s)));
  t.add_row(geo);

  os << "\nEXTENSION: all implemented schedulers, simulated cycles per "
        "kernel\n";
  os << "(CAWS and OWL are the paper's §V related work; PRO-A is its §IV "
        "future work)\n";
  t.print(os);
}

Cycle first_retirement(const GpuResult& r) {
  Cycle first = kNoCycle;
  for (const auto& timeline : r.timelines) {
    for (const TbTimelineEntry& e : timeline) first = std::min(first, e.end);
  }
  return first;
}

// Extension: the §II motivation quantified. §II-B warp-level
// divergence (sibling-warp completion spread, barrier parking) and §II-C
// residency batching (how early the first TB retires).
void print_motivation(std::ostream& os, Cells& cells) {
  Table t({"Kernel", "LRR disp/TB", "PRO disp/TB", "LRR barwait",
           "PRO barwait", "LRR 1st retire", "PRO 1st retire"});
  for (const char* kernel : kMotivationKernels) {
    const Workload& w = find_workload(kernel);
    const GpuResult& lrr = cells.run(w, SchedulerKind::kLrr);
    const GpuResult& pro = cells.run(w, SchedulerKind::kPro);
    const double tbs = static_cast<double>(lrr.totals.tbs_executed);
    t.add_row({kernel,
               Table::fmt(lrr.totals.warp_finish_disparity_sum / tbs, 1),
               Table::fmt(pro.totals.warp_finish_disparity_sum / tbs, 1),
               Table::fmt(lrr.totals.barrier_wait_cycles),
               Table::fmt(pro.totals.barrier_wait_cycles),
               Table::fmt(first_retirement(lrr)),
               Table::fmt(first_retirement(pro))});
  }
  os << "\nEXTENSION (paper §II motivation, quantified):\n"
        "  disp/TB  = mean sibling-warp completion spread per TB "
        "(warp-level divergence, §II-B)\n"
        "  barwait  = total warp-cycles parked at barriers\n"
        "  1st retire = cycle the first TB retires anywhere "
        "(earlier = earlier refill, §II-C)\n";
  t.print(os);
}


void print_memory(std::ostream& os, Cells& cells) {
  print_cycles_table(os, cells, memory_table());
}

}  // namespace

PaperCells paper_cells() {
  PaperCells cells;
  Cells keys;
  std::set<std::string> seen;
  const auto add = [&](const Workload& w, const GpuConfig& cfg) {
    std::string key = keys.key(w, cfg);
    if (!seen.insert(key).second) return;
    cells.jobs.push_back(SweepJob::make(w, cfg));
    cells.keys.push_back(std::move(key));
  };
  // Every kernel under every scheduler covers Figs. 1, 2, 4 and 5,
  // Table III and the related-work and motivation studies.
  for (const Workload& w : all_workloads()) {
    for (SchedulerKind kind : kAllSchedulers) add(w, paper_config(kind));
  }
  add(find_workload("aesEncrypt128"), tb_order_config());
  std::vector<CyclesTable> tables = ablation_tables();
  tables.push_back(memory_table());
  for (const CyclesTable& spec : tables) {
    for (const char* kernel : spec.kernels) {
      for (const GpuConfig& cfg : spec.configs) add(find_workload(kernel), cfg);
    }
  }
  return cells;
}

void print_paper_report(std::ostream& os, const PaperLookup& lookup) {
  Cells cells(lookup);
  const std::pair<const char*, void (*)(std::ostream&, Cells&)> sections[] = {
      {"fig4", print_fig4},
      {"fig1", print_fig1},
      {"fig2", print_fig2},
      {"fig5", print_fig5},
      {"table3", print_table3},
      {"table4", print_table4},
      {"ablation", print_ablation},
      {"related_work", print_related_work},
      {"motivation", print_motivation},
      {"memory", print_memory}};
  for (const auto& [name, print] : sections) {
    os << "=== " << name << " ===\n";
    print(os, cells);
  }
}

}  // namespace prosim::runner
