#include "metrics/metrics.hpp"

#include <cstdio>
#include <fstream>
#include <iostream>
#include <map>
#include <set>
#include <utility>

#include "common/argparse.hpp"
#include "common/check.hpp"
#include "common/json.hpp"
#include "trace/trace_event_writer.hpp"

namespace prosim {

namespace {

/// Shortest-round-trip style numeric rendering: integral values print with
/// no decimal point (most series are counter deltas), everything else as
/// %.9g — matching the serving report's fmt_double discipline so outputs
/// are byte-stable across platforms.
void append_value(std::ostream& os, double value) {
  const auto as_int = static_cast<long long>(value);
  if (static_cast<double>(as_int) == value) {
    os << as_int;
    return;
  }
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.9g", value);
  os << buf;
}

}  // namespace

const char* metric_scope_name(MetricScope scope) {
  switch (scope) {
    case MetricScope::kGpu:
      return "gpu";
    case MetricScope::kSm:
      return "sm";
    case MetricScope::kKernel:
      return "kernel";
  }
  return "gpu";
}

void MetricsRegistry::write_csv(std::ostream& os) const {
  os << "cycle,scope,id,metric,value\n";
  for (const MetricSample& s : samples_) {
    os << s.cycle << ',' << metric_scope_name(s.scope) << ',' << s.id << ','
       << s.metric << ',';
    append_value(os, s.value);
    os << '\n';
  }
}

void MetricsRegistry::write_json(std::ostream& os, Cycle interval) const {
  os << "{\"schema\":\"prosim-metrics-v1\",\"interval\":" << interval
     << ",\"samples\":[";
  bool first = true;
  for (const MetricSample& s : samples_) {
    if (!first) os << ',';
    first = false;
    os << "{\"cycle\":" << s.cycle << ",\"scope\":\""
       << metric_scope_name(s.scope) << "\",\"id\":" << s.id << ",\"metric\":";
    write_json_string(os, s.metric);
    os << ",\"value\":";
    append_value(os, s.value);
    os << '}';
  }
  os << "]}\n";
}

MetricsCollector::MetricsCollector(Cycle interval)
    : interval_(interval), next_(interval) {
  PROSIM_CHECK(interval >= 1);
}

void MetricsCollector::mark_sampled(Cycle cycle) {
  last_ = cycle;
  next_ = (cycle / interval_ + 1) * interval_;
}

std::uint64_t MetricsCollector::delta(MetricScope scope, int id,
                                      const char* metric,
                                      std::uint64_t cumulative) {
  std::uint64_t& last =
      last_values_[{static_cast<int>(scope), id, std::string(metric)}];
  const std::uint64_t d = cumulative - last;
  last = cumulative;
  return d;
}

std::size_t EventJournal::count(SimEventKind kind) const {
  std::size_t n = 0;
  for (const SimEvent& e : events_) {
    if (e.kind == kind) ++n;
  }
  return n;
}

void EventJournal::write_jsonl(std::ostream& os) const {
  for (const SimEvent& e : events_) {
    os << "{\"cycle\":" << e.cycle << ",\"event\":\""
       << sim_event_kind_name(e.kind) << '"';
    if (e.kernel >= 0) os << ",\"kernel\":" << e.kernel;
    if (e.sm >= 0) os << ",\"sm\":" << e.sm;
    if (e.tb >= 0) os << ",\"tb\":" << e.tb;
    if (e.aux != 0) os << ",\"aux\":" << e.aux;
    os << "}\n";
  }
}

void EventJournal::write_kernel_timeline(
    std::ostream& os, const std::vector<std::string>& kernel_names) const {
  auto name_of = [&kernel_names](int kernel) {
    const auto k = static_cast<std::size_t>(kernel);
    return kernel >= 0 && k < kernel_names.size() && !kernel_names[k].empty()
               ? kernel_names[k]
               : "kernel " + std::to_string(kernel);
  };

  // Rebuild each SM's binding spans from the sm_bind stream; everything
  // else becomes an instant marker on the owning kernel's track.
  struct Slice {
    int kernel;
    int sm;
    Cycle start;
    Cycle end;
  };
  std::map<int, std::pair<int, Cycle>> open;  // sm -> (kernel, since)
  std::vector<Slice> slices;
  std::vector<const SimEvent*> instants;
  std::map<int, std::set<int>> tracks;  // kernel -> SMs seen
  Cycle end = 0;
  for (const SimEvent& e : events_) {
    end = std::max(end, e.cycle);
    switch (e.kind) {
      case SimEventKind::kSmBind: {
        auto it = open.find(e.sm);
        if (it != open.end() && e.cycle > it->second.second) {
          slices.push_back({it->second.first, e.sm, it->second.second,
                            e.cycle});
        }
        open[e.sm] = {e.kernel, e.cycle};
        tracks[e.kernel].insert(e.sm);
        break;
      }
      case SimEventKind::kTbCheckpoint:
      case SimEventKind::kTbResume:
      case SimEventKind::kYieldRequest:
      case SimEventKind::kSloMet:
      case SimEventKind::kSloMissed:
      case SimEventKind::kKernelFinish:
        if (e.kernel >= 0) {
          instants.push_back(&e);
          tracks[e.kernel].insert(std::max(e.sm, 0));
        }
        break;
      default:
        break;
    }
  }
  for (const auto& [sm, bound] : open) {
    if (end > bound.second) {
      slices.push_back({bound.first, sm, bound.second, end});
    }
  }

  TraceEventWriter trace(os);
  for (const auto& [kernel, sms] : tracks) {
    trace.process_name(kernel, name_of(kernel));
    trace.process_sort_index(kernel, kernel);
    for (const int sm : sms) {
      trace.thread_name(kernel, sm, "SM " + std::to_string(sm));
    }
  }
  for (const Slice& s : slices) {
    trace.slice(name_of(s.kernel), s.kernel, s.sm, s.start, s.end - s.start);
  }
  for (const SimEvent* e : instants) {
    trace.instant(sim_event_kind_name(e->kind),
                  TraceEventWriter::Scope::kThread, e->kernel,
                  std::max(e->sm, 0), e->cycle);
  }
}

std::string suffixed_path(const std::string& path, const std::string& key) {
  const std::size_t slash = path.find_last_of('/');
  const std::size_t dot = path.find_last_of('.');
  if (dot == std::string::npos ||
      (slash != std::string::npos && dot < slash)) {
    return path + "." + key;
  }
  return path.substr(0, dot) + "." + key + path.substr(dot);
}

ObservabilityOptions ObservabilityOptions::for_cell(
    const std::string& key) const {
  ObservabilityOptions cell = *this;
  for (std::string* path :
       {&cell.warp_lanes, &cell.windows, &cell.metrics_csv, &cell.metrics_json,
        &cell.events_jsonl, &cell.kernel_timeline}) {
    if (!path->empty()) *path = suffixed_path(*path, key);
  }
  return cell;
}

void add_observability_flags(ArgParser& parser, ObservabilityOptions& options,
                             std::int64_t& interval) {
  parser.add_i64("--metrics-interval", &interval, "N",
                 "sample time-series metrics every N cycles (default off)");
  parser.add_string("--warp-lanes", &options.warp_lanes, "FILE",
                    "write the Chrome-trace warp-lane timeline");
  parser.add_string("--windows", &options.windows, "FILE",
                    "write the barrier/finish wait-window CSV (histogram "
                    "in FILE with .hist before the extension)");
  parser.add_string("--metrics", &options.metrics_csv, "FILE",
                    "write sampled metrics as long-format CSV");
  parser.add_string("--metrics-json", &options.metrics_json, "FILE",
                    "write sampled metrics as prosim-metrics-v1 JSON");
  parser.add_string("--events", &options.events_jsonl, "FILE",
                    "write the lifecycle event journal as JSONL");
  parser.add_string("--kernel-timeline", &options.kernel_timeline, "FILE",
                    "write a Perfetto kernel timeline (pid=kernel, tid=SM)");
}

bool check_observability_flags(const ArgParser& parser, std::int64_t interval,
                               ObservabilityOptions& options) {
  if (parser.seen("--metrics-interval") && interval < 1) {
    std::cerr << "--metrics-interval must be >= 1\n";
    return false;
  }
  const bool metrics_file =
      parser.seen("--metrics") || parser.seen("--metrics-json");
  if (metrics_file && interval == 0) {
    std::cerr << "--metrics/--metrics-json need --metrics-interval N\n";
    return false;
  }
  if (parser.seen("--metrics-interval") && !metrics_file) {
    std::cerr << "--metrics-interval needs --metrics or --metrics-json\n";
    return false;
  }
  options.metrics_interval = static_cast<Cycle>(interval);
  return true;
}

ObservabilitySession::ObservabilitySession(
    const ObservabilityOptions& options)
    : options_(options) {
  if (!options_.warp_lanes.empty()) {
    warp_lanes_ = std::make_unique<WarpLaneTraceSink>();
  }
  if (!options_.windows.empty()) windows_ = std::make_unique<WindowCsvSink>();
  if (options_.metrics_enabled()) {
    metrics_ = std::make_unique<MetricsCollector>(options_.metrics_interval);
  }
  if (options_.journal_enabled()) {
    journal_ = std::make_unique<EventJournal>();
  }
}

bool ObservabilitySession::write(const std::vector<std::string>& kernel_names,
                                 std::string& error) const {
  auto write_file = [&](bool collected, const std::string& path,
                        auto&& emit) {
    if (!collected || path.empty()) return true;
    std::ofstream os(path);
    if (!os) {
      error = "cannot open " + path;
      return false;
    }
    emit(os);
    if (!os) {
      error = "write failed: " + path;
      return false;
    }
    return true;
  };
  const MetricsCollector* m = metrics_.get();
  const EventJournal* j = journal_.get();
  const WarpLaneTraceSink* lanes = warp_lanes_.get();
  const WindowCsvSink* windows = windows_.get();
  return write_file(m != nullptr, options_.metrics_csv,
                    [m](std::ostream& os) { m->registry().write_csv(os); }) &&
         write_file(m != nullptr, options_.metrics_json,
                    [m](std::ostream& os) {
                      m->registry().write_json(os, m->interval());
                    }) &&
         write_file(j != nullptr, options_.events_jsonl,
                    [j](std::ostream& os) { j->write_jsonl(os); }) &&
         write_file(j != nullptr, options_.kernel_timeline,
                    [&](std::ostream& os) {
                      j->write_kernel_timeline(os, kernel_names);
                    }) &&
         write_file(lanes != nullptr, options_.warp_lanes,
                    [lanes](std::ostream& os) { lanes->write(os); }) &&
         write_file(windows != nullptr, options_.windows,
                    [windows](std::ostream& os) { windows->write_csv(os); }) &&
         write_file(windows != nullptr,
                    suffixed_path(options_.windows, "hist"),
                    [windows](std::ostream& os) {
                      windows->write_histograms_csv(os);
                    });
}

}  // namespace prosim
