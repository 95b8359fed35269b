// The one Trace Event Format writer (Perfetto, chrome://tracing). Callers
// name processes and threads and place slices and instants; the writer
// alone fixes the document form (a JSON array, one event per line), the
// field order and the escaping of names. Timestamps are simulated cycles.
// Its views are write_tb_timeline below, WarpLaneTraceSink::write and
// EventJournal::write_kernel_timeline (docs/OBSERVABILITY.md).
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string_view>
#include <vector>

#include "trace/trace_events.hpp"

namespace prosim {

/// An event's optional integer argument, written as "args":{"<key>":value}.
struct TraceArg {
  const char* key = nullptr;  ///< nullptr: no args
  std::int64_t value = 0;
};

class TraceEventWriter {
 public:
  enum class Scope { kThread, kProcess };  ///< an instant's extent

  /// Opens the array; the destructor closes it.
  explicit TraceEventWriter(std::ostream& os);
  ~TraceEventWriter();

  void process_name(int pid, std::string_view name);
  void process_sort_index(int pid, int index);
  void thread_name(int pid, int tid, std::string_view name);
  /// A complete slice [ts, ts + dur); `cname` is a reserved viewer color.
  void slice(std::string_view name, int pid, int tid, Cycle ts, Cycle dur,
             const char* cname = nullptr, TraceArg arg = {});
  void instant(std::string_view name, Scope scope, int pid, int tid,
               Cycle ts, TraceArg arg = {});

 private:
  /// `phase` is the JSON text after "ph": (an instant's scope rides along).
  void begin(std::string_view name, const char* phase, int pid);
  void end(TraceArg arg);

  std::ostream& os_;
  bool first_ = true;
};

/// The TB view of GpuResult::timelines: one process per SM, each TB a
/// slice, packed first-fit onto the fewest tracks that never overlap.
void write_tb_timeline(
    std::ostream& os,
    const std::vector<std::vector<TbTimelineEntry>>& timelines);

}  // namespace prosim
