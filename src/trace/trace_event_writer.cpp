#include "trace/trace_event_writer.hpp"

#include <algorithm>
#include <ostream>
#include <string>

#include "common/json.hpp"

namespace prosim {

TraceEventWriter::TraceEventWriter(std::ostream& os) : os_(os) {
  os_ << "[\n";
}

TraceEventWriter::~TraceEventWriter() { os_ << "\n]\n"; }

void TraceEventWriter::begin(std::string_view name, const char* phase,
                             int pid) {
  os_ << (first_ ? "{\"name\":" : ",\n{\"name\":");
  first_ = false;
  write_json_string(os_, name);
  os_ << R"(,"ph":)" << phase << R"(,"pid":)" << pid;
}

void TraceEventWriter::end(TraceArg arg) {
  if (arg.key != nullptr) {
    os_ << R"(,"args":{")" << arg.key << R"(":)" << arg.value << '}';
  }
  os_ << '}';
}

void TraceEventWriter::process_name(int pid, std::string_view name) {
  begin("process_name", R"("M")", pid);
  os_ << R"(,"args":{"name":)";
  write_json_string(os_, name);
  os_ << "}}";
}

void TraceEventWriter::process_sort_index(int pid, int index) {
  begin("process_sort_index", R"("M")", pid);
  os_ << R"(,"args":{"sort_index":)" << index << "}}";
}

void TraceEventWriter::thread_name(int pid, int tid, std::string_view name) {
  begin("thread_name", R"("M")", pid);
  os_ << R"(,"tid":)" << tid << R"(,"args":{"name":)";
  write_json_string(os_, name);
  os_ << "}}";
}

void TraceEventWriter::slice(std::string_view name, int pid, int tid,
                             Cycle ts, Cycle dur, const char* cname,
                             TraceArg arg) {
  begin(name, R"("X")", pid);
  os_ << R"(,"tid":)" << tid << R"(,"ts":)" << ts << R"(,"dur":)" << dur;
  if (cname != nullptr) os_ << R"(,"cname":")" << cname << '"';
  end(arg);
}

void TraceEventWriter::instant(std::string_view name, Scope scope, int pid,
                               int tid, Cycle ts, TraceArg arg) {
  begin(name, scope == Scope::kThread ? R"("i","s":"t")" : R"("i","s":"p")",
        pid);
  os_ << R"(,"tid":)" << tid << R"(,"ts":)" << ts;
  end(arg);
}

void write_tb_timeline(
    std::ostream& os,
    const std::vector<std::vector<TbTimelineEntry>>& timelines) {
  TraceEventWriter trace(os);
  for (std::size_t sm = 0; sm < timelines.size(); ++sm) {
    std::vector<TbTimelineEntry> entries = timelines[sm];
    std::ranges::sort(entries, {}, &TbTimelineEntry::start);
    const int pid = static_cast<int>(sm);
    trace.process_name(pid, "SM " + std::to_string(sm));
    std::vector<Cycle> track_free;  // next free cycle per track
    for (const TbTimelineEntry& e : entries) {
      std::size_t track = 0;
      while (track < track_free.size() && track_free[track] > e.start) {
        ++track;
      }
      if (track == track_free.size()) track_free.push_back(0);
      track_free[track] = e.end;
      trace.slice("TB " + std::to_string(e.ctaid), pid,
                  static_cast<int>(track), e.start, e.end - e.start, nullptr,
                  {"ctaid", e.ctaid});
    }
  }
}

}  // namespace prosim
