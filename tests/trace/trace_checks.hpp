// Shared structural check of a Trace Event document, whichever view of
// trace/trace_event_writer.hpp wrote it (TB timeline, warp lanes or
// kernel timeline).
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/json.hpp"
#include "common/types.hpp"

namespace prosim {

/// `json` parses to an array of events that each have "ph" and "pid";
/// every "X" slice has dur > 0 and ends by `cycles`, no two slices
/// overlap on one (pid, tid), and every slice's pid has a process_name.
/// Returns the parsed document (null when it does not parse) for the
/// checks that belong to one view.
inline JsonValue expect_valid_trace(const std::string& json, Cycle cycles) {
  JsonParseResult parsed = parse_json(json);
  if (!parsed.ok()) {
    ADD_FAILURE() << "trace does not parse: " << parsed.error->message;
    return JsonValue();
  }
  EXPECT_TRUE(parsed.value->is_array());
  if (!parsed.value->is_array()) return JsonValue();
  std::set<std::int64_t> named;
  std::map<std::pair<std::int64_t, std::int64_t>,
           std::vector<std::pair<Cycle, Cycle>>>
      spans;  // (pid, tid) -> [ts, ts + dur) of its slices
  for (const JsonValue& e : parsed.value->items()) {
    const JsonValue* ph = e.find("ph");
    const JsonValue* pid = e.find("pid");
    if (ph == nullptr || pid == nullptr) {
      ADD_FAILURE() << "event without ph or pid: " << json_to_string(e);
      continue;
    }
    if (ph->as_string() == "M" && e.at("name").as_string() == "process_name") {
      named.insert(pid->as_i64());
    }
    if (ph->as_string() != "X") continue;
    const Cycle ts = e.at("ts").as_u64();
    const Cycle dur = e.at("dur").as_u64();
    EXPECT_GT(dur, 0u) << json_to_string(e);
    EXPECT_LE(ts + dur, cycles) << json_to_string(e);
    spans[{pid->as_i64(), e.at("tid").as_i64()}].push_back({ts, ts + dur});
  }
  for (auto& [track, list] : spans) {
    EXPECT_EQ(named.count(track.first), 1u)
        << "slices on unnamed pid " << track.first;
    std::sort(list.begin(), list.end());
    for (std::size_t i = 1; i < list.size(); ++i) {
      EXPECT_LE(list[i - 1].second, list[i].first)
          << "overlapping slices on pid " << track.first << " tid "
          << track.second;
    }
  }
  return std::move(*parsed.value);
}

}  // namespace prosim
