#include "gpu/result_io.hpp"

#include <ostream>
#include <sstream>

namespace prosim {

namespace {

void write_sm_stats(std::ostream& os, const SmStats& s) {
  char sep = '{';
  for (const SmStatsField& f : kSmStatsFields) {
    os << sep << '"' << f.name << "\":" << s.*f.member;
    sep = ',';
  }
  os << '}';
}

SimError field_error(const std::string& what) {
  return SimError::make(ErrorCategory::kInvariant,
                        "GpuResult JSON: " + what);
}

/// Pulls a u64 field or throws SimException (caught by the entry point).
std::uint64_t u64_field(const JsonValue& obj, const char* key) {
  const JsonValue* v = obj.find(key);
  PROSIM_REQUIRE(v != nullptr && v->is_number(),
                 field_error(std::string("missing field ") + key));
  return v->as_u64();
}

/// Required sub-array; throws (never aborts — cache files are external).
const std::vector<JsonValue>& array_field(const JsonValue& obj,
                                          const char* key) {
  const JsonValue* v = obj.find(key);
  PROSIM_REQUIRE(v != nullptr && v->is_array(),
                 field_error(std::string("missing array field ") + key));
  return v->items();
}

const JsonValue& object_field(const JsonValue& obj, const char* key) {
  const JsonValue* v = obj.find(key);
  PROSIM_REQUIRE(v != nullptr && v->is_object(),
                 field_error(std::string("missing object field ") + key));
  return *v;
}

bool bool_field(const JsonValue& obj, const char* key) {
  const JsonValue* v = obj.find(key);
  PROSIM_REQUIRE(v != nullptr && v->is_bool(),
                 field_error(std::string("missing field ") + key));
  return v->as_bool();
}

int int_field(const JsonValue& obj, const char* key) {
  const JsonValue* v = obj.find(key);
  PROSIM_REQUIRE(v != nullptr && v->is_number(),
                 field_error(std::string("missing field ") + key));
  return static_cast<int>(v->as_i64());
}

SmStats sm_stats_from_json(const JsonValue& obj) {
  PROSIM_REQUIRE(obj.is_object(), field_error("SmStats is not an object"));
  SmStats s;
  for (const SmStatsField& f : kSmStatsFields)
    s.*f.member = u64_field(obj, f.name);
  return s;
}

}  // namespace

// Deliberate exceptions to "every field": GpuResult::throughput is
// wall-clock measurement metadata stamped by the driver, and
// SmStats::cause_cycles is measurement metadata whose legacy-class sums
// the document already carries. Both are skipped on write and left zero on
// read, so cache files and every fingerprint derived from these bytes do
// not depend on them.
void write_gpu_result_json(std::ostream& os, const GpuResult& r) {
  os << "{\"schema\":\"" << kGpuResultSchema << "\",";
  os << "\"cycles\":" << r.cycles << ",";
  os << "\"totals\":";
  write_sm_stats(os, r.totals);
  os << ",\"per_sm\":[";
  for (std::size_t i = 0; i < r.per_sm.size(); ++i) {
    if (i != 0) os << ",";
    write_sm_stats(os, r.per_sm[i]);
  }
  os << "],\"timelines\":[";
  for (std::size_t sm = 0; sm < r.timelines.size(); ++sm) {
    if (sm != 0) os << ",";
    os << "[";
    for (std::size_t i = 0; i < r.timelines[sm].size(); ++i) {
      const TbTimelineEntry& e = r.timelines[sm][i];
      if (i != 0) os << ",";
      os << "[" << e.ctaid << "," << e.start << "," << e.end << "]";
    }
    os << "]";
  }
  os << "],\"tb_order_sm0\":[";
  for (std::size_t i = 0; i < r.tb_order_sm0.size(); ++i) {
    const TbOrderSample& s = r.tb_order_sm0[i];
    if (i != 0) os << ",";
    os << "{\"cycle\":" << s.cycle << ",\"ctaids\":[";
    for (std::size_t j = 0; j < s.ctaids.size(); ++j) {
      if (j != 0) os << ",";
      os << s.ctaids[j];
    }
    os << "]}";
  }
  os << "],\"faults_injected\":" << r.faults_injected;
  os << ",\"l1_hits\":" << r.l1_hits << ",\"l1_misses\":" << r.l1_misses
     << ",\"l2_hits\":" << r.l2_hits << ",\"l2_misses\":" << r.l2_misses
     << ",\"dram_row_hits\":" << r.dram_row_hits
     << ",\"dram_row_misses\":" << r.dram_row_misses;
  os << ",\"registers\":[";
  for (std::size_t i = 0; i < r.registers.size(); ++i) {
    if (i != 0) os << ",";
    os << r.registers[i];
  }
  os << "],\"regs_per_thread\":" << r.regs_per_thread
     << ",\"block_dim\":" << r.block_dim;
  // Optional serving block: only concurrent-kernel runs carry slices, so
  // single-kernel documents keep their exact historical bytes. The block
  // upgrades to prosim-serving-v2 only when a slice carries SLO/preemption
  // data — legacy-admission documents keep their exact v1 bytes (the
  // fingerprinting rule of admission.hpp).
  if (!r.kernel_slices.empty()) {
    bool slo = false;
    for (const KernelSlice& k : r.kernel_slices) slo = slo || k.slo_active;
    os << ",\"serving\":{\"schema\":\""
       << (slo ? kServingSchemaV2 : kServingSchema) << "\",\"kernels\":[";
    for (std::size_t i = 0; i < r.kernel_slices.size(); ++i) {
      const KernelSlice& k = r.kernel_slices[i];
      if (i != 0) os << ",";
      os << "{\"kernel_id\":" << k.kernel_id << ",\"name\":";
      write_json_string(os, k.name);
      os << ",\"arrival\":" << k.arrival
         << ",\"first_launch\":" << k.first_launch
         << ",\"launched\":" << (k.launched ? "true" : "false")
         << ",\"finish\":" << k.finish
         << ",\"finished\":" << (k.finished ? "true" : "false")
         << ",\"stats\":";
      write_sm_stats(os, k.stats);
      os << ",\"l1_hits\":" << k.l1_hits << ",\"l1_misses\":" << k.l1_misses;
      if (slo) {
        os << ",\"priority\":" << k.tenant.priority
           << ",\"deadline_cycles\":" << k.tenant.deadline_cycles
           << ",\"demotions\":" << k.demotions
           << ",\"resumptions\":" << k.resumptions
           << ",\"preempted_cycles\":" << k.preempted_cycles;
      }
      os << "}";
    }
    os << "]}";
  }
  os << "}";
}

std::string gpu_result_to_json(const GpuResult& result) {
  std::ostringstream os;
  write_gpu_result_json(os, result);
  return os.str();
}

Expected<GpuResult> gpu_result_from_json(std::string_view text) {
  JsonParseResult parsed = parse_json(text);
  if (!parsed.ok()) {
    return field_error("parse error at line " +
                       std::to_string(parsed.error->line) + ": " +
                       parsed.error->message);
  }
  const JsonValue& doc = *parsed.value;
  if (!doc.is_object()) return field_error("document is not an object");
  const JsonValue* schema = doc.find("schema");
  if (schema == nullptr || !schema->is_string() ||
      schema->as_string() != kGpuResultSchema) {
    return field_error("schema mismatch (want " +
                       std::string(kGpuResultSchema) + ")");
  }

  try {
    GpuResult r;
    r.cycles = u64_field(doc, "cycles");
    r.totals = sm_stats_from_json(object_field(doc, "totals"));
    for (const JsonValue& sm : array_field(doc, "per_sm")) {
      r.per_sm.push_back(sm_stats_from_json(sm));
    }
    for (const JsonValue& sm : array_field(doc, "timelines")) {
      PROSIM_REQUIRE(sm.is_array(), field_error("bad timeline list"));
      std::vector<TbTimelineEntry> timeline;
      for (const JsonValue& e : sm.items()) {
        PROSIM_REQUIRE(e.is_array() && e.items().size() == 3,
                       field_error("bad timeline entry"));
        TbTimelineEntry entry;
        entry.ctaid = static_cast<int>(e.items()[0].as_i64());
        entry.start = e.items()[1].as_u64();
        entry.end = e.items()[2].as_u64();
        timeline.push_back(entry);
      }
      r.timelines.push_back(std::move(timeline));
    }
    for (const JsonValue& s : array_field(doc, "tb_order_sm0")) {
      PROSIM_REQUIRE(s.is_object(), field_error("bad tb_order sample"));
      TbOrderSample sample;
      sample.cycle = u64_field(s, "cycle");
      for (const JsonValue& id : array_field(s, "ctaids")) {
        sample.ctaids.push_back(static_cast<int>(id.as_i64()));
      }
      r.tb_order_sm0.push_back(std::move(sample));
    }
    r.faults_injected = u64_field(doc, "faults_injected");
    r.l1_hits = u64_field(doc, "l1_hits");
    r.l1_misses = u64_field(doc, "l1_misses");
    r.l2_hits = u64_field(doc, "l2_hits");
    r.l2_misses = u64_field(doc, "l2_misses");
    r.dram_row_hits = u64_field(doc, "dram_row_hits");
    r.dram_row_misses = u64_field(doc, "dram_row_misses");
    for (const JsonValue& v : array_field(doc, "registers")) {
      r.registers.push_back(static_cast<RegValue>(v.as_i64()));
    }
    r.regs_per_thread = int_field(doc, "regs_per_thread");
    r.block_dim = int_field(doc, "block_dim");
    // The one optional block: "serving".
    if (const JsonValue* serving = doc.find("serving")) {
      PROSIM_REQUIRE(serving->is_object(), field_error("bad serving block"));
      const JsonValue* serving_schema = serving->find("schema");
      PROSIM_REQUIRE(serving_schema != nullptr && serving_schema->is_string(),
                     field_error("missing serving schema"));
      const bool v2 = serving_schema->as_string() == kServingSchemaV2;
      PROSIM_REQUIRE(v2 || serving_schema->as_string() == kServingSchema,
                     field_error("serving schema mismatch (want " +
                                 std::string(kServingSchema) + " or " +
                                 std::string(kServingSchemaV2) + ")"));
      for (const JsonValue& k : array_field(*serving, "kernels")) {
        PROSIM_REQUIRE(k.is_object(), field_error("bad kernel slice"));
        KernelSlice slice;
        slice.kernel_id = int_field(k, "kernel_id");
        const JsonValue* name = k.find("name");
        PROSIM_REQUIRE(name != nullptr && name->is_string(),
                       field_error("missing field name"));
        slice.name = name->as_string();
        slice.arrival = u64_field(k, "arrival");
        slice.first_launch = u64_field(k, "first_launch");
        slice.launched = bool_field(k, "launched");
        slice.finish = u64_field(k, "finish");
        slice.finished = bool_field(k, "finished");
        slice.stats = sm_stats_from_json(object_field(k, "stats"));
        slice.l1_hits = u64_field(k, "l1_hits");
        slice.l1_misses = u64_field(k, "l1_misses");
        if (v2) {
          slice.slo_active = true;
          slice.tenant.priority = int_field(k, "priority");
          slice.tenant.deadline_cycles = u64_field(k, "deadline_cycles");
          slice.demotions = u64_field(k, "demotions");
          slice.resumptions = u64_field(k, "resumptions");
          slice.preempted_cycles = u64_field(k, "preempted_cycles");
        }
        r.kernel_slices.push_back(std::move(slice));
      }
    }
    // The 16 members read above and "serving" are all there is: any
    // other means a document this build would not write, so no cache hit.
    const std::size_t members = doc.find("serving") != nullptr ? 17 : 16;
    PROSIM_REQUIRE(doc.members().size() == members,
                   field_error("unknown top-level member"));
    return r;
  } catch (const SimException& e) {
    return e.error();
  }
}

}  // namespace prosim
