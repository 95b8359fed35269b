// Lossless GpuResult <-> JSON conversion.
//
// The serializer covers every field of GpuResult bit-exactly except the
// per-cause stall cycles (it writes their legacy-class sums) and the
// wall-clock measurements — it is the storage format of the runner's
// on-disk result cache, and the determinism tests compare sweeps by these
// strings. Integers round-trip exactly (common/json.hpp keeps number
// tokens); there are no floating-point fields in GpuResult itself.
#pragma once

#include <iosfwd>
#include <string_view>

#include "common/json.hpp"
#include "common/sim_error.hpp"
#include "gpu/gpu_result.hpp"

namespace prosim {

/// Current cache schema tag, embedded in the JSON ("schema" key) and
/// checked on read so stale cache files are rejected, not mis-parsed.
inline constexpr const char* kGpuResultSchema = "prosim-result-v1";

/// Schema tags of the optional per-kernel "serving" block appended to the
/// document when GpuResult::kernel_slices is non-empty (concurrent-kernel
/// runs; see docs/SERVING.md). Single-kernel documents never carry the
/// block, so their bytes — and every pinned fingerprint — are unchanged.
/// The writer emits v1 unless a slice carries SLO/preemption data
/// (KernelSlice::slo_active, set only under a preemptive admission
/// policy), in which case the block upgrades to v2 with per-kernel tenant
/// specs and demotion/resumption/preempted-cycle counters — so every
/// legacy-admission document stays byte-identical to PR 7's. The reader
/// accepts both tags and rejects any other top-level member, so a cache
/// entry is either a document this build writes or a miss.
inline constexpr const char* kServingSchema = "prosim-serving-v1";
inline constexpr const char* kServingSchemaV2 = "prosim-serving-v2";

void write_gpu_result_json(std::ostream& os, const GpuResult& result);

/// Convenience: the JSON document as a string.
std::string gpu_result_to_json(const GpuResult& result);

/// Parses a document produced by write_gpu_result_json. Malformed input,
/// a schema mismatch, missing fields or an unknown member come back as a
/// SimError (category kInvariant) rather than aborting: cache files are
/// external state that may be truncated, stale or foreign.
Expected<GpuResult> gpu_result_from_json(std::string_view text);

}  // namespace prosim
