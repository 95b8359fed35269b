// Configuration knobs for the PRO scheduler, including the ablations the
// paper discusses (§IV: disabling the special handling of barriers helped
// scalarProd by up to 11%; THRESHOLD fixed at 1000 cycles in the paper).
#pragma once

#include <string>

#include "common/fingerprint.hpp"
#include "common/types.hpp"

namespace prosim {

struct ProConfig {
  /// Re-sort interval for progress-based TB/warp ordering (paper: 1000).
  Cycle sort_threshold = 1000;

  /// Prioritize TBs with warps waiting at barriers (barrierWait state).
  bool handle_barriers = true;

  /// Prioritize TBs with finished warps (finishWait state).
  bool handle_finish = true;

  /// Paper discrepancy switch (see DESIGN.md): the prose sorts fast-phase
  /// noWait TBs by *decreasing* progress, Algorithm 1 line 59 says
  /// INC_ORDER. False (default) follows the prose.
  bool fast_nowait_increasing = false;

  /// Model the non-blocking sort hardware of §III-E: the THRESHOLD sort
  /// reads progress when it starts but its new priorities only take
  /// effect after the sorting comparators finish (one comparison per
  /// cycle for the TB sort, one comparator per TB for the parallel warp
  /// sorts — "at most a few tens of cycles"). False (default) applies
  /// sorts instantaneously, the approximation the paper's evaluation
  /// makes when it says sorting "can overlap with the execution of TBs".
  bool model_sort_latency = false;

  /// Folds every knob into `fp` (stable across runs; see fingerprint.hpp).
  void hash_into(Fingerprint& fp) const {
    fp.add("ProConfig");
    fp.add(sort_threshold)
        .add(handle_barriers)
        .add(handle_finish)
        .add(fast_nowait_increasing)
        .add(model_sort_latency);
  }
  std::uint64_t fingerprint() const {
    Fingerprint fp;
    hash_into(fp);
    return fp.hash();
  }
  /// Human-readable variant key, the ablation shorthand in sweep labels
  /// and cache keys: "th1000.b1.f1.dec" (+".slat" when modeled).
  std::string fingerprint_key() const {
    std::string key = "th" + std::to_string(sort_threshold);
    key += handle_barriers ? ".b1" : ".b0";
    key += handle_finish ? ".f1" : ".f0";
    key += fast_nowait_increasing ? ".inc" : ".dec";
    if (model_sort_latency) key += ".slat";
    return key;
  }
};

}  // namespace prosim
