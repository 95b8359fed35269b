// Warp-lane Chrome-trace writer: the per-warp companion of
// gpu/trace_export.hpp's TB-level view. Each SM is a process row, each
// warp slot a track, and each colored slice one WarpState interval — the
// paper's Figure 3/7 view of warp de-synchronization. TB launch/retire
// and PRO re-sort events appear as instant markers. Open the JSON in
// chrome://tracing or Perfetto (timestamps are simulated cycles, rendered
// as microseconds).
#pragma once

#include <cstdint>
#include <iosfwd>
#include <vector>

#include "trace/trace_events.hpp"

namespace prosim {

/// TraceSink that records warp-state slices and markers in memory, then
/// serializes them as a Trace Event Format JSON array.
class WarpLaneTraceSink final : public TraceSink {
 public:
  struct Slice {
    int sm;
    int warp;
    WarpState state;
    Cycle start;
    Cycle end;
  };

  void on_warp_state(int sm, int warp, WarpState prev, Cycle since,
                     WarpState next, Cycle now) override;
  void on_tb_launch(int sm, int ctaid, Cycle now) override;
  void on_tb_retire(int sm, int ctaid, Cycle start, Cycle end) override;
  void on_pro_sort(int sm, Cycle now) override;
  void on_sim_event(const SimEvent& event) override;

  void write(std::ostream& os) const;

  std::size_t num_slices() const { return slices_.size(); }
  /// Recorded slices in emission order (ASCII renderers, tests).
  const std::vector<Slice>& slices() const { return slices_; }

 private:
  struct Marker {
    int sm;
    int ctaid;  // -1 for PRO re-sorts
    Cycle at;
    bool retire;  // launch vs retire (unused for re-sorts)
  };

  std::vector<Slice> slices_;
  std::vector<Marker> markers_;
  std::vector<Marker> sorts_;
  int max_sm_ = -1;
  int max_warp_ = -1;
  Cycle sim_end_ = 0;
};

}  // namespace prosim
