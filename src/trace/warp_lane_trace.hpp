// Warp-lane view of the Trace Event writer (trace/trace_event_writer.hpp):
// the per-warp companion of the TB view. Each SM is a process row, each
// warp slot a track, and each colored slice one WarpState interval — the
// paper's Figure 3/7 view of warp de-synchronization. TB launch/retire
// and PRO re-sort events appear as instant markers.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <vector>

#include "trace/trace_events.hpp"

namespace prosim {

/// TraceSink that records warp-state slices and markers in memory, then
/// writes them as a Trace Event document.
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

  void write(std::ostream& os) const;

  /// Recorded slices in emission order.
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
};

}  // namespace prosim
