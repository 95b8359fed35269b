// CSV timeline sink for synchronization-wait windows.
//
// Records one row per closed barrier-wait or finish-wait interval — the
// windows during which a warp has progress to spare and the paper's PRO
// re-prioritization is supposed to shrink — plus fixed-width Histogram
// summaries of the window lengths for quick distribution comparisons
// across schedulers.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <vector>

#include "common/stats.hpp"
#include "trace/trace_events.hpp"

namespace prosim {

/// TraceSink recording {kind, sm, warp, start, end} rows for every closed
/// barrier-wait / finish-wait window, with histogram summaries.
class WindowCsvSink final : public TraceSink {
 public:
  struct Window {
    WarpState kind;  // kBarrierWait or kFinishWait
    int sm;
    int warp;
    Cycle start;
    Cycle end;
  };

  WindowCsvSink();

  void on_warp_state(int sm, int warp, WarpState prev, Cycle since,
                     WarpState next, Cycle now) override;

  /// One header row then one data row per window:
  /// kind,sm,warp,start,end,length
  void write_csv(std::ostream& os) const;

  /// Histogram summary (kind,bin_lo,bin_hi,count rows; "<lo" / ">=hi"
  /// rows carry the under/overflow counts).
  void write_histograms_csv(std::ostream& os) const;

  const std::vector<Window>& windows() const { return windows_; }

 private:
  std::vector<Window> windows_;
  Histogram barrier_hist_;
  Histogram finish_hist_;
};

}  // namespace prosim
