// Lightweight statistics helpers: ratio summaries, histograms, and the
// geometric means used throughout the paper's evaluation section.
#pragma once

#include <cstdint>
#include <vector>

namespace prosim {

/// Geometric mean of a vector of positive ratios. Returns 0 for an empty
/// input. Values <= 0 are rejected (PROSIM_CHECK).
double geomean(const std::vector<double>& values);

/// Arithmetic mean; 0 for empty input.
double mean(const std::vector<double>& values);

/// Simple fixed-width histogram for distribution-style reporting
/// (e.g. warp-level divergence spreads).
class Histogram {
 public:
  Histogram(double lo, double hi, int bins);
  void add(double value);
  std::uint64_t bin_count(int bin) const { return bins_.at(bin); }
  std::uint64_t underflow() const { return underflow_; }
  std::uint64_t overflow() const { return overflow_; }
  std::uint64_t total() const { return total_; }
  int num_bins() const { return static_cast<int>(bins_.size()); }
  double bin_lo(int bin) const;
  double bin_hi(int bin) const;

 private:
  double lo_;
  double hi_;
  std::vector<std::uint64_t> bins_;
  std::uint64_t underflow_ = 0;
  std::uint64_t overflow_ = 0;
  std::uint64_t total_ = 0;
};

}  // namespace prosim
