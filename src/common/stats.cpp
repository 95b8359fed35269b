#include "common/stats.hpp"

#include <cmath>

#include "common/check.hpp"

namespace prosim {

double geomean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double log_sum = 0.0;
  for (double v : values) {
    PROSIM_CHECK_MSG(v > 0.0, "geomean requires positive values");
    log_sum += std::log(v);
  }
  return std::exp(log_sum / static_cast<double>(values.size()));
}

double mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

Histogram::Histogram(double lo, double hi, int bins)
    : lo_(lo), hi_(hi), bins_(static_cast<std::size_t>(bins), 0) {
  PROSIM_CHECK(bins > 0);
  PROSIM_CHECK(hi > lo);
}

void Histogram::add(double value) {
  ++total_;
  if (value < lo_) {
    ++underflow_;
    return;
  }
  if (value >= hi_) {
    ++overflow_;
    return;
  }
  const double frac = (value - lo_) / (hi_ - lo_);
  auto bin = static_cast<std::size_t>(frac * static_cast<double>(bins_.size()));
  if (bin >= bins_.size()) bin = bins_.size() - 1;
  ++bins_[bin];
}

double Histogram::bin_lo(int bin) const {
  return lo_ + (hi_ - lo_) * bin / static_cast<double>(bins_.size());
}

double Histogram::bin_hi(int bin) const {
  return lo_ + (hi_ - lo_) * (bin + 1) / static_cast<double>(bins_.size());
}

}  // namespace prosim
