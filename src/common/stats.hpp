// Exact sample percentiles for the benchmark harnesses.
#pragma once

#include <algorithm>
#include <cstddef>
#include <vector>

namespace bgq {

/// Collects raw samples; supports exact percentiles.  Intended for latency
/// distributions with up to a few million samples.
class SampleSet {
 public:
  void reserve(std::size_t n) { samples_.reserve(n); }
  void add(double x) { samples_.push_back(x); }
  std::size_t count() const noexcept { return samples_.size(); }

  double mean() const noexcept {
    if (samples_.empty()) return 0.0;
    double s = 0.0;
    for (double x : samples_) s += x;
    return s / static_cast<double>(samples_.size());
  }

  /// Exact percentile p in [0, 100]; sorts a copy lazily.
  double percentile(double p) const {
    if (samples_.empty()) return 0.0;
    std::vector<double> v(samples_);
    std::sort(v.begin(), v.end());
    const double idx =
        (p / 100.0) * static_cast<double>(v.size() - 1);
    const auto lo = static_cast<std::size_t>(idx);
    const auto hi = std::min(lo + 1, v.size() - 1);
    const double frac = idx - static_cast<double>(lo);
    return v[lo] + (v[hi] - v[lo]) * frac;
  }

  double median() const { return percentile(50.0); }
  double min() const {
    return samples_.empty()
               ? 0.0
               : *std::min_element(samples_.begin(), samples_.end());
  }
  double max() const {
    return samples_.empty()
               ? 0.0
               : *std::max_element(samples_.begin(), samples_.end());
  }

  const std::vector<double>& raw() const noexcept { return samples_; }
  void clear() noexcept { samples_.clear(); }

 private:
  std::vector<double> samples_;
};

}  // namespace bgq
