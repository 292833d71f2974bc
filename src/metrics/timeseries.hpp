// Bucketed time series: accumulate (sum, count) per fixed-width bucket of
// simulated time. Used to plot transients — e.g. per-minute drop rate
// through a hot-spot burst — from per-call records.
#pragma once

#include <cassert>
#include <cstdint>
#include <vector>

#include "sim/types.hpp"

namespace dca::metrics {

class TimeSeries {
 public:
  explicit TimeSeries(sim::Duration bucket_width) : width_(bucket_width) {
    assert(width_ > 0);
  }

  /// Adds `value` to the bucket containing time t (negative t clamps to 0).
  void add(sim::SimTime t, double value = 1.0) {
    if (t < 0) t = 0;
    const auto idx = static_cast<std::size_t>(t / width_);
    if (idx >= sums_.size()) {
      sums_.resize(idx + 1, 0.0);
      counts_.resize(idx + 1, 0);
    }
    sums_[idx] += value;
    ++counts_[idx];
  }

  [[nodiscard]] std::size_t n_buckets() const noexcept { return sums_.size(); }
  [[nodiscard]] sim::SimTime bucket_start(std::size_t i) const {
    return static_cast<sim::SimTime>(i) * width_;
  }
  [[nodiscard]] double sum(std::size_t i) const { return sums_.at(i); }
  [[nodiscard]] std::uint64_t count(std::size_t i) const { return counts_.at(i); }
  [[nodiscard]] double mean(std::size_t i) const {
    return counts_.at(i) == 0 ? 0.0
                              : sums_.at(i) / static_cast<double>(counts_.at(i));
  }

 private:
  sim::Duration width_;
  std::vector<double> sums_;
  std::vector<std::uint64_t> counts_;
};

}  // namespace dca::metrics
