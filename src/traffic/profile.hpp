// Spatial/temporal offered-load profiles.
//
// A profile maps (cell, time) to a Poisson arrival rate in calls per
// simulated second. Time-varying profiles must also report a per-cell
// rate ceiling so the generator can use Lewis–Shedler thinning and stay
// exact. Profiles provided:
//
//  * UniformProfile  — the same constant rate everywhere (the paper's
//    "uniform load" regime, Tables 1–3).
//  * HotspotProfile  — a base rate plus a multiplicative factor on a set of
//    hot cells inside a time window (the paper's "temporary hot spots"
//    motivation, Section 1).
//
// Other shapes implement LoadProfile where they are needed.
#pragma once

#include <cassert>
#include <unordered_set>
#include <vector>

#include "cell/grid.hpp"
#include "sim/types.hpp"

namespace dca::traffic {

class LoadProfile {
 public:
  virtual ~LoadProfile() = default;

  /// Instantaneous arrival rate (calls/second) at `cell` at time `t`.
  [[nodiscard]] virtual double rate(cell::CellId cellId, sim::SimTime t) const = 0;

  /// An upper bound on rate(cell, t) over all t (thinning ceiling).
  [[nodiscard]] virtual double max_rate(cell::CellId cellId) const = 0;
};

class UniformProfile final : public LoadProfile {
 public:
  explicit UniformProfile(double rate_per_second) : rate_(rate_per_second) {
    assert(rate_ >= 0.0);
  }
  [[nodiscard]] double rate(cell::CellId, sim::SimTime) const override { return rate_; }
  [[nodiscard]] double max_rate(cell::CellId) const override { return rate_; }

 private:
  double rate_;
};

class HotspotProfile final : public LoadProfile {
 public:
  HotspotProfile(double base_rate, std::vector<cell::CellId> hot_cells,
                 double hot_factor, sim::SimTime hot_start, sim::SimTime hot_end)
      : base_(base_rate),
        factor_(hot_factor),
        start_(hot_start),
        end_(hot_end),
        hot_(hot_cells.begin(), hot_cells.end()) {
    assert(base_ >= 0.0 && factor_ >= 1.0 && start_ <= end_);
  }

  [[nodiscard]] double rate(cell::CellId c, sim::SimTime t) const override {
    if (t >= start_ && t < end_ && hot_.contains(c)) return base_ * factor_;
    return base_;
  }
  [[nodiscard]] double max_rate(cell::CellId c) const override {
    return hot_.contains(c) ? base_ * factor_ : base_;
  }

 private:
  double base_;
  double factor_;
  sim::SimTime start_;
  sim::SimTime end_;
  std::unordered_set<cell::CellId> hot_;
};

}  // namespace dca::traffic
