// The NFC (number-of-free-channels) history and linear predictor of the
// paper's Fig. 6 / data structure NFC_i.
//
// A node records (t, s) samples — "at time t the number of free primary
// channels became s" — over a sliding window of width W, and predicts the
// value one round-trip (2T) ahead by linear extrapolation of the change
// across the window:
//
//     next = s + 2T * (s - get_nfc(t - W)) / W
//
// The prediction drives the local/borrowing mode switch with hysteresis
// thresholds θ_l < θ_h.
//
// The history keeps change points only. A node records on every neighbour
// acquisition and release, yet the predictor reads just two values: the
// one in force now and the one in force at t - W. A sample equal to the
// one before it changes neither, so it is not stored.
#pragma once

#include <cassert>
#include <utility>

#include "sim/fifo.hpp"
#include "sim/types.hpp"

namespace dca::core {

class NfcTracker {
 public:
  /// `window` is the paper's W (in simulated microseconds, > 0).
  explicit NfcTracker(sim::Duration window) : window_(window) {
    assert(window_ > 0);
  }

  /// add_nfc(t, s): records the sample when s differs from the value in
  /// force, and prunes history older than t - W (always keeping the newest
  /// sample at or before the cutoff so that at(t - W) stays answerable).
  void record(sim::SimTime t, int s) {
    assert(entries_.empty() || t >= entries_.back().first);
    if (entries_.empty() || entries_.back().second != s) {
      entries_.push_back({t, s});
    }
    const sim::SimTime cutoff = t - window_;
    while (entries_.size() >= 2 && entries_[1].first <= cutoff) {
      entries_.pop_front();
    }
  }

  /// get_nfc(t): the value in force at time t — the sample at the latest
  /// recording instant <= t, or the earliest known sample when t precedes
  /// all history. Returns 0 when no samples exist.
  [[nodiscard]] int at(sim::SimTime t) const {
    if (entries_.empty()) return 0;
    int value = entries_.front().second;
    for (const auto& [when, s] : entries_) {
      if (when > t) break;
      value = s;
    }
    return value;
  }

  /// Latest recorded value (0 when empty).
  [[nodiscard]] int current() const {
    return entries_.empty() ? 0 : entries_.back().second;
  }

  /// The paper's predictor: current + horizon * slope, where the slope is
  /// the change over the last window. `horizon` is typically 2T.
  [[nodiscard]] double predict(sim::SimTime now, sim::Duration horizon) const {
    const double s = current();
    const double last = at(now - window_);
    return s + static_cast<double>(horizon) * (s - last) / static_cast<double>(window_);
  }

  /// Forget all history (crash recovery: NFC is volatile state).
  void reset() { entries_.clear(); }

  [[nodiscard]] sim::Duration window() const noexcept { return window_; }
  [[nodiscard]] std::size_t samples() const noexcept { return entries_.size(); }

 private:
  sim::Duration window_;
  sim::Fifo<std::pair<sim::SimTime, int>> entries_;  // change points
};

}  // namespace dca::core
