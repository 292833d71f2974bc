// Unit tests for the NFC sliding-window tracker and linear predictor
// (paper Fig. 6 / Section 3.1's NFC_i with add_nfc/get_nfc).
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "core/nfc.hpp"
#include "core/params.hpp"
#include "sim/random.hpp"
#include "sim/types.hpp"

namespace dca::core {
namespace {

TEST(Nfc, AtReturnsValueInForce) {
  NfcTracker t(sim::seconds(10));
  t.record(sim::seconds(1), 5);
  t.record(sim::seconds(4), 3);
  t.record(sim::seconds(8), 7);
  EXPECT_EQ(t.at(sim::seconds(1)), 5);
  EXPECT_EQ(t.at(sim::seconds(3)), 5);
  EXPECT_EQ(t.at(sim::seconds(4)), 3);
  EXPECT_EQ(t.at(sim::seconds(9)), 7);
}

TEST(Nfc, AtBeforeHistoryReturnsEarliest) {
  NfcTracker t(sim::seconds(10));
  t.record(sim::seconds(5), 4);
  EXPECT_EQ(t.at(sim::seconds(0)), 4);
}

TEST(Nfc, EmptyTrackerIsZero) {
  NfcTracker t(sim::seconds(10));
  EXPECT_EQ(t.at(0), 0);
  EXPECT_EQ(t.current(), 0);
  EXPECT_DOUBLE_EQ(t.predict(0, sim::milliseconds(10)), 0.0);
}

TEST(Nfc, PruningKeepsWindowAnswerable) {
  NfcTracker t(sim::seconds(10));
  for (int i = 0; i <= 30; ++i) t.record(sim::seconds(i), i);
  // History older than t - W is pruned, but at(t - W) must still answer
  // with the value in force at the cutoff.
  EXPECT_EQ(t.at(sim::seconds(20)), 20);
  EXPECT_LE(t.samples(), 12u);
  EXPECT_EQ(t.current(), 30);
}

TEST(Nfc, FlatHistoryPredictsCurrent) {
  NfcTracker t(sim::seconds(30));
  t.record(sim::seconds(0), 6);
  t.record(sim::seconds(30), 6);
  EXPECT_DOUBLE_EQ(t.predict(sim::seconds(30), sim::milliseconds(10)), 6.0);
}

TEST(Nfc, DecreasingTrendPredictsBelowCurrent) {
  NfcTracker t(sim::seconds(30));
  t.record(sim::seconds(0), 10);
  t.record(sim::seconds(30), 4);
  const double next = t.predict(sim::seconds(30), sim::seconds(10));
  // slope = (4 - 10)/30 per second; horizon 10 s -> 4 - 2 = 2.
  EXPECT_NEAR(next, 2.0, 1e-9);
  EXPECT_LT(next, 4.0);
}

TEST(Nfc, IncreasingTrendPredictsAboveCurrent) {
  NfcTracker t(sim::seconds(30));
  t.record(sim::seconds(0), 2);
  t.record(sim::seconds(30), 8);
  EXPECT_GT(t.predict(sim::seconds(30), sim::seconds(5)), 8.0);
}

TEST(Nfc, ShortHorizonBarelyMovesPrediction) {
  // The paper's regime: 2T (milliseconds) << W (seconds), so the predictor
  // is dominated by the current value.
  NfcTracker t(sim::seconds(30));
  t.record(sim::seconds(0), 10);
  t.record(sim::seconds(30), 0);
  const double next = t.predict(sim::seconds(30), sim::milliseconds(10));
  EXPECT_NEAR(next, 0.0, 0.01);
}

TEST(Nfc, SingleSampleHasZeroSlope) {
  NfcTracker t(sim::seconds(30));
  t.record(sim::seconds(100), 7);
  EXPECT_DOUBLE_EQ(t.predict(sim::seconds(100), sim::seconds(60)), 7.0);
}

// A tracker that keeps every sample and never prunes: the reference the
// change-point history must agree with inside the window.
class EverySample {
 public:
  explicit EverySample(sim::Duration window) : window_(window) {}
  void record(sim::SimTime t, int s) { samples_.emplace_back(t, s); }
  [[nodiscard]] int at(sim::SimTime t) const {
    if (samples_.empty()) return 0;
    int value = samples_.front().second;
    for (const auto& [when, s] : samples_) {
      if (when > t) break;
      value = s;
    }
    return value;
  }
  [[nodiscard]] int current() const {
    return samples_.empty() ? 0 : samples_.back().second;
  }
  [[nodiscard]] double predict(sim::SimTime now, sim::Duration horizon) const {
    const double s = current();
    const double last = at(now - window_);
    return s + static_cast<double>(horizon) * (s - last) / static_cast<double>(window_);
  }

 private:
  sim::Duration window_;
  std::vector<std::pair<sim::SimTime, int>> samples_;
};

TEST(Nfc, ChangePointsAnswerLikeEverySample) {
  // Long flat runs (most records repeat the value in force) broken by
  // steps, over several windows; time sometimes stands still. Every answer
  // the predictor can ask for, at(t) for t >= now - W, must match.
  const sim::Duration window = sim::seconds(30);
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    sim::RngStream rng(seed);
    NfcTracker t(window);
    EverySample ref(window);
    sim::SimTime now = 0;
    int s = static_cast<int>(rng.uniform_int(0, 10));
    for (int i = 0; i < 2000; ++i) {
      now += rng.uniform_int(0, sim::milliseconds(200));
      if (rng.bernoulli(0.05)) s = static_cast<int>(rng.uniform_int(0, 10));
      t.record(now, s);
      ref.record(now, s);
      ASSERT_EQ(t.current(), ref.current());
      for (int q = 0; q < 8; ++q) {
        const sim::SimTime at_t = now - window + rng.uniform_int(0, 2 * window);
        ASSERT_EQ(t.at(at_t), ref.at(at_t)) << "i " << i << ", t " << at_t;
        const sim::SimTime p_t = now + rng.uniform_int(0, window);
        const sim::Duration horizon = rng.uniform_int(1, sim::seconds(5));
        ASSERT_EQ(t.predict(p_t, horizon), ref.predict(p_t, horizon));
      }
    }
  }

  NfcTracker flat(window);
  for (int i = 0; i < 100'000; ++i) flat.record(sim::milliseconds(i), 4);
  EXPECT_EQ(flat.samples(), 1u);
  EXPECT_EQ(flat.at(0), 4);
  EXPECT_EQ(flat.current(), 4);
}

TEST(AdaptiveParams, DefaultsAreSane) {
  const AdaptiveParams p;
  p.check();
  EXPECT_LT(p.theta_low, p.theta_high);
  EXPECT_GE(p.theta_low, 1);
  EXPECT_GE(p.alpha, 1);
}

}  // namespace
}  // namespace dca::core
