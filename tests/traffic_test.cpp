// Unit tests for the workload generator: Poisson arrival statistics,
// profile shapes, thinning correctness for time-varying rates, and
// determinism/independence of the per-cell substreams.
#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "cell/grid.hpp"
#include "traffic/arrivals.hpp"
#include "traffic/profile.hpp"

namespace dca::traffic {
namespace {

cell::HexGrid small_grid() { return cell::HexGrid(3, 3, 1); }

TEST(Profiles, UniformIsFlat) {
  const UniformProfile p(0.25);
  EXPECT_DOUBLE_EQ(p.rate(0, 0), 0.25);
  EXPECT_DOUBLE_EQ(p.rate(8, sim::minutes(90)), 0.25);
  EXPECT_DOUBLE_EQ(p.max_rate(3), 0.25);
}

TEST(Profiles, HotspotOnlyInsideWindowAndSet) {
  const HotspotProfile p(0.1, {4}, 5.0, sim::seconds(10), sim::seconds(20));
  EXPECT_DOUBLE_EQ(p.rate(4, sim::seconds(15)), 0.5);
  EXPECT_DOUBLE_EQ(p.rate(4, sim::seconds(5)), 0.1);   // before window
  EXPECT_DOUBLE_EQ(p.rate(4, sim::seconds(20)), 0.1);  // window end exclusive
  EXPECT_DOUBLE_EQ(p.rate(3, sim::seconds(15)), 0.1);  // not a hot cell
  EXPECT_DOUBLE_EQ(p.max_rate(4), 0.5);
  EXPECT_DOUBLE_EQ(p.max_rate(3), 0.1);
}

/// The plan's accepted calls in id order — the order the engine offers
/// them in.
std::vector<CallSpec> offered(const LoadProfile& profile, double mean_holding_s,
                              std::uint64_t seed, sim::SimTime horizon) {
  const int n_cells = small_grid().n_cells();
  const ArrivalPlan plan =
      plan_arrivals(n_cells, profile, mean_holding_s, seed, horizon);
  std::vector<CallSpec> calls(plan.calls);
  for (cell::CellId c = 0; c < n_cells; ++c) {
    for (const Candidate& cand : plan.by_cell[static_cast<std::size_t>(c)]) {
      EXPECT_LT(cand.t, horizon);
      if (cand.id == 0) continue;
      EXPECT_LE(cand.id, plan.calls);
      calls[cand.id - 1] = CallSpec{cand.id, c, cand.t, cand.holding};
    }
  }
  return calls;
}

TEST(Generator, PoissonCountIsApproximatelyRateTimesTime) {
  const UniformProfile profile(0.5);  // calls/s/cell
  const auto calls = offered(profile, 60.0, /*seed=*/7, sim::minutes(30));
  // E = 9 cells * 0.5/s * 1800 s = 8100; allow 5 sigma (~450).
  EXPECT_NEAR(static_cast<double>(calls.size()), 8100.0, 450.0);
}

TEST(Generator, HoldingTimesHaveRequestedMean) {
  const UniformProfile profile(1.0);
  double sum = 0.0;
  const auto calls = offered(profile, 120.0, 3, sim::minutes(20));
  for (const CallSpec& c : calls) {
    EXPECT_GE(c.holding, 1);
    sum += sim::to_seconds(c.holding);
  }
  ASSERT_GT(calls.size(), 1000u);
  EXPECT_NEAR(sum / static_cast<double>(calls.size()), 120.0, 10.0);
}

TEST(Generator, ArrivalsRespectHorizonAndAreOrdered) {
  const UniformProfile profile(2.0);
  const auto calls = offered(profile, 10.0, 5, sim::seconds(100));
  ASSERT_FALSE(calls.empty());
  for (std::size_t i = 1; i < calls.size(); ++i) {
    // Ids follow the canonical (arrival, cell) order.
    EXPECT_TRUE(calls[i].arrival > calls[i - 1].arrival ||
                (calls[i].arrival == calls[i - 1].arrival &&
                 calls[i].cell > calls[i - 1].cell));
  }
  EXPECT_LT(calls.back().arrival, sim::seconds(100));
}

TEST(Generator, CallIdsAreUniqueAndDense) {
  const UniformProfile profile(1.0);
  const auto calls = offered(profile, 10.0, 5, sim::seconds(60));
  ASSERT_FALSE(calls.empty());
  for (std::size_t i = 0; i < calls.size(); ++i) EXPECT_EQ(calls[i].id, i + 1);
}

TEST(Generator, DeterministicGivenSeed) {
  const auto run = [](std::uint64_t seed) {
    const UniformProfile profile(0.7);
    std::vector<std::pair<sim::SimTime, cell::CellId>> trace;
    for (const CallSpec& c : offered(profile, 30.0, seed, sim::minutes(5))) {
      trace.emplace_back(c.arrival, c.cell);
    }
    return trace;
  };
  EXPECT_EQ(run(11), run(11));
  EXPECT_NE(run(11), run(12));
}

TEST(Generator, ThinningMatchesHotspotRates) {
  // Compare in-window vs out-of-window arrival counts at the hot cell.
  const sim::SimTime w0 = sim::minutes(30), w1 = sim::minutes(60);
  const HotspotProfile profile(0.2, {0}, 4.0, w0, w1);
  std::uint64_t inside = 0, outside = 0;
  for (const CallSpec& c : offered(profile, 10.0, 21, sim::minutes(90))) {
    if (c.cell != 0) continue;
    if (c.arrival >= w0 && c.arrival < w1) {
      ++inside;
    } else {
      ++outside;
    }
  }
  // Expected: inside ~ 0.8/s * 1800 = 1440; outside ~ 0.2/s * 3600 = 720.
  EXPECT_NEAR(static_cast<double>(inside), 1440.0, 200.0);
  EXPECT_NEAR(static_cast<double>(outside), 720.0, 150.0);
}

/// Cell 1 offers one call per second; every other cell is silent.
class OneActiveCellProfile final : public LoadProfile {
 public:
  [[nodiscard]] double rate(cell::CellId c, sim::SimTime) const override { return max_rate(c); }
  [[nodiscard]] double max_rate(cell::CellId c) const override { return c == 1 ? 1.0 : 0.0; }
};

TEST(Generator, ZeroRateCellProducesNothing) {
  const OneActiveCellProfile profile;
  std::uint64_t from_silent = 0, from_active = 0;
  for (const CallSpec& c : offered(profile, 10.0, 2, sim::minutes(10))) {
    (c.cell == 1 ? from_active : from_silent)++;
  }
  EXPECT_EQ(from_silent, 0u);
  EXPECT_GT(from_active, 100u);
}

}  // namespace
}  // namespace dca::traffic
