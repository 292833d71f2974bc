// Tests for the runner substrate: world assembly, the call lifecycle,
// ground-truth invariant tracking, mobility/handoff, determinism, and the
// experiment drivers.
#include <gtest/gtest.h>

#include "runner/experiment.hpp"
#include "runner/world.hpp"
#include "test_util.hpp"
#include "traffic/profile.hpp"

namespace dca {
namespace {

using runner::RunResult;
using runner::ScenarioConfig;
using runner::Scheme;
using runner::World;
using testutil::offer_call;
using testutil::small_config;

TEST(World, GroundTruthMirrorsNodeUse) {
  const auto cfg = small_config();
  World w(cfg, Scheme::kAdaptive);
  traffic::CallId id = 1;
  for (cell::CellId c = 0; c < w.grid().n_cells(); c += 4)
    offer_call(w, c, id++, sim::seconds(30));
  w.run_until(sim::seconds(5));
  for (cell::CellId c = 0; c < w.grid().n_cells(); ++c) {
    EXPECT_TRUE(w.ground_truth_use(c) == w.node(c).in_use()) << "cell " << c;
  }
}

TEST(World, CallsEndAndChannelsReturn) {
  const auto cfg = small_config();
  World w(cfg, Scheme::kFca);
  offer_call(w, 0, 1, sim::seconds(10));
  EXPECT_EQ(w.active_calls(), 1u);
  w.run_to_quiescence();
  EXPECT_EQ(w.active_calls(), 0u);
  EXPECT_TRUE(w.ground_truth_use(0).empty());
  EXPECT_EQ(w.now(), sim::seconds(10));
}

TEST(World, BlockedCallsAreNotActive) {
  const auto cfg = small_config();
  World w(cfg, Scheme::kFca);
  for (int i = 0; i < 5; ++i) offer_call(w, 0, static_cast<traffic::CallId>(i + 1),
                                         sim::seconds(10));
  // FCA corner cell has 3 primaries: exactly 3 active.
  EXPECT_EQ(w.active_calls(), 3u);
}

TEST(World, SchemeNamesAreDistinct) {
  std::set<std::string> names;
  for (const Scheme s : runner::kAllSchemes) names.insert(runner::scheme_name(s));
  EXPECT_EQ(names.size(), std::size(runner::kAllSchemes));
}

TEST(World, HandoffMovesCallToNeighbor) {
  auto cfg = small_config();
  cfg.mean_dwell_s = 20.0;  // handoffs roughly every 20 s
  World w(cfg, Scheme::kFca);
  offer_call(w, testutil::center_cell(cfg), 1, sim::minutes(10));
  w.run_to_quiescence();
  // The call lived 10 minutes with ~30 expected handoffs; records beyond
  // the first must be handoff requests for the same call id.
  const auto& recs = w.collector().records();
  ASSERT_GT(recs.size(), 3u);
  int handoffs = 0;
  for (const auto& r : recs) {
    EXPECT_EQ(r.call, 1u);
    if (r.is_handoff) ++handoffs;
  }
  EXPECT_EQ(handoffs, static_cast<int>(recs.size()) - 1);
  EXPECT_TRUE(w.quiescent());
  EXPECT_EQ(w.interference_violations(), 0u);
}

TEST(World, HandoffFailureDropsCall) {
  auto cfg = small_config();
  cfg.mean_dwell_s = 5.0;
  World w(cfg, Scheme::kFca);
  // Fill every cell completely so any handoff must fail.
  traffic::CallId id = 1;
  for (cell::CellId c = 0; c < w.grid().n_cells(); ++c)
    for (int i = 0; i < 3; ++i) offer_call(w, c, id++, sim::minutes(2));
  w.run_to_quiescence();
  const auto agg = w.collector().aggregate(cfg.latency);
  EXPECT_GT(agg.handoff_failures, 0u);
  EXPECT_TRUE(w.quiescent());
}

TEST(Experiment, RunUniformProducesConsistentAggregate) {
  auto cfg = small_config();
  cfg.duration = sim::minutes(5);
  const RunResult r = runner::run_uniform(cfg, Scheme::kAdaptive, 0.5);
  EXPECT_TRUE(r.quiescent);
  EXPECT_EQ(r.violations, 0u);
  EXPECT_GT(r.agg.offered, 100u);
  EXPECT_EQ(r.agg.offered, r.agg.acquired + r.agg.blocked + r.agg.starved);
  EXPECT_GE(r.agg.drop_rate(), 0.0);
  EXPECT_LE(r.agg.drop_rate(), 1.0);
}

TEST(Experiment, DeterministicAcrossRuns) {
  auto cfg = small_config();
  cfg.duration = sim::minutes(5);
  const RunResult a = runner::run_uniform(cfg, Scheme::kAdaptive, 0.7);
  const RunResult b = runner::run_uniform(cfg, Scheme::kAdaptive, 0.7);
  EXPECT_EQ(a.total_messages, b.total_messages);
  EXPECT_EQ(a.executed_events, b.executed_events);
  EXPECT_EQ(a.agg.offered, b.agg.offered);
  EXPECT_EQ(a.agg.acquired, b.agg.acquired);
  EXPECT_DOUBLE_EQ(a.agg.delay_us.mean(), b.agg.delay_us.mean());
}

TEST(Experiment, SeedChangesTrajectory) {
  auto cfg = small_config();
  cfg.duration = sim::minutes(5);
  const RunResult a = runner::run_uniform(cfg, Scheme::kBasicUpdate, 0.7);
  cfg.seed = 999;
  const RunResult b = runner::run_uniform(cfg, Scheme::kBasicUpdate, 0.7);
  EXPECT_NE(a.executed_events, b.executed_events);
}

TEST(Experiment, SweepCoversAllPointsAndMatchesSequential) {
  auto cfg = small_config();
  cfg.duration = sim::minutes(2);
  const std::vector<Scheme> schemes{Scheme::kFca, Scheme::kAdaptive};
  const std::vector<double> rhos{0.3, 0.9};
  const auto seq = runner::sweep_uniform(cfg, schemes, rhos, 1);
  const auto par = runner::sweep_uniform(cfg, schemes, rhos, 4);
  ASSERT_EQ(seq.size(), 4u);
  ASSERT_EQ(par.size(), 4u);
  for (std::size_t i = 0; i < seq.size(); ++i) {
    EXPECT_EQ(seq[i].scheme, par[i].scheme);
    EXPECT_DOUBLE_EQ(seq[i].rho, par[i].rho);
    EXPECT_EQ(seq[i].result.total_messages, par[i].result.total_messages)
        << "thread partition must not change results";
    EXPECT_EQ(seq[i].result.executed_events, par[i].result.executed_events);
  }
}

TEST(Experiment, HotspotRunsAndStaysSafe) {
  auto cfg = small_config();
  cfg.duration = sim::minutes(6);
  const RunResult r = runner::run_hotspot(cfg, Scheme::kAdaptive, 0.3, 4.0,
                                          sim::minutes(2), sim::minutes(4));
  EXPECT_EQ(r.violations, 0u);
  EXPECT_TRUE(r.quiescent);
  EXPECT_GT(r.agg.offered, 0u);
}

TEST(Experiment, ArrivalRateForLoadInverts) {
  ScenarioConfig cfg;
  cfg.n_channels = 70;
  cfg.cluster = 7;
  cfg.mean_holding_s = 180.0;
  // rho = 1.0 => lambda * 180 = 10 erlang.
  EXPECT_NEAR(cfg.arrival_rate_for_load(1.0) * cfg.mean_holding_s, 10.0, 1e-9);
}

}  // namespace
}  // namespace dca
