// Validation against closed-form teletraffic theory: under FCA every cell
// is an independent M/M/c/c loss system, so the simulator's measured
// blocking and carried load must converge to the Erlang-B formula. This
// anchors the whole stack (arrival process, holding times, event engine,
// metrics) to ground truth.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <string>

#include "analysis/erlang.hpp"
#include "runner/experiment.hpp"
#include "test_util.hpp"

namespace dca {
namespace {

using runner::Scheme;

TEST(ErlangB, KnownValues) {
  // Canonical Erlang-B table entries.
  EXPECT_NEAR(analysis::erlang_b(1, 1.0), 0.5, 1e-12);
  EXPECT_NEAR(analysis::erlang_b(2, 1.0), 0.2, 1e-12);
  EXPECT_NEAR(analysis::erlang_b(10, 10.0), 0.21458, 1e-4);
  EXPECT_NEAR(analysis::erlang_b(10, 5.0), 0.018385, 1e-5);
}

TEST(ErlangB, EdgeCases) {
  EXPECT_DOUBLE_EQ(analysis::erlang_b(0, 5.0), 1.0);
  EXPECT_DOUBLE_EQ(analysis::erlang_b(10, 0.0), 0.0);
  EXPECT_GT(analysis::erlang_b(5, 100.0), 0.9);
}

TEST(ErlangB, MonotoneInServersAndLoad) {
  for (int c = 1; c < 20; ++c) {
    EXPECT_LT(analysis::erlang_b(c + 1, 8.0), analysis::erlang_b(c, 8.0));
  }
  for (double a = 1.0; a < 20.0; a += 1.0) {
    EXPECT_LT(analysis::erlang_b(10, a), analysis::erlang_b(10, a + 1.0));
  }
}

TEST(ErlangB, CarriedPlusBlockedIsOffered) {
  const double a = 7.3;
  const int c = 9;
  EXPECT_NEAR(analysis::erlang_carried(c, a) + a * analysis::erlang_b(c, a), a,
              1e-12);
}

TEST(ErlangB, DimensioningInvertsBlocking) {
  const int c = analysis::erlang_servers_for(10.0, 0.02);
  EXPECT_LE(analysis::erlang_b(c, 10.0), 0.02);
  EXPECT_GT(analysis::erlang_b(c - 1, 10.0), 0.02);
}

// ---------------------------------------------------------------------------
// Simulator vs theory.
// ---------------------------------------------------------------------------

class FcaErlangValidation : public ::testing::TestWithParam<double> {};

TEST_P(FcaErlangValidation, FcaBlockingMatchesErlangB) {
  const double rho = GetParam();
  // Torus so all 196 cells are statistically identical M/M/10/10 systems;
  // long run for tight convergence.
  runner::ScenarioConfig cfg = testutil::paper_config();
  cfg.rows = 14;
  cfg.cols = 14;
  cfg.wrap = cell::Wrap::kToroidal;
  cfg.duration = sim::minutes(240);
  cfg.warmup = sim::minutes(10);
  const runner::RunResult r = runner::run_uniform(cfg, Scheme::kFca, rho);

  const double offered_erlangs = rho * 10.0;  // |PR| = 10 per cell
  const double theory = analysis::erlang_b(10, offered_erlangs);
  // ~40k+ offered calls; tolerance combines CLT noise and quantization.
  EXPECT_NEAR(r.agg.drop_rate(), theory, 0.012)
      << "rho=" << rho << " theory=" << theory;

  // Carried load per cell matches Erlang carried traffic.
  const double carried_per_cell = r.carried_erlangs / (14.0 * 14.0);
  EXPECT_NEAR(carried_per_cell, analysis::erlang_carried(10, offered_erlangs),
              0.25)
      << "rho=" << rho;
}

INSTANTIATE_TEST_SUITE_P(Loads, FcaErlangValidation,
                         ::testing::Values(0.4, 0.7, 1.0),
                         [](const ::testing::TestParamInfo<double>& p) {
                           return "rho" +
                                  std::to_string(static_cast<int>(p.param * 100));
                         });

// Statistical oracle with nothing in common with the engine: over 20
// independent seeds, FCA's mean drop rate on the 14x14 torus (196
// identical M/M/10/10 loss systems) must have Erlang-B inside its 99%
// confidence interval.
class ErlangBOracle : public ::testing::TestWithParam<double> {};

TEST_P(ErlangBOracle, FcaDropRateCiCoversErlangB) {
  const double rho = GetParam();
  runner::ScenarioConfig cfg = testutil::paper_config();
  cfg.rows = 14;
  cfg.cols = 14;
  cfg.wrap = cell::Wrap::kToroidal;
  // A warmup of ~7 holding times: the empty start has decayed to noise.
  cfg.warmup = sim::minutes(20);
  cfg.duration = sim::minutes(80);
  constexpr int kSeeds = 20;
  const runner::Replicated rep = runner::run_replicated(cfg, Scheme::kFca, rho, kSeeds);
  ASSERT_EQ(rep.drop_rate.count(), static_cast<std::uint64_t>(kSeeds));
  EXPECT_EQ(rep.violations, 0u);

  // Student t, 19 degrees of freedom, two-sided 99%.
  constexpr double kT99 = 2.861;
  const double half = kT99 * rep.drop_rate.stddev() / std::sqrt(double{kSeeds});
  const double theory = analysis::erlang_b(10, 10.0 * rho);
  EXPECT_GT(half, 0.0);
  EXPECT_GE(theory, rep.drop_rate.mean() - half)
      << "rho=" << rho << " mean=" << rep.drop_rate.mean() << " +- " << half;
  EXPECT_LE(theory, rep.drop_rate.mean() + half)
      << "rho=" << rho << " mean=" << rep.drop_rate.mean() << " +- " << half;
}

INSTANTIATE_TEST_SUITE_P(Loads, ErlangBOracle, ::testing::Values(0.6, 1.0),
                         [](const ::testing::TestParamInfo<double>& p) {
                           return "rho" +
                                  std::to_string(static_cast<int>(p.param * 100));
                         });

TEST(Validation, DynamicSchemesBeatErlangBViaTrunkPooling) {
  // Dynamic allocation pools trunks across cells, so at moderate load its
  // blocking must be BELOW the per-cell Erlang-B bound of FCA.
  runner::ScenarioConfig cfg = testutil::paper_config();
  cfg.duration = sim::minutes(60);
  cfg.warmup = sim::minutes(5);
  const double rho = 0.85;
  const double fca_theory = analysis::erlang_b(10, 8.5);
  for (const Scheme s : {Scheme::kBasicSearch, Scheme::kAdaptive}) {
    const runner::RunResult r = runner::run_uniform(cfg, s, rho);
    EXPECT_LT(r.agg.drop_rate(), fca_theory) << runner::scheme_name(s);
  }
}

TEST(Validation, CarriedLoadNeverExceedsOffered) {
  runner::ScenarioConfig cfg = testutil::small_config();
  cfg.duration = sim::minutes(10);
  for (const Scheme s : runner::kAllSchemes) {
    const runner::RunResult r = runner::run_uniform(cfg, s, 0.7);
    const double offered = 0.7 * 3.0 * 36.0;  // rho * |PR| * cells
    EXPECT_LE(r.carried_erlangs, offered * 1.15) << runner::scheme_name(s);
    EXPECT_GT(r.carried_erlangs, 0.0) << runner::scheme_name(s);
  }
}

}  // namespace
}  // namespace dca
