// Cross-scheme integration tests: the qualitative claims of the paper's
// Sections 1, 5 and 6, checked end-to-end on the simulated system.
#include <gtest/gtest.h>

#include "runner/experiment.hpp"
#include "test_util.hpp"

namespace dca {
namespace {

using runner::RunResult;
using runner::Scheme;
using testutil::small_config;

runner::ScenarioConfig quick_config() {
  auto cfg = small_config();
  cfg.duration = sim::minutes(8);
  cfg.warmup = sim::minutes(1);
  return cfg;
}

TEST(Integration, AllSchemesSafeAndLiveAtModerateLoad) {
  const auto cfg = quick_config();
  for (const Scheme s : runner::kAllSchemes) {
    const RunResult r = runner::run_uniform(cfg, s, 0.6);
    EXPECT_EQ(r.violations, 0u) << runner::scheme_name(s);
    EXPECT_TRUE(r.quiescent) << runner::scheme_name(s);
    EXPECT_EQ(r.agg.offered, r.agg.acquired + r.agg.blocked + r.agg.starved)
        << runner::scheme_name(s);
  }
}

TEST(Integration, AdaptiveIsAllLocalAtLowLoad) {
  // Section 5 / Table 2 premise: at uniformly low load, xi1 -> 1 and the
  // adaptive scheme exchanges (nearly) no messages. This needs the paper's
  // 10-primary pool: with the tiny 3-primary test pool, Erlang-B blocking
  // at rho = 0.1 already causes occasional (legitimate) borrowing.
  auto cfg = testutil::paper_config();
  cfg.duration = sim::minutes(10);
  cfg.warmup = sim::minutes(1);
  const RunResult r = runner::run_uniform(cfg, Scheme::kAdaptive, 0.1);
  EXPECT_GT(r.agg.xi1, 0.999);
  EXPECT_LT(r.agg.messages_per_call.mean(), 0.5);
  EXPECT_LT(r.agg.delay_in_T.mean(), 0.05);
}

TEST(Integration, DynamicSchemesBeatFcaOnDropsAtHighLoad) {
  // The reason dynamic allocation exists: fewer denials at the same load.
  const auto cfg = quick_config();
  const double rho = 0.9;
  const double fca = runner::run_uniform(cfg, Scheme::kFca, rho).agg.drop_rate();
  for (const Scheme s :
       {Scheme::kBasicSearch, Scheme::kBasicUpdate, Scheme::kAdaptive}) {
    const double d = runner::run_uniform(cfg, s, rho).agg.drop_rate();
    EXPECT_LT(d, fca) << runner::scheme_name(s) << " vs FCA at rho=" << rho;
  }
}

TEST(Integration, FcaMatchesDynamicAtVeryLowLoad) {
  const auto cfg = quick_config();
  const double fca = runner::run_uniform(cfg, Scheme::kFca, 0.1).agg.drop_rate();
  const double ad = runner::run_uniform(cfg, Scheme::kAdaptive, 0.1).agg.drop_rate();
  EXPECT_NEAR(fca, ad, 0.02);
}

TEST(Integration, AdaptiveMessagesBelowBasicUpdateEverywhere) {
  // The headline economy claim: the adaptive scheme never pays the
  // always-coordinate tax of the update scheme.
  const auto cfg = quick_config();
  for (const double rho : {0.2, 0.5, 0.8}) {
    const auto upd = runner::run_uniform(cfg, Scheme::kBasicUpdate, rho);
    const auto ad = runner::run_uniform(cfg, Scheme::kAdaptive, rho);
    EXPECT_LT(ad.agg.messages_per_call.mean(), upd.agg.messages_per_call.mean())
        << "rho=" << rho;
  }
}

TEST(Integration, AdaptiveDelayBelowBasicSearchAtLowAndModerateLoad) {
  // Search pays 2T on every acquisition; adaptive only when borrowing.
  const auto cfg = quick_config();
  for (const double rho : {0.2, 0.5}) {
    const auto se = runner::run_uniform(cfg, Scheme::kBasicSearch, rho);
    const auto ad = runner::run_uniform(cfg, Scheme::kAdaptive, rho);
    EXPECT_LT(ad.agg.delay_in_T.mean(), se.agg.delay_in_T.mean()) << "rho=" << rho;
  }
}

TEST(Integration, HotspotAdaptiveBorrowsAndDropsLittle) {
  // Section 1's motivating scenario: a temporary hot spot in an otherwise
  // lightly loaded system. The static scheme drops calls at the hot cell;
  // the adaptive scheme borrows from idle neighbours.
  auto cfg = quick_config();
  cfg.duration = sim::minutes(10);
  const auto hot_lo = sim::minutes(2);
  const auto hot_hi = sim::minutes(8);
  const RunResult fca =
      runner::run_hotspot(cfg, Scheme::kFca, 0.15, 8.0, hot_lo, hot_hi);
  const RunResult ad =
      runner::run_hotspot(cfg, Scheme::kAdaptive, 0.15, 8.0, hot_lo, hot_hi);
  EXPECT_EQ(ad.violations, 0u);
  EXPECT_LT(ad.agg.drop_rate(), fca.agg.drop_rate());
  // The adaptive run should show real borrowing at the hot cell.
  EXPECT_GT(ad.agg.xi2 + ad.agg.xi3, 0.0);
}

TEST(Integration, HotspotNeighborsStayCheapUnderAdaptive) {
  // Messages concentrate on the hot region; system-wide per-call cost
  // stays far below the basic update scheme's always-on handshake.
  auto cfg = quick_config();
  cfg.duration = sim::minutes(10);
  const auto hot_lo = sim::minutes(2);
  const auto hot_hi = sim::minutes(8);
  const RunResult ad =
      runner::run_hotspot(cfg, Scheme::kAdaptive, 0.15, 8.0, hot_lo, hot_hi);
  const RunResult upd =
      runner::run_hotspot(cfg, Scheme::kBasicUpdate, 0.15, 8.0, hot_lo, hot_hi);
  EXPECT_LT(ad.messages_per_offered(), upd.messages_per_offered());
}

TEST(Integration, StarvationOnlyInUpdateFamily) {
  // With a finite retry cap, the update-family schemes can starve; the
  // adaptive scheme's search fallback guarantees a decision instead.
  auto cfg = quick_config();
  cfg.max_update_attempts = 2;
  const auto ad = runner::run_uniform(cfg, Scheme::kAdaptive, 0.95);
  EXPECT_EQ(ad.agg.starved, 0u)
      << "adaptive requests always end in acquire or no-channel";
  const auto se = runner::run_uniform(cfg, Scheme::kBasicSearch, 0.95);
  EXPECT_EQ(se.agg.starved, 0u);
}

TEST(Integration, MessageTotalsConsistentWithAttribution) {
  const auto cfg = quick_config();
  // Every sent message is either billed to a call or explicitly
  // unattributed — nothing vanishes.
  // (Aggregate only covers post-warmup records, so compare with the sum
  // over ALL records via messages_per_call reconstruction at warmup = 0.)
  auto cfg0 = cfg;
  cfg0.warmup = 0;
  const RunResult r0 = runner::run_uniform(cfg0, Scheme::kAdaptive, 0.7);
  const double billed = r0.agg.messages_per_call.sum();
  EXPECT_GT(r0.total_messages, 0u);
  EXPECT_LE(billed, static_cast<double>(r0.total_messages));
}

TEST(Integration, MobilityStressAllSchemes) {
  auto cfg = quick_config();
  cfg.duration = sim::minutes(6);
  cfg.mean_dwell_s = 60.0;
  for (const Scheme s : runner::kAllSchemes) {
    const RunResult r = runner::run_uniform(cfg, s, 0.5);
    EXPECT_EQ(r.violations, 0u) << runner::scheme_name(s);
    EXPECT_TRUE(r.quiescent) << runner::scheme_name(s);
  }
}

}  // namespace
}  // namespace dca
