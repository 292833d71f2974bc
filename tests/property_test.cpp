// Property-based tests: the paper's two theorems plus conservation
// invariants, swept over (scheme × load × seed × latency jitter) with
// parameterized gtest. Every run must satisfy:
//
//   P1 (Theorem 1)  no co-channel interference ever (checked continuously
//                   by the World at every acquisition);
//   P2 (Theorem 2)  every request terminates: the system drains to
//                   quiescence, no request left open;
//   P3 conservation  offered = acquired + blocked + starved, and all
//                   channels return to the pool at quiescence;
//   P4 sanity        delays are non-negative and bounded by the run, and
//                   FCA/adaptive local acquisitions are zero-delay.
#include <gtest/gtest.h>

#include <tuple>

#include "runner/experiment.hpp"
#include "test_util.hpp"

namespace dca {
namespace {

using runner::RunResult;
using runner::Scheme;

struct PropertyCase {
  Scheme scheme;
  double rho;
  std::uint64_t seed;
  bool jitter;
  bool mobility;
};

std::string case_name(const ::testing::TestParamInfo<PropertyCase>& info) {
  const auto& p = info.param;
  std::string s;
  switch (p.scheme) {
    case Scheme::kFca: s = "Fca"; break;
    case Scheme::kBasicSearch: s = "Search"; break;
    case Scheme::kBasicUpdate: s = "Update"; break;
    case Scheme::kAdvancedUpdate: s = "AdvUpdate"; break;
    case Scheme::kAdvancedSearch: s = "AdvSearch"; break;
    case Scheme::kAdaptive: s = "Adaptive"; break;
  }
  s += "_rho" + std::to_string(static_cast<int>(p.rho * 100));
  s += "_seed" + std::to_string(p.seed);
  if (p.jitter) s += "_jitter";
  if (p.mobility) s += "_mobility";
  return s;
}

class SchemeProperties : public ::testing::TestWithParam<PropertyCase> {
 protected:
  static runner::ScenarioConfig config_for(const PropertyCase& p) {
    auto cfg = testutil::small_config();
    cfg.duration = sim::minutes(5);
    cfg.warmup = 0;
    cfg.seed = p.seed;
    if (p.jitter) cfg.latency_jitter = sim::milliseconds(4);
    if (p.mobility) cfg.mean_dwell_s = 45.0;
    return cfg;
  }
};

TEST_P(SchemeProperties, TheoremsAndConservationHold) {
  const PropertyCase& p = GetParam();
  const auto cfg = config_for(p);
  const RunResult r = runner::run_uniform(cfg, p.scheme, p.rho);

  // P1 — Theorem 1.
  EXPECT_EQ(r.violations, 0u);

  // P2 — Theorem 2 (termination / deadlock freedom).
  EXPECT_TRUE(r.quiescent);

  // P3 — conservation.
  EXPECT_EQ(r.agg.offered, r.agg.acquired + r.agg.blocked + r.agg.starved);

  // P4 — delay sanity.
  EXPECT_GE(r.agg.delay_us.min(), 0.0);
  EXPECT_LE(r.agg.delay_us.max(), static_cast<double>(cfg.duration));
  if (p.scheme == Scheme::kFca) {
    EXPECT_DOUBLE_EQ(r.agg.delay_us.max(), 0.0);
    // FCA exchanges no protocol messages; with mobility on, the only
    // network traffic is HANDOFF call-state migration.
    EXPECT_EQ(r.total_messages,
              r.messages_by_kind[static_cast<std::size_t>(
                  net::MsgKind::kHandoff)]);
  }

  // Outcome-class sanity: only update-family schemes may starve; FCA and
  // adaptive never classify an acquisition as "search" unless they search.
  if (p.scheme == Scheme::kFca) {
    EXPECT_DOUBLE_EQ(r.agg.xi2 + r.agg.xi3, 0.0);
    EXPECT_EQ(r.agg.starved, 0u);
  }
  if (p.scheme == Scheme::kBasicSearch) {
    EXPECT_DOUBLE_EQ(r.agg.xi1 + r.agg.xi2, 0.0);  // everything via search
    EXPECT_EQ(r.agg.starved, 0u);
  }
  if (p.scheme == Scheme::kAdaptive) {
    EXPECT_EQ(r.agg.starved, 0u);
  }
}

// The full cartesian grid would be slow on one core; sample the corners
// plus the interesting middle: every scheme × {light, moderate, heavy} ×
// two seeds, with jitter/mobility variants on the moderate point.
std::vector<PropertyCase> property_cases() {
  std::vector<PropertyCase> cases;
  for (const Scheme s : runner::kAllSchemes) {
    for (const double rho : {0.15, 0.6, 0.95}) {
      for (const std::uint64_t seed : {1ull, 77ull}) {
        cases.push_back({s, rho, seed, false, false});
      }
    }
    cases.push_back({s, 0.6, 5ull, true, false});
    cases.push_back({s, 0.6, 5ull, false, true});
    cases.push_back({s, 0.6, 5ull, true, true});
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(AllSchemes, SchemeProperties,
                         ::testing::ValuesIn(property_cases()), case_name);

// ---------------------------------------------------------------------------
// Determinism property: identical (scheme, seed, rho) -> identical
// trajectory fingerprint, across every scheme.
// ---------------------------------------------------------------------------

class DeterminismProperty : public ::testing::TestWithParam<Scheme> {};

TEST_P(DeterminismProperty, ReplayIsExact) {
  auto cfg = testutil::small_config();
  cfg.duration = sim::minutes(3);
  const RunResult a = runner::run_uniform(cfg, GetParam(), 0.7);
  const RunResult b = runner::run_uniform(cfg, GetParam(), 0.7);
  EXPECT_EQ(a.executed_events, b.executed_events);
  EXPECT_EQ(a.total_messages, b.total_messages);
  EXPECT_EQ(a.agg.acquired, b.agg.acquired);
  EXPECT_EQ(a.agg.blocked, b.agg.blocked);
}

INSTANTIATE_TEST_SUITE_P(AllSchemes, DeterminismProperty,
                         ::testing::ValuesIn(std::vector<Scheme>(
                             std::begin(runner::kAllSchemes),
                             std::end(runner::kAllSchemes))),
                         [](const ::testing::TestParamInfo<Scheme>& p) {
                           return std::to_string(static_cast<int>(p.param));
                         });

}  // namespace
}  // namespace dca
