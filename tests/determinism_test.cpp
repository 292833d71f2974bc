// Determinism regression: results are a pure function of the scenario —
// independent of worker thread count, and bit-identically replayable even
// with the full fault cocktail active (the fault schedule derives from
// the seed, not from host scheduling).
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <tuple>
#include <vector>

#include "runner/config_file.hpp"
#include "runner/conformance.hpp"
#include "runner/experiment.hpp"
#include "sim/trace.hpp"

namespace dca {
namespace {

using runner::RunResult;
using runner::Scheme;

runner::ScenarioConfig small_config() {
  runner::ScenarioConfig cfg;
  cfg.rows = 5;
  cfg.cols = 5;
  cfg.n_channels = 35;
  cfg.duration = sim::minutes(3);
  cfg.warmup = sim::seconds(30);
  cfg.seed = 11;
  return cfg;
}

void expect_same_result(const RunResult& a, const RunResult& b,
                        const char* what) {
  SCOPED_TRACE(what);
  EXPECT_EQ(a.agg.offered, b.agg.offered);
  EXPECT_EQ(a.agg.acquired, b.agg.acquired);
  EXPECT_EQ(a.agg.blocked, b.agg.blocked);
  EXPECT_EQ(a.agg.starved, b.agg.starved);
  EXPECT_EQ(a.agg.timed_out, b.agg.timed_out);
  EXPECT_EQ(a.total_messages, b.total_messages);
  EXPECT_EQ(a.executed_events, b.executed_events);
  EXPECT_EQ(a.offered_calls, b.offered_calls);
  EXPECT_EQ(a.violations, b.violations);
  EXPECT_EQ(a.carried_erlangs, b.carried_erlangs);  // bit-exact, not near
  EXPECT_EQ(a.agg.delay_in_T.mean(), b.agg.delay_in_T.mean());
  EXPECT_EQ(a.agg.delay_us.mean(), b.agg.delay_us.mean());
  EXPECT_EQ(a.agg.messages_per_call.mean(), b.agg.messages_per_call.mean());
  EXPECT_EQ(a.agg.xi1, b.agg.xi1);
  EXPECT_EQ(a.agg.xi2, b.agg.xi2);
  EXPECT_EQ(a.agg.xi3, b.agg.xi3);
  EXPECT_EQ(a.agg.mean_update_attempts, b.agg.mean_update_attempts);
  EXPECT_EQ(a.agg.mean_borrowing_neighbors, b.agg.mean_borrowing_neighbors);
  EXPECT_EQ(a.agg.mean_searching_neighbors, b.agg.mean_searching_neighbors);
  EXPECT_EQ(a.messages_by_kind, b.messages_by_kind);
  EXPECT_EQ(a.quiescent, b.quiescent);
  EXPECT_EQ(a.transport, b.transport);
}

TEST(Determinism, FaultInjectedRunReplaysBitIdentically) {
  runner::ScenarioConfig cfg = small_config();
  cfg.fault.drop_prob = 0.08;
  cfg.fault.dup_prob = 0.05;
  cfg.fault.jitter = sim::milliseconds(3);
  cfg.fault.pause_rate_per_min = 0.5;
  cfg.fault.pause_mean_s = 1.0;
  cfg.request_timeout = sim::milliseconds(400);

  for (const Scheme s : {Scheme::kBasicSearch, Scheme::kAdaptive}) {
    sim::TraceRecorder rec_a, rec_b;
    const RunResult a = runner::run_uniform(cfg, s, 0.8, &rec_a);
    const RunResult b = runner::run_uniform(cfg, s, 0.8, &rec_b);
    expect_same_result(a, b, runner::scheme_name(s).c_str());
    EXPECT_GT(rec_a.size(), 0u);
    EXPECT_GT(a.transport.frames_dropped, 0u) << "faults should be active";
    EXPECT_EQ(rec_a.events(), rec_b.events())
        << runner::scheme_name(s) << ": full event traces must be identical";
  }
}

// The tentpole guarantee: partitioning the world across shards (and any
// worker thread count) reproduces the one-shard run bit for bit — headline
// metrics, FP aggregates, and the full structured trace.
TEST(Determinism, ShardedEngineMatchesOneShardBitExactly) {
  const runner::ScenarioConfig cfg = small_config();
  for (const Scheme s : {Scheme::kBasicSearch, Scheme::kAdaptive}) {
    SCOPED_TRACE(runner::scheme_name(s));
    sim::TraceRecorder rec1, rec4, rec8;
    const RunResult r1 = runner::run_uniform(cfg, s, 0.8, &rec1);

    runner::ScenarioConfig c4 = cfg;
    c4.shards = 4;
    c4.threads = 2;
    const RunResult r4 = runner::run_uniform(c4, s, 0.8, &rec4);

    runner::ScenarioConfig c8 = cfg;
    c8.shards = 8;
    c8.threads = 0;  // one thread per shard (capped by hardware)
    const RunResult r8 = runner::run_uniform(c8, s, 0.8, &rec8);

    expect_same_result(r1, r4, "shards=1 vs shards=4");
    expect_same_result(r1, r8, "shards=1 vs shards=8");
    ASSERT_GT(rec1.size(), 0u);
    EXPECT_EQ(rec1.events(), rec4.events()) << "merged trace, shards=4";
    EXPECT_EQ(rec1.events(), rec8.events()) << "merged trace, shards=8";
  }
}

// Same guarantee with the full fault cocktail: drops, duplicates, fault
// jitter, MSS pauses, and protocol timeouts all live on per-cell/per-link
// streams, so the shard decomposition cannot perturb them.
TEST(Determinism, ShardedEngineMatchesOneShardUnderFaults) {
  runner::ScenarioConfig cfg = small_config();
  cfg.fault.drop_prob = 0.08;
  cfg.fault.dup_prob = 0.05;
  cfg.fault.jitter = sim::milliseconds(3);
  cfg.fault.pause_rate_per_min = 0.5;
  cfg.fault.pause_mean_s = 1.0;
  cfg.request_timeout = sim::milliseconds(400);

  for (const Scheme s : {Scheme::kBasicSearch, Scheme::kAdaptive}) {
    SCOPED_TRACE(runner::scheme_name(s));
    sim::TraceRecorder rec1, rec4;
    const RunResult r1 = runner::run_uniform(cfg, s, 0.8, &rec1);

    runner::ScenarioConfig c4 = cfg;
    c4.shards = 4;
    c4.threads = 4;
    const RunResult r4 = runner::run_uniform(c4, s, 0.8, &rec4);

    expect_same_result(r1, r4, "faults, shards=1 vs shards=4");
    EXPECT_GT(r1.transport.frames_dropped, 0u) << "faults should be active";
    EXPECT_EQ(rec1.events(), rec4.events()) << "merged trace under faults";
  }
}

// Link-table stress: a much hotter fault cocktail (quarter of all frames
// dropped, heavy duplication, jitter wider than the base latency, plus
// MSS pauses) drives the flat per-link rings hard — deep retransmit
// windows, long reorder runs, pause backlogs — and the full structured
// trace must still match the one-shard run event for event at every
// shard count.
TEST(Determinism, LinkTableSurvivesFullFaultCocktailBitExactly) {
  runner::ScenarioConfig cfg = small_config();
  cfg.duration = sim::minutes(1);
  cfg.warmup = sim::seconds(10);
  cfg.fault.drop_prob = 0.25;
  cfg.fault.dup_prob = 0.15;
  cfg.fault.jitter = sim::milliseconds(8);
  cfg.fault.pause_rate_per_min = 1.0;
  cfg.fault.pause_mean_s = 0.5;
  cfg.request_timeout = sim::milliseconds(400);

  for (const Scheme s : {Scheme::kBasicSearch, Scheme::kAdaptive}) {
    SCOPED_TRACE(runner::scheme_name(s));
    sim::TraceRecorder rec1;
    const RunResult r1 = runner::run_uniform(cfg, s, 0.9, &rec1);
    ASSERT_GT(rec1.size(), 0u);
    EXPECT_GT(r1.transport.frames_dropped, 0u);
    EXPECT_GT(r1.transport.frames_duplicated, 0u);
    EXPECT_GT(r1.transport.retransmissions, 0u);

    for (const int shards : {2, 4}) {
      SCOPED_TRACE(shards);
      runner::ScenarioConfig cs = cfg;
      cs.shards = shards;
      cs.threads = 0;
      sim::TraceRecorder recs;
      const RunResult rs = runner::run_uniform(cs, s, 0.9, &recs);
      expect_same_result(r1, rs, "stress cocktail, shards=1 vs N");
      EXPECT_EQ(rec1.events(), recs.events())
          << "full trace must be identical at shards=" << shards;
    }
  }
}

// Thread count must be wall-clock-only: same shard count, different
// worker counts, identical everything.
TEST(Determinism, ShardedThreadCountIsResultInvariant) {
  runner::ScenarioConfig cfg = small_config();
  cfg.shards = 5;
  sim::TraceRecorder rec_a, rec_b;
  cfg.threads = 1;
  const RunResult a = runner::run_uniform(cfg, Scheme::kAdaptive, 0.8, &rec_a);
  cfg.threads = 5;
  const RunResult b = runner::run_uniform(cfg, Scheme::kAdaptive, 0.8, &rec_b);
  expect_same_result(a, b, "threads=1 vs threads=5");
  EXPECT_EQ(rec_a.events(), rec_b.events());
}

TEST(Determinism, TracingItselfDoesNotPerturbTheRun) {
  runner::ScenarioConfig cfg = small_config();
  cfg.fault.drop_prob = 0.05;
  cfg.request_timeout = sim::milliseconds(400);
  sim::TraceRecorder rec;
  const RunResult traced = runner::run_uniform(cfg, Scheme::kAdaptive, 0.8, &rec);
  const RunResult plain = runner::run_uniform(cfg, Scheme::kAdaptive, 0.8);
  expect_same_result(traced, plain, "traced vs untraced");
}

// -- every scheme under every allocation variant ---------------------------
//
// A small clean world (6x6, 70 channels, rho 0.7, 40 s) for each of the six
// schemes under the paper's behaviour, guard channels and a wider adaptive
// hysteresis: every run is free of violations and drains, and a two-shard
// run reproduces the one-shard run in every simulated field.

struct Variant {
  const char* name;
  const char* overrides;  // scenario text applied over matrix_config()
};

constexpr Variant kVariants[] = {
    {"paper", ""},
    {"guard2", "handoff_guard = 2\n"},
    {"theta3to6", "theta_low = 3\ntheta_high = 6\n"},
};

runner::ScenarioConfig matrix_config(const Variant& v) {
  runner::ScenarioConfig c;
  c.rows = 6;
  c.cols = 6;
  c.interference_radius = 2;
  c.n_channels = 70;
  c.cluster = 7;
  c.seed = 17;
  c.mean_holding_s = 20.0;
  c.duration = sim::seconds(40);
  c.warmup = sim::seconds(5);
  std::string error;
  EXPECT_TRUE(runner::apply_scenario_text(v.overrides, c, error)) << error;
  return c;
}

void expect_same_summary(const metrics::Summary& a, const metrics::Summary& b,
                         const char* what) {
  SCOPED_TRACE(what);
  EXPECT_EQ(a.count(), b.count());
  EXPECT_EQ(a.mean(), b.mean());
  EXPECT_EQ(a.variance(), b.variance());
  EXPECT_EQ(a.min(), b.min());
  EXPECT_EQ(a.max(), b.max());
}

/// Every field of a RunResult that the simulation determines (all but the
/// engine's own costs: cross-shard messages and peak RSS).
void expect_same_simulation(const RunResult& a, const RunResult& b) {
  expect_same_result(a, b, "simulated fields");
  EXPECT_EQ(a.scheme, b.scheme);
  EXPECT_EQ(a.agg.downed, b.agg.downed);
  EXPECT_EQ(a.agg.handoff_offered, b.agg.handoff_offered);
  EXPECT_EQ(a.agg.handoff_failures, b.agg.handoff_failures);
  expect_same_summary(a.agg.attempts, b.agg.attempts, "attempts");
  expect_same_summary(a.agg.delay_us, b.agg.delay_us, "delay_us");
  expect_same_summary(a.agg.delay_in_T, b.agg.delay_in_T, "delay_in_T");
  expect_same_summary(a.agg.messages_per_call, b.agg.messages_per_call,
                      "messages_per_call");
  expect_same_summary(a.agg.messages_acquired, b.agg.messages_acquired,
                      "messages_acquired");
  EXPECT_EQ(a.transport_bytes, b.transport_bytes);
  EXPECT_EQ(a.availability, b.availability);
  EXPECT_EQ(a.conformance_checked, b.conformance_checked);
  EXPECT_EQ(a.conformance_violations, b.conformance_violations);
}

class SchemeMatrix
    : public ::testing::TestWithParam<std::tuple<Scheme, std::size_t>> {};

TEST_P(SchemeMatrix, CleanAndShardInvariant) {
  const auto [scheme, variant] = GetParam();
  runner::ScenarioConfig cfg = matrix_config(kVariants[variant]);
  ASSERT_EQ(runner::validate_scenario(cfg), "");
  const RunResult one = runner::run_uniform(cfg, scheme, 0.7);
  EXPECT_EQ(one.violations, 0u);
  EXPECT_TRUE(one.quiescent);
  EXPECT_GT(one.agg.acquired, 0u);
  cfg.shards = 2;
  const RunResult two = runner::run_uniform(cfg, scheme, 0.7);
  expect_same_simulation(one, two);
}

std::string scheme_key(Scheme s) {
  switch (s) {
    case Scheme::kFca: return "fca";
    case Scheme::kBasicSearch: return "basic_search";
    case Scheme::kBasicUpdate: return "basic_update";
    case Scheme::kAdvancedUpdate: return "advanced_update";
    case Scheme::kAdvancedSearch: return "advanced_search";
    case Scheme::kAdaptive: return "adaptive";
  }
  return "unknown";
}

INSTANTIATE_TEST_SUITE_P(
    SchemesByVariant, SchemeMatrix,
    ::testing::Combine(::testing::ValuesIn(runner::kAllSchemes),
                       ::testing::Range<std::size_t>(0, std::size(kVariants))),
    [](const ::testing::TestParamInfo<std::tuple<Scheme, std::size_t>>& p) {
      return scheme_key(std::get<0>(p.param)) + "_" +
             kVariants[std::get<1>(p.param)].name;
    });

// -- trace digests pinned to fixed values --------------------------------
//
// FNV-1a-64 of trace_to_jsonl for three scenarios, recorded when the
// simulator still had a second, independently written engine and every
// engine and shard count agreed on them. Trace equality is checked
// against these constants, not against another engine. Next to each sits
// the number of events the kernel executes for the scenario, so an
// events/s figure can only move through speed, never through a changed
// event count.

std::uint64_t fnv1a64(const std::string& s) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const char ch : s) {
    h ^= static_cast<unsigned char>(ch);
    h *= 0x100000001b3ull;
  }
  return h;
}

/// 6x6, radius 2, 21 channels (3 primaries per cell), 3 minutes.
runner::ScenarioConfig digest_config() {
  runner::ScenarioConfig c;
  c.rows = 6;
  c.cols = 6;
  c.interference_radius = 2;
  c.n_channels = 21;
  c.cluster = 7;
  c.mean_holding_s = 60.0;
  c.latency = sim::milliseconds(5);
  c.seed = 42;
  c.duration = sim::minutes(3);
  c.warmup = 0;
  c.adaptive.theta_low = 1;
  c.adaptive.theta_high = 2;
  return c;
}

/// `timeouts` >= 0 also pins the number of kTimeout trace records.
void expect_trace_digest(runner::ScenarioConfig cfg, Scheme scheme, double rho,
                         std::uint64_t digest, std::size_t events,
                         std::uint64_t executed, long timeouts = -1) {
  for (const int shards : {1, 2, 4}) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    cfg.shards = shards;
    cfg.threads = 2;
    sim::TraceRecorder rec;
    const RunResult r = runner::run_uniform(cfg, scheme, rho, &rec);
    EXPECT_EQ(r.violations, 0u);
    EXPECT_TRUE(r.quiescent);
    EXPECT_EQ(rec.size(), events);
    EXPECT_EQ(r.executed_events, executed);
    EXPECT_EQ(fnv1a64(runner::trace_to_jsonl(rec.events())), digest);
    if (timeouts >= 0) {
      long n = 0;
      for (const sim::TraceEvent& e : rec.events())
        if (e.kind == sim::TraceKind::kTimeout) ++n;
      EXPECT_EQ(n, timeouts);
    }
  }
}

TEST(TraceDigest, AdaptiveClean) {
  expect_trace_digest(digest_config(), Scheme::kAdaptive, 0.8,
                      0x4284b13de0de75b2ull, 906, 10610);
}

TEST(TraceDigest, AdaptiveDropDupJitterCrashPartition) {
  runner::ScenarioConfig cfg = digest_config();
  cfg.fault.drop_prob = 0.05;
  cfg.fault.dup_prob = 0.02;
  cfg.fault.jitter = sim::milliseconds(2);
  cfg.fault.crash_rate_per_min = 0.5;
  cfg.fault.crash_mean_s = 2.0;
  cfg.fault.partitions.push_back(
      net::PartitionSpec{{0, 1, 2, 6, 7, 8}, sim::seconds(60), sim::seconds(90)});
  cfg.request_timeout = sim::milliseconds(100);
  expect_trace_digest(cfg, Scheme::kAdaptive, 0.7, 0xe3cd2bd653e21909ull, 126894,
                      122291);
}

TEST(TraceDigest, BasicSearchMobilityJitter) {
  runner::ScenarioConfig cfg = digest_config();
  cfg.mean_dwell_s = 10.0;
  cfg.latency_jitter = sim::milliseconds(3);
  expect_trace_digest(cfg, Scheme::kBasicSearch, 0.7, 0x32e9ecf76ab10869ull,
                      10060, 59465);
}

// The allocation variants on the 5x5 grid with mobility on, so handoff
// legs exist and the guard-channel gate sees both new calls and handoffs.
// The pins were recorded while these runs were still spelled
// `policy = tuned-threshold(theta_low=3,theta_high=6)` and
// `policy = handoff-priority(guard=2)`; the keys below reproduce them.
runner::ScenarioConfig handoff_config() {
  runner::ScenarioConfig cfg = small_config();
  cfg.mean_dwell_s = 90.0;
  return cfg;
}

runner::ScenarioConfig tuned_config() {
  runner::ScenarioConfig cfg = handoff_config();
  cfg.adaptive.theta_low = 3;
  cfg.adaptive.theta_high = 6;
  return cfg;
}

runner::ScenarioConfig guarded_config(int guard) {
  runner::ScenarioConfig cfg = handoff_config();
  cfg.handoff_guard = guard;
  return cfg;
}

TEST(TraceDigest, AdaptiveTunedThresholds) {
  expect_trace_digest(tuned_config(), Scheme::kAdaptive, 0.8,
                      0xecbbd0efb1d1539full, 1458, 8468);
}

TEST(TraceDigest, BasicUpdateTunedThresholds) {
  expect_trace_digest(tuned_config(), Scheme::kBasicUpdate, 0.8,
                      0xf15f049f7c1e9087ull, 1424, 15530);
}

TEST(TraceDigest, AdaptiveHandoffGuard) {
  expect_trace_digest(guarded_config(2), Scheme::kAdaptive, 0.8,
                      0xe98c994c5bacff76ull, 1319, 5005);
}

TEST(TraceDigest, BasicUpdateHandoffGuard) {
  expect_trace_digest(guarded_config(2), Scheme::kBasicUpdate, 0.8,
                      0xa8be5d113acebe56ull, 1417, 15326);
}

// The four non-adaptive message-passing schemes through their round-abort
// paths: crash_recovery_test.cpp's cocktail (5x5, crashes, drop/dup/
// jitter, mobility, 400 ms request timeout) with one interior partition
// over 20-60 s, at rho 1.5 so that every scheme times rounds out. At the
// stock rho 0.8 advanced update never times out.
runner::ScenarioConfig abort_config() {
  runner::ScenarioConfig cfg;
  cfg.rows = 5;
  cfg.cols = 5;
  cfg.n_channels = 35;
  cfg.duration = sim::minutes(2);
  cfg.warmup = sim::seconds(15);
  cfg.seed = 23;
  cfg.fault.crash_rate_per_min = 1.0;
  cfg.fault.crash_mean_s = 2.0;
  cfg.request_timeout = sim::milliseconds(400);
  cfg.fault.drop_prob = 0.05;
  cfg.fault.dup_prob = 0.02;
  cfg.fault.jitter = sim::milliseconds(3);
  cfg.fault.partitions = {net::PartitionSpec{
      {6, 7, 8, 11, 12, 13}, sim::seconds(20), sim::seconds(60)}};
  cfg.mean_dwell_s = cfg.mean_holding_s / 2.0;
  return cfg;
}

TEST(TraceDigest, BasicSearchAbortCocktail) {
  expect_trace_digest(abort_config(), Scheme::kBasicSearch, 1.5,
                      0x230b2f3a6804e513ull, 105913, 93367, 66);
}

TEST(TraceDigest, BasicUpdateAbortCocktail) {
  expect_trace_digest(abort_config(), Scheme::kBasicUpdate, 1.5,
                      0x62945c23b0616b97ull, 250385, 219750, 461);
}

TEST(TraceDigest, AdvancedSearchAbortCocktail) {
  expect_trace_digest(abort_config(), Scheme::kAdvancedSearch, 1.5,
                      0x1863b50cc75e0278ull, 103588, 85614, 58);
}

TEST(TraceDigest, AdvancedUpdateAbortCocktail) {
  expect_trace_digest(abort_config(), Scheme::kAdvancedUpdate, 1.5,
                      0xb06b56cd857f9876ull, 100207, 85570, 10);
}

// Wider hysteresis must change a fixed-seed adaptive run; every
// non-adaptive scheme ignores the thresholds and must not move at all.
TEST(PolicyDeterminism, TunedThresholdMovesOnlyAdaptive) {
  const runner::ScenarioConfig base = handoff_config();
  const runner::ScenarioConfig tuned = tuned_config();

  sim::TraceRecorder rec_base, rec_tuned;
  const RunResult a =
      runner::run_uniform(base, Scheme::kAdaptive, 0.9, &rec_base);
  const RunResult b =
      runner::run_uniform(tuned, Scheme::kAdaptive, 0.9, &rec_tuned);
  EXPECT_EQ(a.agg.offered, b.agg.offered)
      << "the arrival process must not depend on the thresholds";
  EXPECT_NE(rec_base.events(), rec_tuned.events())
      << "wider hysteresis must change the adaptive trajectory";

  const RunResult c = runner::run_uniform(base, Scheme::kBasicUpdate, 0.9);
  const RunResult d = runner::run_uniform(tuned, Scheme::kBasicUpdate, 0.9);
  expect_same_result(c, d, "thresholds are a no-op outside adaptive");
}

// The guard-channel gate must actually bite: with a guard band reserved
// for handoffs, a fixed-seed run blocks strictly more under load than the
// ungated default.
TEST(PolicyDeterminism, HandoffPriorityGateBites) {
  const runner::ScenarioConfig base = handoff_config();
  const runner::ScenarioConfig gated = guarded_config(4);

  for (const Scheme s : {Scheme::kFca, Scheme::kAdaptive}) {
    SCOPED_TRACE(runner::scheme_name(s));
    const RunResult ungated = runner::run_uniform(base, s, 1.2);
    const RunResult guarded = runner::run_uniform(gated, s, 1.2);
    // Call arrivals do not depend on the gate; total offered *requests*
    // do (a gated-out call never lives long enough to hand off).
    EXPECT_EQ(ungated.offered_calls, guarded.offered_calls)
        << "the call arrival process must not depend on the guard";
    EXPECT_GT(guarded.agg.drop_rate(), ungated.agg.drop_rate())
        << "guard band should deny some new calls the default admits";
  }
}

}  // namespace
}  // namespace dca
