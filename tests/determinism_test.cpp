// Determinism regression: results are a pure function of the scenario —
// independent of worker thread count, and bit-identically replayable even
// with the full fault cocktail active (the fault schedule derives from
// the seed, not from host scheduling).
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

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

TEST(Determinism, SweepIsThreadCountInvariant) {
  const runner::ScenarioConfig cfg = small_config();
  const std::vector<Scheme> schemes{Scheme::kBasicSearch, Scheme::kBasicUpdate,
                                    Scheme::kAdaptive};
  const std::vector<double> rhos{0.5, 1.0};
  const auto serial = runner::sweep_uniform(cfg, schemes, rhos, /*threads=*/1);
  const auto parallel = runner::sweep_uniform(cfg, schemes, rhos, /*threads=*/8);
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    ASSERT_EQ(serial[i].scheme, parallel[i].scheme);
    ASSERT_EQ(serial[i].rho, parallel[i].rho);
    expect_same_result(serial[i].result, parallel[i].result,
                       runner::scheme_name(serial[i].scheme).c_str());
  }
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
TEST(Determinism, ShardedEngineMatchesClassicBitExactly) {
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
TEST(Determinism, ShardedEngineMatchesClassicUnderFaults) {
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

// -- trace digests pinned to fixed values --------------------------------
//
// FNV-1a-64 of trace_to_jsonl for three scenarios, recorded when the
// simulator still had a second, independently written engine and every
// engine and shard count agreed on them. Trace equality is checked
// against these constants, not against another engine.

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

void expect_trace_digest(runner::ScenarioConfig cfg, Scheme scheme, double rho,
                         std::uint64_t digest, std::size_t events) {
  for (const int shards : {1, 2, 4}) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    cfg.shards = shards;
    cfg.threads = 2;
    sim::TraceRecorder rec;
    const RunResult r = runner::run_uniform(cfg, scheme, rho, &rec);
    EXPECT_EQ(r.violations, 0u);
    EXPECT_TRUE(r.quiescent);
    EXPECT_EQ(rec.size(), events);
    EXPECT_EQ(fnv1a64(runner::trace_to_jsonl(rec.events())), digest);
  }
}

TEST(TraceDigest, AdaptiveClean) {
  expect_trace_digest(digest_config(), Scheme::kAdaptive, 0.8,
                      0x4284b13de0de75b2ull, 906);
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
  expect_trace_digest(cfg, Scheme::kAdaptive, 0.7, 0xe3cd2bd653e21909ull, 126894);
}

TEST(TraceDigest, BasicSearchMobilityJitter) {
  runner::ScenarioConfig cfg = digest_config();
  cfg.mean_dwell_s = 10.0;
  cfg.latency_jitter = sim::milliseconds(3);
  expect_trace_digest(cfg, Scheme::kBasicSearch, 0.7, 0x32e9ecf76ab10869ull,
                      10060);
}

}  // namespace
}  // namespace dca
