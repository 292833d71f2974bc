// Streaming-vs-buffered equivalence: config.stream_metrics folds call
// records and the trace out of the engine at window barriers instead of
// buffering the whole run, and the acceptance bar is *bit identity* — the
// same Aggregate doubles and the same trace byte for byte, on the golden
// scenarios the paper tables are reproduced from (Table 2's low-load
// point, Table 3's high-load sweep points) and on the engine's hard
// configurations (multi-shard, latency jitter, mobility).
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "metrics/collector.hpp"
#include "runner/experiment.hpp"
#include "sim/trace.hpp"
#include "test_util.hpp"

namespace dca {
namespace {

using runner::RunResult;
using runner::ScenarioConfig;
using runner::Scheme;

/// Shortened paper-table scenario (8x8, 70 channels): same geometry and
/// rates as the Table 1/2/3 benches, trimmed so the full matrix stays in
/// test time.
ScenarioConfig golden_config() {
  ScenarioConfig c = testutil::paper_config();
  c.duration = sim::minutes(6);
  c.warmup = sim::minutes(1);
  return c;
}

void expect_same_summary(const metrics::Summary& a, const metrics::Summary& b,
                         const char* what) {
  EXPECT_EQ(a.count(), b.count()) << what;
  EXPECT_EQ(a.mean(), b.mean()) << what;
  EXPECT_EQ(a.variance(), b.variance()) << what;
  EXPECT_EQ(a.min(), b.min()) << what;
  EXPECT_EQ(a.max(), b.max()) << what;
}

/// Bit-exact comparison of every field a metrics::Table cell can be
/// rendered from: if these all match, any table printed from the two
/// aggregates is character-identical.
void expect_same_aggregate(const metrics::Aggregate& a,
                           const metrics::Aggregate& b) {
  EXPECT_EQ(a.offered, b.offered);
  EXPECT_EQ(a.acquired, b.acquired);
  EXPECT_EQ(a.blocked, b.blocked);
  EXPECT_EQ(a.starved, b.starved);
  EXPECT_EQ(a.timed_out, b.timed_out);
  EXPECT_EQ(a.handoff_offered, b.handoff_offered);
  EXPECT_EQ(a.handoff_failures, b.handoff_failures);
  EXPECT_EQ(a.xi1, b.xi1);
  EXPECT_EQ(a.xi2, b.xi2);
  EXPECT_EQ(a.xi3, b.xi3);
  EXPECT_EQ(a.mean_update_attempts, b.mean_update_attempts);
  EXPECT_EQ(a.mean_borrowing_neighbors, b.mean_borrowing_neighbors);
  EXPECT_EQ(a.mean_searching_neighbors, b.mean_searching_neighbors);
  expect_same_summary(a.attempts, b.attempts, "attempts");
  expect_same_summary(a.delay_us, b.delay_us, "delay_us");
  expect_same_summary(a.delay_in_T, b.delay_in_T, "delay_in_T");
  expect_same_summary(a.messages_per_call, b.messages_per_call,
                      "messages_per_call");
  expect_same_summary(a.messages_acquired, b.messages_acquired,
                      "messages_acquired");
}

void expect_equivalent_runs(const ScenarioConfig& base, Scheme scheme,
                            double rho) {
  ScenarioConfig buffered = base;
  buffered.stream_metrics = false;
  ScenarioConfig streaming = base;
  streaming.stream_metrics = true;

  const RunResult rb = runner::run_uniform(buffered, scheme, rho);
  const RunResult rs = runner::run_uniform(streaming, scheme, rho);

  expect_same_aggregate(rb.agg, rs.agg);
  EXPECT_EQ(rb.total_messages, rs.total_messages);
  EXPECT_EQ(rb.offered_calls, rs.offered_calls);
  EXPECT_EQ(rb.carried_erlangs, rs.carried_erlangs);
  EXPECT_EQ(rb.violations, rs.violations);
  EXPECT_EQ(rb.quiescent, rs.quiescent);
  EXPECT_EQ(rb.messages_by_kind, rs.messages_by_kind);
}

TEST(StreamingMetrics, GoldenLowLoadPointMatchesBuffered) {
  // Table 2's premise: uniformly low load, all four paper schemes.
  const ScenarioConfig cfg = golden_config();
  for (const Scheme s : runner::kPaperSchemes) {
    SCOPED_TRACE(runner::scheme_name(s));
    expect_equivalent_runs(cfg, s, 0.1);
  }
}

TEST(StreamingMetrics, GoldenHighLoadPointsMatchBuffered) {
  // Table 3's observed-extremes sweep, trimmed to its endpoints where
  // blocking/starvation and heavy message traffic actually occur.
  const ScenarioConfig cfg = golden_config();
  for (const double rho : {0.4, 0.95}) {
    SCOPED_TRACE(rho);
    expect_equivalent_runs(cfg, Scheme::kAdaptive, rho);
    expect_equivalent_runs(cfg, Scheme::kBasicUpdate, rho);
  }
}

TEST(StreamingMetrics, ShardedJitteredMobileRunMatchesBuffered) {
  // The engine's hard mode all at once: 4 shards, per-link latency
  // jitter, and mobility (handoff legs exercise the hop-serial tally
  // path that base serials never touch).
  ScenarioConfig cfg = golden_config();
  cfg.shards = 4;
  cfg.latency_jitter = sim::milliseconds(2);
  cfg.mean_dwell_s = 90.0;
  expect_equivalent_runs(cfg, Scheme::kAdaptive, 0.9);
}

TEST(StreamingMetrics, StreamedTraceIsByteIdenticalAndConformant) {
  ScenarioConfig cfg = golden_config();
  cfg.duration = sim::minutes(3);
  cfg.shards = 4;
  cfg.mean_dwell_s = 120.0;

  ScenarioConfig buffered = cfg;
  sim::TraceRecorder rec_buf;
  const RunResult rb = runner::run_uniform(buffered, Scheme::kAdaptive, 0.9,
                                           &rec_buf);

  ScenarioConfig streaming = cfg;
  streaming.stream_metrics = true;
  sim::TraceRecorder rec_str;  // no sink: buffers the streamed emissions
  const RunResult rs = runner::run_uniform(streaming, Scheme::kAdaptive, 0.9,
                                           &rec_str);

  // Streaming emits at fold boundaries, buffered at run end — the merged
  // event sequence must be identical event for event.
  EXPECT_EQ(rec_buf.events(), rec_str.events());
  expect_same_aggregate(rb.agg, rs.agg);

  // With a trace attached, streaming mode replays it through the
  // in-engine conformance checker; the buffered path does not.
  EXPECT_TRUE(rs.conformance_checked);
  EXPECT_EQ(rs.conformance_violations, 0u);
  EXPECT_TRUE(rs.conformance_ok());
  EXPECT_FALSE(rb.conformance_checked);
}

TEST(StreamingMetrics, SmallGridSingleShardStreams) {
  // shards == 1 with stream_metrics folds at window barriers too; the
  // result must still match the buffered run bit for bit.
  const ScenarioConfig cfg = testutil::small_config();
  expect_equivalent_runs(cfg, Scheme::kAdaptive, 0.8);
  expect_equivalent_runs(cfg, Scheme::kBasicSearch, 0.8);
}

TEST(StreamingMetrics, PeakRssIsReported) {
  ScenarioConfig cfg = testutil::small_config();
  cfg.duration = sim::minutes(2);
  cfg.stream_metrics = true;
  const RunResult r = runner::run_uniform(cfg, Scheme::kAdaptive, 0.5);
#ifdef __linux__
  EXPECT_GT(r.peak_rss_bytes, 0u);
#endif
}

}  // namespace
}  // namespace dca
