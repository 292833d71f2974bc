// Shards-1-vs-N equivalence battery for the two knobs sharded execution
// historically rejected: latency jitter and mobility/handoff. The
// acceptance bar is full-trace EXPECT_EQ against the one-shard run at
// every shard/thread count — plus migration-specific property tests:
// every HANDOFF_LEAVE pairs with exactly one HANDOFF_RECV, no call is
// billed twice, and the usage integral is conserved across migration.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "runner/conformance.hpp"
#include "runner/experiment.hpp"
#include "sim/trace.hpp"
#include "traffic/mobility.hpp"

namespace dca {
namespace {

using runner::RunResult;
using runner::Scheme;

runner::ScenarioConfig base_config() {
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
  EXPECT_EQ(a.agg.handoff_offered, b.agg.handoff_offered);
  EXPECT_EQ(a.agg.handoff_failures, b.agg.handoff_failures);
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

/// Runs `cfg` at one shard, then at shards 1/2/4/8 x threads 1/4, and
/// demands bit-identical results and full traces everywhere. Returns the
/// one-shard trace for further property checks.
std::vector<sim::TraceEvent> battery(const runner::ScenarioConfig& cfg,
                                     Scheme scheme, double rho) {
  sim::TraceRecorder one_shard_rec;
  const RunResult one_shard = runner::run_uniform(cfg, scheme, rho, &one_shard_rec);
  EXPECT_TRUE(one_shard.quiescent);
  EXPECT_EQ(one_shard.violations, 0u);
  for (const int shards : {1, 2, 4, 8}) {
    for (const int threads : {1, 4}) {
      SCOPED_TRACE("shards=" + std::to_string(shards) +
                   " threads=" + std::to_string(threads));
      runner::ScenarioConfig cs = cfg;
      cs.shards = shards;
      cs.threads = threads;
      EXPECT_EQ(runner::validate_scenario(cs), "");
      sim::TraceRecorder rec;
      const RunResult r = runner::run_uniform(cs, scheme, rho, &rec);
      expect_same_result(one_shard, r, "shards=1 vs N");
      EXPECT_EQ(one_shard_rec.events(), rec.events())
          << "full trace must be bit-identical at shards=" << shards
          << " threads=" << threads;
    }
  }
  return one_shard_rec.events();
}

// ---------------------------------------------------------------------------
// Validation: the configurations are legal now.
// ---------------------------------------------------------------------------

TEST(HandoffShardValidation, JitterAndMobilityAreLegalWithShards) {
  auto cfg = base_config();
  cfg.shards = 4;
  cfg.latency_jitter = sim::milliseconds(2);
  EXPECT_EQ(runner::validate_scenario(cfg), "");
  cfg.shards = 8;
  cfg.mean_dwell_s = 45.0;
  EXPECT_EQ(runner::validate_scenario(cfg), "");
}

TEST(HandoffShardValidation, StillTrueConstraintsRemain) {
  auto cfg = base_config();
  cfg.shards = 4;
  cfg.latency = 0;
  EXPECT_NE(runner::validate_scenario(cfg), "") << "zero latency, no floor";
  cfg = base_config();
  cfg.latency_jitter = -1;
  EXPECT_NE(runner::validate_scenario(cfg), "");
  cfg = base_config();
  cfg.mean_dwell_s = -1.0;
  EXPECT_NE(runner::validate_scenario(cfg), "");
  cfg = base_config();
  cfg.shards = cfg.rows * cfg.cols + 1;
  EXPECT_NE(runner::validate_scenario(cfg), "") << "more shards than cells";
}

// ---------------------------------------------------------------------------
// The equivalence battery.
// ---------------------------------------------------------------------------

TEST(HandoffShardDeterminism, JitterOnlyMatchesOneShard) {
  auto cfg = base_config();
  cfg.latency_jitter = sim::milliseconds(2);
  for (const Scheme s : {Scheme::kBasicSearch, Scheme::kAdaptive}) {
    SCOPED_TRACE(runner::scheme_name(s));
    battery(cfg, s, 0.8);
  }
}

TEST(HandoffShardDeterminism, MobilityOnlyMatchesOneShard) {
  auto cfg = base_config();
  cfg.mean_dwell_s = 45.0;
  for (const Scheme s : {Scheme::kFca, Scheme::kAdaptive}) {
    SCOPED_TRACE(runner::scheme_name(s));
    const auto trace = battery(cfg, s, 0.8);
    // The scenario must actually exercise migration, or the battery
    // proves nothing.
    std::size_t leaves = 0;
    for (const auto& e : trace) {
      if (e.kind == sim::TraceKind::kHandoffLeave) ++leaves;
    }
    EXPECT_GT(leaves, 0u) << "no handoffs happened; dwell too long?";
  }
}

TEST(HandoffShardDeterminism, JitterMobilityFaultCocktailMatchesOneShard) {
  auto cfg = base_config();
  cfg.duration = sim::minutes(1);
  cfg.warmup = sim::seconds(10);
  cfg.latency_jitter = sim::milliseconds(2);
  cfg.mean_dwell_s = 30.0;
  cfg.fault.drop_prob = 0.08;
  cfg.fault.dup_prob = 0.05;
  cfg.fault.jitter = sim::milliseconds(3);
  cfg.fault.pause_rate_per_min = 0.5;
  cfg.fault.pause_mean_s = 1.0;
  cfg.request_timeout = sim::milliseconds(400);
  for (const Scheme s : {Scheme::kBasicSearch, Scheme::kAdaptive}) {
    SCOPED_TRACE(runner::scheme_name(s));
    battery(cfg, s, 0.8);
  }
}

// ---------------------------------------------------------------------------
// Migration property tests (on a sharded run's merged trace).
// ---------------------------------------------------------------------------

TEST(HandoffShardProperties, EveryLeaveHasExactlyOneRecv) {
  auto cfg = base_config();
  cfg.mean_dwell_s = 30.0;
  cfg.shards = 4;
  cfg.threads = 4;
  sim::TraceRecorder rec;
  const RunResult r = runner::run_uniform(cfg, Scheme::kAdaptive, 0.8, &rec);
  EXPECT_TRUE(r.quiescent);

  struct Leave {
    sim::SimTime t = 0;
    std::int32_t dest = -1;
  };
  std::unordered_map<std::uint64_t, Leave> in_flight;
  std::size_t pairs = 0;
  for (const auto& e : rec.events()) {
    if (e.kind == sim::TraceKind::kHandoffLeave) {
      const bool fresh =
          in_flight.emplace(e.serial, Leave{e.t, e.peer}).second;
      EXPECT_TRUE(fresh) << "serial " << e.serial << " left twice";
    } else if (e.kind == sim::TraceKind::kHandoffRecv) {
      const auto it = in_flight.find(e.serial);
      ASSERT_NE(it, in_flight.end())
          << "recv without leave, serial " << e.serial;
      EXPECT_EQ(e.cell, it->second.dest) << "handoff misrouted";
      EXPECT_GT(e.t, it->second.t) << "handoff arrived instantaneously";
      in_flight.erase(it);
      ++pairs;
    }
  }
  EXPECT_TRUE(in_flight.empty())
      << in_flight.size() << " handoff(s) lost in migration";
  EXPECT_GT(pairs, 0u) << "scenario exercised no migration";
}

TEST(HandoffShardProperties, NoSerialIsRequestedOrBilledTwice) {
  auto cfg = base_config();
  cfg.mean_dwell_s = 30.0;
  cfg.shards = 4;
  cfg.threads = 2;
  sim::TraceRecorder rec;
  const RunResult r = runner::run_uniform(cfg, Scheme::kAdaptive, 0.8, &rec);
  EXPECT_TRUE(r.quiescent);

  // A serial identifies one acquisition attempt of one call leg: it must
  // open at most one request and at most one acquire, and handoff legs
  // (hop > 0) must reuse the call id of their origin leg.
  std::unordered_set<std::uint64_t> requested;
  std::unordered_set<std::uint64_t> acquired;
  std::size_t handoff_requests = 0;
  for (const auto& e : rec.events()) {
    if (e.kind == sim::TraceKind::kRequest) {
      EXPECT_TRUE(requested.insert(e.serial).second)
          << "serial " << e.serial << " requested twice (double billing)";
      if (traffic::mobility::hop_of(e.serial) > 0) {
        ++handoff_requests;
        EXPECT_NE(traffic::mobility::call_of(e.serial), 0u);
      }
    } else if (e.kind == sim::TraceKind::kAcquire && e.serial != 0) {
      EXPECT_TRUE(acquired.insert(e.serial).second)
          << "serial " << e.serial << " acquired twice";
    }
  }
  EXPECT_GT(handoff_requests, 0u);
  EXPECT_EQ(r.agg.offered, r.agg.acquired + r.agg.blocked + r.agg.starved +
                               r.agg.timed_out);
}

TEST(HandoffShardProperties, MergedTracePassesConformanceUnderMigration) {
  auto cfg = base_config();
  cfg.latency_jitter = sim::milliseconds(2);
  cfg.mean_dwell_s = 30.0;
  cfg.shards = 8;
  cfg.threads = 4;
  sim::TraceRecorder rec;
  const RunResult r = runner::run_uniform(cfg, Scheme::kAdaptive, 0.8, &rec);
  EXPECT_TRUE(r.quiescent);
  const cell::HexGrid grid(cfg.rows, cfg.cols, cfg.interference_radius,
                           cfg.wrap);
  const auto report = runner::check_trace(grid, cfg.n_channels, rec.events());
  EXPECT_TRUE(report.ok()) << report.to_string();
}

TEST(HandoffShardProperties, UsageIntegralConservedAcrossMigration) {
  // The usage integral (carried Erlangs) must not change when calls
  // migrate across shard boundaries: compare a heavily-sharded mobile run
  // against one shard, and also require that mobility only ever *lowers*
  // carried traffic relative to no mobility (handoff gaps and failures
  // shed usage, never mint it).
  auto cfg = base_config();
  cfg.mean_dwell_s = 30.0;
  const RunResult one_shard = runner::run_uniform(cfg, Scheme::kAdaptive, 0.8);
  runner::ScenarioConfig cs = cfg;
  cs.shards = 8;
  cs.threads = 4;
  const RunResult sharded = runner::run_uniform(cs, Scheme::kAdaptive, 0.8);
  EXPECT_EQ(one_shard.carried_erlangs, sharded.carried_erlangs);
  EXPECT_GT(sharded.agg.handoff_offered, 0u);

  runner::ScenarioConfig still = base_config();
  const RunResult pinned = runner::run_uniform(still, Scheme::kAdaptive, 0.8);
  EXPECT_LE(sharded.carried_erlangs, pinned.carried_erlangs * 1.05);
}

}  // namespace
}  // namespace dca
