// Crash-recovery fault model: determinism across shard counts, availability
// accounting, graceful degradation, and conformance through crashes.
//
// The acceptance bar for the fault model is the same as for every other
// subsystem: simulation outputs are a pure function of the scenario. A
// crash schedule, a partition timeline, and the resync protocol all ride
// on seed-derived streams and canonically keyed events, so any shard count
// must reproduce the one-shard run bit for bit even while cells crash
// mid-search and partitions sever the control plane.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "runner/conformance.hpp"
#include "runner/experiment.hpp"
#include "runner/world.hpp"
#include "sim/trace.hpp"
#include "traffic/profile.hpp"

namespace dca {
namespace {

using runner::RunResult;
using runner::Scheme;

runner::ScenarioConfig crashy_config() {
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
  return cfg;
}

// The full chaos cocktail: crashes, partitions, lossy jittery transport,
// and mobility, all at once.
runner::ScenarioConfig cocktail_config() {
  runner::ScenarioConfig cfg = crashy_config();
  cfg.fault.drop_prob = 0.05;
  cfg.fault.dup_prob = 0.02;
  cfg.fault.jitter = sim::milliseconds(3);
  cfg.fault.partitions = {
      net::PartitionSpec{{0, 1, 5}, sim::seconds(20), sim::seconds(35)},
      net::PartitionSpec{{24}, sim::seconds(50), sim::seconds(60)}};
  cfg.mean_dwell_s = cfg.mean_holding_s / 2.0;
  return cfg;
}

std::uint64_t count_kind(const sim::TraceRecorder& rec, sim::TraceKind k) {
  std::uint64_t n = 0;
  for (const sim::TraceEvent& e : rec.events())
    if (e.kind == k) ++n;
  return n;
}

void expect_same_result(const RunResult& a, const RunResult& b,
                        const char* what) {
  SCOPED_TRACE(what);
  EXPECT_EQ(a.agg.offered, b.agg.offered);
  EXPECT_EQ(a.agg.acquired, b.agg.acquired);
  EXPECT_EQ(a.agg.blocked, b.agg.blocked);
  EXPECT_EQ(a.agg.starved, b.agg.starved);
  EXPECT_EQ(a.agg.timed_out, b.agg.timed_out);
  EXPECT_EQ(a.agg.downed, b.agg.downed);
  EXPECT_EQ(a.total_messages, b.total_messages);
  EXPECT_EQ(a.offered_calls, b.offered_calls);
  EXPECT_EQ(a.violations, b.violations);
  EXPECT_EQ(a.carried_erlangs, b.carried_erlangs);  // bit-exact, not near
  EXPECT_EQ(a.agg.delay_in_T.mean(), b.agg.delay_in_T.mean());
  EXPECT_EQ(a.agg.messages_per_call.mean(), b.agg.messages_per_call.mean());
  EXPECT_EQ(a.messages_by_kind, b.messages_by_kind);
  EXPECT_EQ(a.quiescent, b.quiescent);
  EXPECT_EQ(a.transport, b.transport);
  EXPECT_EQ(a.availability, b.availability);
}

// The tentpole guarantee: the crash/partition/resync machinery is
// shard-invariant — shards=1 vs shards=2/4 x threads=1/4, full structured
// trace compared event for event, with the entire cocktail active.
TEST(CrashRecovery, ShardedEngineMatchesOneShardThroughCrashes) {
  const runner::ScenarioConfig cfg = cocktail_config();
  for (const Scheme s : {Scheme::kBasicSearch, Scheme::kAdaptive}) {
    SCOPED_TRACE(runner::scheme_name(s));
    sim::TraceRecorder rec1;
    const RunResult r1 = runner::run_uniform(cfg, s, 0.8, &rec1);
    ASSERT_GT(count_kind(rec1, sim::TraceKind::kCrash), 0u)
        << "the cocktail must actually crash cells";
    ASSERT_GT(count_kind(rec1, sim::TraceKind::kResyncDone), 0u);

    for (const int shards : {2, 4}) {
      for (const int threads : {1, 4}) {
        SCOPED_TRACE("shards=" + std::to_string(shards) +
                     " threads=" + std::to_string(threads));
        runner::ScenarioConfig cs = cfg;
        cs.shards = shards;
        cs.threads = threads;
        sim::TraceRecorder recs;
        const RunResult rs = runner::run_uniform(cs, s, 0.8, &recs);
        expect_same_result(r1, rs, "shards=1 vs N");
        EXPECT_EQ(rec1.events(), recs.events()) << "full merged trace";
      }
    }
  }
}

TEST(CrashRecovery, CrashScheduleReplaysBitIdentically) {
  const runner::ScenarioConfig cfg = cocktail_config();
  sim::TraceRecorder rec_a, rec_b;
  const RunResult a = runner::run_uniform(cfg, Scheme::kAdaptive, 0.8, &rec_a);
  const RunResult b = runner::run_uniform(cfg, Scheme::kAdaptive, 0.8, &rec_b);
  expect_same_result(a, b, "replay");
  EXPECT_EQ(rec_a.events(), rec_b.events());
}

TEST(CrashRecovery, AvailabilityAccountingIsConsistent) {
  const runner::ScenarioConfig cfg = crashy_config();
  const RunResult r = runner::run_uniform(cfg, Scheme::kAdaptive, 0.7);
  const metrics::Availability& av = r.availability;
  EXPECT_GT(av.crashes, 0u);
  EXPECT_GT(av.resyncs, 0u);
  // A crash can interrupt a resync (which then never completes), so
  // resyncs can trail crashes — but never exceed them.
  EXPECT_LE(av.resyncs, av.crashes);
  EXPECT_GT(av.down_us, 0u);
  EXPECT_GT(av.resync_us, 0u);
  EXPECT_GE(av.resync_rounds, av.resyncs);  // every resync takes >= 1 wave
  EXPECT_GE(av.max_resync_rounds, 1u);
  const double uptime =
      av.uptime_fraction(cfg.duration, cfg.rows * cfg.cols);
  EXPECT_LT(uptime, 1.0);
  EXPECT_GT(uptime, 0.0);
  EXPECT_GT(av.mean_time_to_resync_s(), 0.0);
  // Arrivals at down cells are rejected, not lost: the downed outcome
  // must show up in the aggregate.
  EXPECT_GT(r.agg.downed, 0u);
  EXPECT_EQ(r.violations, 0u);
  EXPECT_TRUE(r.quiescent);
}

// A run stopped mid-outage charges the open outage, and any open resync,
// up to the stop instant: availability counts every cell-second, not only
// the intervals that closed before the run ended.
TEST(CrashRecovery, RunStoppedMidOutageChargesOpenIntervals) {
  const runner::ScenarioConfig cfg = crashy_config();
  const auto n_cells = static_cast<std::size_t>(cfg.rows * cfg.cols);
  sim::TraceRecorder full;
  (void)runner::run_uniform(cfg, Scheme::kAdaptive, 0.7, &full);
  // Stop halfway through the first outage.
  sim::SimTime crash_at = -1;
  sim::SimTime stop = -1;
  std::int32_t down_cell = -1;
  for (const sim::TraceEvent& e : full.events()) {
    if (down_cell < 0 && e.kind == sim::TraceKind::kCrash) {
      down_cell = e.cell;
      crash_at = e.t;
    } else if (down_cell >= 0 && e.cell == down_cell &&
               e.kind == sim::TraceKind::kRestart) {
      stop = crash_at + (e.t - crash_at) / 2;
      break;
    }
  }
  ASSERT_GT(stop, crash_at) << "the scenario must crash and restart a cell";

  const traffic::UniformProfile load(cfg.arrival_rate_for_load(0.7));
  runner::World w(cfg, Scheme::kAdaptive, &load);
  sim::TraceRecorder part;
  w.set_recorder(&part);
  w.run_until(stop);
  const RunResult r = w.result();

  // The same charges, replayed from the partial run's own trace.
  std::vector<sim::SimTime> crashed(n_cells, -1);
  std::vector<sim::SimTime> restarted(n_cells, -1);
  std::uint64_t closed_us = 0;
  std::uint64_t down_us = 0;
  std::uint64_t resync_us = 0;
  for (const sim::TraceEvent& e : part.events()) {
    const auto c = static_cast<std::size_t>(e.cell);
    if (e.kind == sim::TraceKind::kCrash) {
      crashed[c] = e.t;
      restarted[c] = -1;  // an interrupted resync is never charged
    } else if (e.kind == sim::TraceKind::kRestart) {
      down_us += static_cast<std::uint64_t>(e.t - crashed[c]);
      crashed[c] = -1;
      restarted[c] = e.t;
    } else if (e.kind == sim::TraceKind::kResyncDone) {
      resync_us += static_cast<std::uint64_t>(e.t - restarted[c]);
      restarted[c] = -1;
    }
  }
  closed_us = down_us + resync_us;
  for (std::size_t c = 0; c < n_cells; ++c) {
    if (crashed[c] >= 0) down_us += static_cast<std::uint64_t>(stop - crashed[c]);
    if (restarted[c] >= 0) resync_us += static_cast<std::uint64_t>(stop - restarted[c]);
  }
  ASSERT_EQ(crashed[static_cast<std::size_t>(down_cell)], crash_at);
  EXPECT_EQ(r.availability.down_us, down_us);
  EXPECT_EQ(r.availability.resync_us, resync_us);
  EXPECT_GE(r.availability.down_us + r.availability.resync_us,
            closed_us + static_cast<std::uint64_t>(stop - crash_at));

  const double total = static_cast<double>(stop) * static_cast<double>(n_cells);
  const double uptime = r.availability.uptime_fraction(stop, cfg.rows * cfg.cols);
  EXPECT_DOUBLE_EQ(uptime, 1.0 - static_cast<double>(down_us + resync_us) / total);
  EXPECT_LT(uptime, 1.0 - static_cast<double>(closed_us) / total);
}

// Regression: with the crash knobs at zero the fault model must be
// completely inert — no crash events, zero availability accounting, and
// no downed outcomes.
TEST(CrashRecovery, CrashFreeRunsAreUntouched) {
  runner::ScenarioConfig cfg = crashy_config();
  cfg.fault.crash_rate_per_min = 0.0;
  cfg.fault.crash_mean_s = 0.0;
  sim::TraceRecorder rec;
  const RunResult r = runner::run_uniform(cfg, Scheme::kAdaptive, 0.7, &rec);
  EXPECT_EQ(r.availability, metrics::Availability{});
  EXPECT_EQ(r.agg.downed, 0u);
  EXPECT_EQ(count_kind(rec, sim::TraceKind::kCrash), 0u);
  EXPECT_EQ(count_kind(rec, sim::TraceKind::kRestart), 0u);
  EXPECT_EQ(count_kind(rec, sim::TraceKind::kResyncDone), 0u);
}

// Reuse-distance and the rest of the invariant suite hold through every
// crash, restart, and partition; the checker's crash/resync tallies must
// agree with the trace.
TEST(CrashRecovery, ConformanceHoldsThroughTheCocktail) {
  const runner::ScenarioConfig cfg = cocktail_config();
  for (const Scheme s : {Scheme::kBasicSearch, Scheme::kBasicUpdate,
                         Scheme::kAdvancedUpdate, Scheme::kAdvancedSearch,
                         Scheme::kAdaptive}) {
    SCOPED_TRACE(runner::scheme_name(s));
    sim::TraceRecorder rec;
    const RunResult r = runner::run_uniform(cfg, s, 0.8, &rec);
    EXPECT_EQ(r.violations, 0u);
    EXPECT_TRUE(r.quiescent);
    const cell::HexGrid grid(cfg.rows, cfg.cols, cfg.interference_radius,
                             cfg.wrap);
    runner::ConformanceReport rep =
        runner::check_trace(grid, cfg.n_channels, rec.events());
    for (const runner::ConformanceViolation& v : rep.violations)
      ADD_FAILURE() << "[" << v.rule << "] t=" << v.t << " " << v.detail;
    EXPECT_EQ(rep.crashes, count_kind(rec, sim::TraceKind::kCrash));
    EXPECT_EQ(rep.resyncs, count_kind(rec, sim::TraceKind::kResyncDone));
    EXPECT_GT(rep.crashes, 0u);
  }
}

// A partition without crashes: severed frames show up as drops, the
// reliable transport rides out the outage, and the run still drains and
// matches across shard counts. Basic search asks every interference neighbour
// on every arrival, so cross-cut frames are guaranteed (adaptive would
// sit in local mode at this load and never touch the cut).
TEST(CrashRecovery, PartitionSeversAndHeals) {
  runner::ScenarioConfig cfg = crashy_config();
  cfg.fault.crash_rate_per_min = 0.0;
  cfg.fault.crash_mean_s = 0.0;
  cfg.fault.partitions = {
      net::PartitionSpec{{0, 1, 5, 6}, sim::seconds(20), sim::seconds(40)}};
  sim::TraceRecorder rec1;
  const RunResult r1 =
      runner::run_uniform(cfg, Scheme::kBasicSearch, 0.8, &rec1);
  EXPECT_GT(r1.transport.frames_dropped, 0u) << "the partition must sever";
  EXPECT_GT(r1.transport.retransmissions, 0u) << "and the RTO must resend";
  EXPECT_EQ(r1.violations, 0u);
  EXPECT_TRUE(r1.quiescent);
  EXPECT_EQ(r1.availability, metrics::Availability{});

  runner::ScenarioConfig cs = cfg;
  cs.shards = 4;
  cs.threads = 2;
  sim::TraceRecorder rec4;
  const RunResult r4 =
      runner::run_uniform(cs, Scheme::kBasicSearch, 0.8, &rec4);
  expect_same_result(r1, r4, "partition, shards=1 vs N");
  EXPECT_EQ(rec1.events(), rec4.events());
}

}  // namespace
}  // namespace dca
