// Randomized-scenario stress: generate many short random configurations
// (grid shape, topology, radius/plan, spectrum, load, latency model,
// mobility, scheme) from a seeded stream and require the universal
// invariants on every one. This catches interactions the hand-written
// scenarios never construct.
#include <gtest/gtest.h>

#include <algorithm>

#include "runner/experiment.hpp"
#include "sim/random.hpp"
#include "test_util.hpp"

namespace dca {
namespace {

using runner::RunResult;
using runner::Scheme;

struct RandomScenario {
  runner::ScenarioConfig cfg;
  Scheme scheme = Scheme::kFca;
  double rho = 0.5;
};

RandomScenario draw(sim::RngStream& rng) {
  RandomScenario s;
  // Topology: bounded grids of assorted shapes; occasionally the 14x14
  // torus (the only wrap shape valid for cluster 7).
  if (rng.bernoulli(0.25)) {
    s.cfg.rows = 14;
    s.cfg.cols = 14;
    s.cfg.wrap = cell::Wrap::kToroidal;
  } else {
    s.cfg.rows = static_cast<int>(rng.uniform_int(3, 9));
    s.cfg.cols = static_cast<int>(rng.uniform_int(3, 9));
    s.cfg.wrap = cell::Wrap::kBounded;
  }
  // Plan: cluster 7 at radius 2, cluster 3 at radius 1, or greedy at
  // radius 1..3 (greedy only on bounded grids — wrapped greedy is valid
  // too but needs the torus constraint checked; keep the simple split).
  const int plan_kind = static_cast<int>(rng.uniform_int(0, 2));
  if (plan_kind == 0) {
    s.cfg.interference_radius = 2;
    s.cfg.cluster = 7;
    s.cfg.greedy_plan = false;
  } else if (plan_kind == 1 && s.cfg.wrap == cell::Wrap::kBounded) {
    s.cfg.interference_radius = 1;
    s.cfg.cluster = 3;
    s.cfg.greedy_plan = false;
  } else {
    s.cfg.interference_radius =
        s.cfg.wrap == cell::Wrap::kToroidal
            ? 2
            : static_cast<int>(rng.uniform_int(1, 3));
    s.cfg.greedy_plan = true;
  }
  s.cfg.n_channels = static_cast<int>(rng.uniform_int(14, 80));
  s.cfg.mean_holding_s = rng.uniform(20.0, 120.0);
  s.cfg.latency = rng.uniform_int(1000, 50'000);  // 1..50 ms
  if (rng.bernoulli(0.4)) s.cfg.latency_jitter = s.cfg.latency / 2;
  if (rng.bernoulli(0.3)) s.cfg.mean_dwell_s = rng.uniform(20.0, 120.0);
  s.cfg.duration = sim::minutes(3);
  s.cfg.warmup = 0;
  s.cfg.seed = rng.uniform_int(1, 1 << 30);
  // Engine: mostly one shard, but a healthy share of sharded runs — legal
  // in combination with jitter and mobility drawn above.
  if (rng.bernoulli(0.4)) {
    const int max_shards = std::min(8, s.cfg.rows * s.cfg.cols);
    s.cfg.shards = static_cast<int>(rng.uniform_int(2, max_shards));
    s.cfg.threads = static_cast<int>(rng.uniform_int(0, 4));
  }
  s.cfg.max_update_attempts = static_cast<int>(rng.uniform_int(1, 12));
  s.cfg.update_pick = static_cast<proto::ChannelPick>(rng.uniform_int(0, 2));
  // Adaptive thresholds scaled to the (smallest possible) primary pool;
  // occasionally unreachable theta_high (permanent borrowing) on purpose.
  s.cfg.adaptive.theta_low = 1;
  s.cfg.adaptive.theta_high = static_cast<int>(rng.uniform_int(2, 4));
  s.cfg.adaptive.alpha = static_cast<int>(rng.uniform_int(1, 5));
  s.cfg.adaptive.strict_fig4 = rng.bernoulli(0.5);
  s.cfg.adaptive.use_best_heuristic = rng.bernoulli(0.8);
  s.cfg.adaptive.repack = rng.bernoulli(0.5);

  const Scheme schemes[] = {Scheme::kFca,            Scheme::kBasicSearch,
                            Scheme::kBasicUpdate,    Scheme::kAdvancedUpdate,
                            Scheme::kAdvancedSearch, Scheme::kAdaptive};
  s.scheme = schemes[rng.pick_index(std::size(schemes))];
  s.rho = rng.uniform(0.1, 1.3);  // including overload
  return s;
}

TEST(FuzzScenario, InvariantsHoldOnRandomConfigurations) {
  sim::RngStream rng(0xF022ED);
  for (int trial = 0; trial < 120; ++trial) {
    const RandomScenario s = draw(rng);
    const RunResult r = runner::run_uniform(s.cfg, s.scheme, s.rho);
    SCOPED_TRACE(testing::Message()
                 << "trial " << trial << " scheme "
                 << runner::scheme_name(s.scheme) << " grid " << s.cfg.rows << "x"
                 << s.cfg.cols << (s.cfg.wrap == cell::Wrap::kToroidal ? " torus" : "")
                 << " radius " << s.cfg.interference_radius
                 << (s.cfg.greedy_plan ? " greedy" : " cluster") << " channels "
                 << s.cfg.n_channels << " rho " << s.rho << " seed "
                 << s.cfg.seed);
    EXPECT_EQ(r.violations, 0u);
    EXPECT_TRUE(r.quiescent);
    EXPECT_EQ(r.agg.offered, r.agg.acquired + r.agg.blocked + r.agg.starved);
    EXPECT_GE(r.agg.delay_us.min(), 0.0);
  }
}

TEST(FuzzScenario, RandomConfigurationsReplayDeterministically) {
  sim::RngStream rng(0xD373C7);
  for (int trial = 0; trial < 10; ++trial) {
    const RandomScenario s = draw(rng);
    const RunResult a = runner::run_uniform(s.cfg, s.scheme, s.rho);
    const RunResult b = runner::run_uniform(s.cfg, s.scheme, s.rho);
    EXPECT_EQ(a.executed_events, b.executed_events) << "trial " << trial;
    EXPECT_EQ(a.total_messages, b.total_messages) << "trial " << trial;
  }
}

TEST(FuzzScenario, ShardedMatchesClassicOnRandomConfigurations) {
  // Shard-count equivalence under fuzzing: random scenarios — with jitter
  // and mobility forced on frequently — must produce bit-identical results
  // and traces at one shard and at several ("Classic" in the test name is
  // the one-shard reference).
  sim::RngStream r2(0xEC1D3);
  for (int trial = 0; trial < 12; ++trial) {
    RandomScenario s = draw(r2);
    if (r2.bernoulli(0.6)) s.cfg.latency_jitter = s.cfg.latency / 2;
    if (r2.bernoulli(0.6)) s.cfg.mean_dwell_s = r2.uniform(20.0, 90.0);
    SCOPED_TRACE(testing::Message()
                 << "trial " << trial << " scheme "
                 << runner::scheme_name(s.scheme) << " grid " << s.cfg.rows
                 << "x" << s.cfg.cols << " jitter " << s.cfg.latency_jitter
                 << " dwell " << s.cfg.mean_dwell_s << " seed " << s.cfg.seed);

    runner::ScenarioConfig one_shard_cfg = s.cfg;
    one_shard_cfg.shards = 1;
    sim::TraceRecorder rec_one_shard;
    const RunResult a = runner::run_uniform(one_shard_cfg, s.scheme, s.rho,
                                            &rec_one_shard);

    runner::ScenarioConfig sharded_cfg = s.cfg;
    const int max_shards = std::min(8, sharded_cfg.rows * sharded_cfg.cols);
    sharded_cfg.shards = static_cast<int>(r2.uniform_int(2, max_shards));
    sharded_cfg.threads = static_cast<int>(r2.uniform_int(0, 4));
    sim::TraceRecorder rec_sharded;
    const RunResult b = runner::run_uniform(sharded_cfg, s.scheme, s.rho,
                                            &rec_sharded);

    EXPECT_EQ(a.executed_events, b.executed_events);
    EXPECT_EQ(a.total_messages, b.total_messages);
    EXPECT_EQ(a.offered_calls, b.offered_calls);
    EXPECT_EQ(a.agg.offered, b.agg.offered);
    EXPECT_EQ(a.agg.acquired, b.agg.acquired);
    EXPECT_EQ(a.agg.handoff_offered, b.agg.handoff_offered);
    EXPECT_EQ(a.agg.handoff_failures, b.agg.handoff_failures);
    EXPECT_EQ(a.agg.mean_borrowing_neighbors, b.agg.mean_borrowing_neighbors);
    EXPECT_EQ(a.agg.mean_searching_neighbors, b.agg.mean_searching_neighbors);
    EXPECT_EQ(a.carried_erlangs, b.carried_erlangs);
    EXPECT_EQ(a.violations, 0u);
    EXPECT_EQ(b.violations, 0u);
    EXPECT_EQ(rec_one_shard.events(), rec_sharded.events())
        << "engine traces diverged at shards=" << sharded_cfg.shards;
  }
}

/// Layers a random fault cocktail (and the request timeout it requires)
/// on top of a base scenario draw.
RandomScenario draw_faulty(sim::RngStream& rng) {
  RandomScenario s = draw(rng);
  s.cfg.fault.drop_prob = rng.bernoulli(0.7) ? rng.uniform(0.0, 0.25) : 0.0;
  s.cfg.fault.dup_prob = rng.bernoulli(0.5) ? rng.uniform(0.0, 0.3) : 0.0;
  if (rng.bernoulli(0.5))
    s.cfg.fault.jitter = rng.uniform_int(100, 10'000);  // up to 10 ms
  if (rng.bernoulli(0.4)) {
    s.cfg.fault.pause_rate_per_min = rng.uniform(0.1, 1.5);
    s.cfg.fault.pause_mean_s = rng.uniform(0.2, 2.0);
  }
  if (rng.bernoulli(0.4)) {
    s.cfg.fault.crash_rate_per_min = rng.uniform(0.2, 3.0);
    s.cfg.fault.crash_mean_s = rng.uniform(0.5, 4.0);
  }
  if (rng.bernoulli(0.3)) {
    // One or two partition groups of random cells and windows. Dup cells
    // within a group are harmless (membership is a bitmap).
    const int n_cells = s.cfg.rows * s.cfg.cols;
    const int groups = rng.bernoulli(0.5) ? 1 : 2;
    for (int g = 0; g < groups; ++g) {
      net::PartitionSpec p;
      const auto sz = static_cast<int>(rng.uniform_int(1, 4));
      for (int i = 0; i < sz; ++i)
        p.cells.push_back(
            static_cast<cell::CellId>(rng.uniform_int(0, n_cells - 1)));
      p.start = static_cast<sim::SimTime>(
          rng.uniform_int(sim::seconds(5), sim::seconds(100)));
      p.end = p.start + static_cast<sim::Duration>(
                            rng.uniform_int(sim::seconds(2), sim::seconds(30)));
      s.cfg.fault.partitions.push_back(p);
    }
  }
  // Timers are mandatory with pauses, crashes, and partitions, and
  // sensible with any fault: long enough that fault-free handshakes never
  // trip them spuriously.
  s.cfg.request_timeout = rng.uniform_int(200'000, 1'500'000);  // 0.2..1.5 s
  return s;
}

TEST(FuzzScenario, FaultCocktailNeverBreaksInvariantsOrQuiescence) {
  sim::RngStream rng(0xFA017);
  for (int trial = 0; trial < 60; ++trial) {
    const RandomScenario s = draw_faulty(rng);
    const RunResult r = runner::run_uniform(s.cfg, s.scheme, s.rho);
    SCOPED_TRACE(testing::Message()
                 << "trial " << trial << " scheme "
                 << runner::scheme_name(s.scheme) << " grid " << s.cfg.rows << "x"
                 << s.cfg.cols << " channels " << s.cfg.n_channels << " drop "
                 << s.cfg.fault.drop_prob << " dup " << s.cfg.fault.dup_prob
                 << " jitter " << s.cfg.fault.jitter << " pause "
                 << s.cfg.fault.pause_rate_per_min << "/min seed "
                 << s.cfg.seed);
    EXPECT_EQ(r.violations, 0u);
    EXPECT_TRUE(r.quiescent) << "faults may delay or abort calls, never wedge them";
    EXPECT_EQ(r.agg.offered, r.agg.acquired + r.agg.blocked + r.agg.starved +
                                 r.agg.timed_out + r.agg.downed);
  }
}

TEST(FuzzScenario, CrashCocktailShardedMatchesClassic) {
  // Shard-count equivalence with the crash-recovery fault model forced
  // on, layered over the random fault cocktail (drops, dups, jitter,
  // pauses, partitions) and frequent mobility: full traces and
  // availability accounting must be bit-identical at any shard count.
  sim::RngStream rng(0xC4A54);
  for (int trial = 0; trial < 6; ++trial) {
    RandomScenario s = draw_faulty(rng);
    s.cfg.fault.crash_rate_per_min = rng.uniform(0.5, 3.0);
    s.cfg.fault.crash_mean_s = rng.uniform(0.5, 3.0);
    if (rng.bernoulli(0.6)) s.cfg.mean_dwell_s = rng.uniform(20.0, 90.0);
    SCOPED_TRACE(testing::Message()
                 << "trial " << trial << " scheme "
                 << runner::scheme_name(s.scheme) << " grid " << s.cfg.rows
                 << "x" << s.cfg.cols << " crash "
                 << s.cfg.fault.crash_rate_per_min << "/min x "
                 << s.cfg.fault.crash_mean_s << "s partitions "
                 << s.cfg.fault.partitions.size() << " seed " << s.cfg.seed);

    runner::ScenarioConfig one_shard_cfg = s.cfg;
    one_shard_cfg.shards = 1;
    sim::TraceRecorder rec_one_shard;
    const RunResult a =
        runner::run_uniform(one_shard_cfg, s.scheme, s.rho, &rec_one_shard);
    EXPECT_EQ(a.violations, 0u);
    EXPECT_TRUE(a.quiescent);

    for (const int shards : {2, 4}) {
      runner::ScenarioConfig sharded_cfg = s.cfg;
      sharded_cfg.shards = std::min(shards, s.cfg.rows * s.cfg.cols);
      sharded_cfg.threads = static_cast<int>(rng.uniform_int(0, 4));
      sim::TraceRecorder rec_sharded;
      const RunResult b =
          runner::run_uniform(sharded_cfg, s.scheme, s.rho, &rec_sharded);
      EXPECT_EQ(a.agg.offered, b.agg.offered);
      EXPECT_EQ(a.agg.downed, b.agg.downed);
      EXPECT_EQ(a.total_messages, b.total_messages);
      EXPECT_EQ(a.carried_erlangs, b.carried_erlangs);
      EXPECT_EQ(a.availability, b.availability);
      EXPECT_EQ(b.violations, 0u);
      EXPECT_EQ(rec_one_shard.events(), rec_sharded.events())
          << "engine traces diverged at shards=" << sharded_cfg.shards;
    }
  }
}

}  // namespace
}  // namespace dca
