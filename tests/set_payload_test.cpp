// Set payloads (the Use and allocated sets a reply carries behind its
// header's handle) are stored at the send and released exactly once, when
// the receiver has dispatched the message: handed to the node, dropped by a
// crashed MSS, or flushed from a paused cell's hold. A payload that crossed
// shards goes back to its sender's pool at the next window barrier. After a
// drained run every pool must be empty, whatever faults hit the traffic and
// whatever the shard and thread counts.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <string>
#include <tuple>

#include "runner/world.hpp"
#include "test_util.hpp"
#include "traffic/profile.hpp"

namespace dca {
namespace {

using runner::Scheme;

struct Drained {
  std::size_t peak = 0;  // most payloads stored at once, summed over shards
  std::size_t live = 0;  // payloads still stored after the drain
  std::uint64_t cross_shard = 0;
  bool quiescent = false;
  std::uint64_t violations = 0;
};

Drained run_drained(const runner::ScenarioConfig& c, Scheme scheme, double rho) {
  const traffic::UniformProfile load(c.arrival_rate_for_load(rho));
  runner::World world(c, scheme, &load);
  world.run();
  const runner::RunResult r = world.result();
  return Drained{world.set_payload_peak(), world.live_set_payloads(),
                 r.cross_shard_messages, r.quiescent, r.violations};
}

void expect_all_released(const Drained& d) {
  EXPECT_TRUE(d.quiescent);
  EXPECT_EQ(d.violations, 0u);
  EXPECT_GT(d.peak, 0u) << "no message carried sets; the case tests nothing";
  EXPECT_EQ(d.live, 0u) << "a set payload was never released";
}

/// The 6x6, 21-channel world of the unit suites with protocol timeouts on,
/// so it stays live under every fault below.
runner::ScenarioConfig faulty_base() {
  runner::ScenarioConfig c = testutil::small_config();
  c.duration = sim::minutes(2);
  c.request_timeout = sim::milliseconds(400);
  return c;
}

TEST(SetPayloads, ReleasedAfterCocktailAndHealedPartition) {
  // Drops, duplicates and jitter make the reliable transport retransmit
  // and resequence frames that carry a handle; only the one delivery of
  // each message may release it. The partition holds every frame across
  // the cut until the heal.
  runner::ScenarioConfig c = faulty_base();
  c.fault.drop_prob = 0.1;
  c.fault.dup_prob = 0.1;
  c.fault.jitter = sim::milliseconds(3);
  c.fault.partitions = {
      net::PartitionSpec{{0, 1, 6, 7}, sim::seconds(20), sim::seconds(40)}};
  for (const Scheme s : {Scheme::kAdaptive, Scheme::kBasicSearch,
                         Scheme::kAdvancedSearch}) {
    SCOPED_TRACE(runner::scheme_name(s));
    expect_all_released(run_drained(c, s, 1.0));
  }
}

TEST(SetPayloads, ReleasedWhenACrashedReceiverDropsThem) {
  // Basic search asks the whole region for its Use sets on every call, so
  // a requester that crashes mid-search leaves search replies in flight to
  // a dead MSS, which drops them; restarts add resync replies.
  runner::ScenarioConfig c = faulty_base();
  c.fault.crash_rate_per_min = 3.0;
  c.fault.crash_mean_s = 2.0;
  for (const Scheme s : {Scheme::kBasicSearch, Scheme::kAdaptive}) {
    SCOPED_TRACE(runner::scheme_name(s));
    expect_all_released(run_drained(c, s, 1.2));
  }
}

TEST(SetPayloads, ReleasedWhenAPausedCellFlushesItsHold) {
  // A paused MSS holds its inbound messages, handles included, and
  // dispatches them in arrival order on resume.
  runner::ScenarioConfig c = faulty_base();
  c.fault.pause_rate_per_min = 4.0;
  c.fault.pause_mean_s = 1.0;
  for (const Scheme s : {Scheme::kBasicSearch, Scheme::kAdaptive}) {
    SCOPED_TRACE(runner::scheme_name(s));
    expect_all_released(run_drained(c, s, 1.2));
  }
}

class SetPayloadsSharded
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(SetPayloadsSharded, AdaptiveWithMobilityReleasesEveryPayload) {
  // The adaptive scheme's status and search replies, on a grid cut into
  // shards: a reply that crossed a shard boundary is read in place from
  // its sender's pool and handed back at the next window barrier.
  const auto [shards, threads] = GetParam();
  runner::ScenarioConfig c = testutil::small_config();
  c.rows = 8;
  c.cols = 8;
  c.duration = sim::minutes(3);
  c.mean_dwell_s = c.mean_holding_s / 2.0;
  c.shards = shards;
  c.threads = threads;
  const Drained d = run_drained(c, Scheme::kAdaptive, 1.2);
  expect_all_released(d);
  if (shards > 1) {
    EXPECT_GT(d.cross_shard, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(
    ShardsByThreads, SetPayloadsSharded,
    ::testing::Combine(::testing::Values(1, 2, 4), ::testing::Values(1, 4)),
    [](const ::testing::TestParamInfo<std::tuple<int, int>>& p) {
      return "shards" + std::to_string(std::get<0>(p.param)) + "_threads" +
             std::to_string(std::get<1>(p.param));
    });

}  // namespace
}  // namespace dca
