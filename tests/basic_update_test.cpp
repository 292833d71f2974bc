// Tests for the basic update scheme: permission handshakes, grant/reject
// arbitration by timestamp, retry behaviour, usage mirroring via
// ACQUISITION/RELEASE broadcasts, and Table 2's 4N cost accounting.
#include <gtest/gtest.h>

#include "proto/basic_update.hpp"
#include "runner/world.hpp"
#include "test_util.hpp"

namespace dca {
namespace {

using runner::Scheme;
using runner::World;
using testutil::offer_call;
using testutil::small_config;

TEST(BasicUpdate, SoloAcquisitionCostsOneHandshakePlusBroadcasts) {
  const auto cfg = small_config();
  World w(cfg, Scheme::kBasicUpdate);
  const cell::CellId c = testutil::center_cell(cfg);
  const auto N = w.grid().interference(c).size();
  offer_call(w, c, 1, sim::seconds(10));
  w.run_until(sim::seconds(1));

  ASSERT_EQ(w.collector().records().size(), 1u);
  const auto& r = w.collector().records()[0];
  EXPECT_EQ(r.outcome, proto::Outcome::kAcquiredUpdate);
  EXPECT_EQ(r.attempts, 1);
  EXPECT_EQ(r.delay(), 2 * cfg.latency);  // 2Tm with m = 1
  // So far: N REQUEST + N RESPONSE + N ACQUISITION.
  EXPECT_EQ(r.total_messages(), 3 * N);

  // After the call ends, the RELEASE broadcast completes Table 2's 4N.
  w.run_to_quiescence();
  EXPECT_EQ(w.collector().records()[0].total_messages(), 4 * N);
}

TEST(BasicUpdate, NeighborsLearnUsageThroughBroadcasts) {
  const auto cfg = small_config();
  World w(cfg, Scheme::kBasicUpdate);
  const cell::CellId c = testutil::center_cell(cfg);
  offer_call(w, c, 1, sim::seconds(30));
  w.run_until(sim::seconds(1));
  const cell::ChannelId ch = w.node(c).in_use().first();
  ASSERT_NE(ch, cell::kNoChannel);
  for (const cell::CellId j : w.grid().interference(c)) {
    const auto& nb = dynamic_cast<const proto::BasicUpdateNode&>(w.node(j));
    EXPECT_TRUE(nb.interfered().contains(ch)) << "neighbor " << j;
  }
  // ... and forget it again after the release.
  w.run_to_quiescence();
  for (const cell::CellId j : w.grid().interference(c)) {
    const auto& nb = dynamic_cast<const proto::BasicUpdateNode&>(w.node(j));
    EXPECT_FALSE(nb.interfered().contains(ch));
  }
}

TEST(BasicUpdate, SameChannelConflictGoesToOlderTimestamp) {
  // Force both neighbours to want a channel simultaneously over many seeds;
  // whatever channels they pick, they must never end up co-channel.
  const auto cfg = small_config();
  World w(cfg, Scheme::kBasicUpdate);
  const cell::CellId a = testutil::center_cell(cfg);
  const cell::CellId b = w.grid().neighbors(a)[0];
  offer_call(w, a, 1, sim::minutes(1));
  offer_call(w, b, 2, sim::minutes(1));
  w.run_until(sim::seconds(2));
  for (const auto& r : w.collector().records())
    EXPECT_TRUE(proto::is_acquired(r.outcome));
  EXPECT_FALSE(w.node(a).in_use().intersects(w.node(b).in_use()));
  EXPECT_EQ(w.interference_violations(), 0u);
}

TEST(BasicUpdate, RetriesConsumeAttemptsUnderContention) {
  // Saturate the region except one channel, then have two neighbours race
  // for it repeatedly; retries (m > 1) must appear under pressure.
  const auto cfg = small_config();
  World w(cfg, Scheme::kBasicUpdate);
  const cell::CellId c = testutil::center_cell(cfg);
  // Occupy 18 of 21 channels in the center cell.
  for (int i = 0; i < 18; ++i) {
    offer_call(w, c, static_cast<traffic::CallId>(i + 1), sim::minutes(30));
    w.run_until(w.now() + sim::seconds(1));
  }
  // Now two interfering neighbours contend for the remaining 3 channels.
  const cell::CellId a = w.grid().neighbors(c)[0];
  const cell::CellId b = w.grid().neighbors(c)[1];
  for (int i = 0; i < 3; ++i) {
    offer_call(w, a, static_cast<traffic::CallId>(100 + i), sim::minutes(30));
    offer_call(w, b, static_cast<traffic::CallId>(200 + i), sim::minutes(30));
  }
  w.run_until(w.now() + sim::seconds(5));
  EXPECT_EQ(w.interference_violations(), 0u);
  int acquired = 0, failed = 0;
  for (const auto& r : w.collector().records()) {
    if (r.call >= 100) (proto::is_acquired(r.outcome) ? acquired : failed)++;
  }
  // Only 3 channels were left for 6 requests in one interference region.
  EXPECT_EQ(acquired, 3);
  EXPECT_EQ(failed, 3);
}

TEST(BasicUpdate, BlocksLocallyWhenNothingBelievedFree) {
  const auto cfg = small_config();
  World w(cfg, Scheme::kBasicUpdate);
  const cell::CellId c = testutil::center_cell(cfg);
  for (int i = 0; i < 21; ++i) {
    offer_call(w, c, static_cast<traffic::CallId>(i + 1), sim::minutes(30));
    w.run_until(w.now() + sim::seconds(1));
  }
  EXPECT_EQ(w.node(c).in_use().size(), 21);
  offer_call(w, c, 99, sim::minutes(30));
  w.run_until(w.now() + sim::seconds(1));
  const auto& last = w.collector().records().back();
  EXPECT_EQ(last.outcome, proto::Outcome::kBlockedNoChannel);
  EXPECT_EQ(last.total_messages(), 0u) << "local information suffices to fail fast";
}

TEST(BasicUpdate, StarvationCapReportsStarved) {
  auto cfg = small_config();
  cfg.max_update_attempts = 1;  // a single rejection is fatal
  World w(cfg, Scheme::kBasicUpdate);
  const cell::CellId c = testutil::center_cell(cfg);
  // Occupy 20 of the 21 channels at the center so its whole neighbourhood
  // believes exactly one channel free.
  for (int i = 0; i < 20; ++i) {
    offer_call(w, c, static_cast<traffic::CallId>(i + 1), sim::minutes(30));
    w.run_until(w.now() + sim::seconds(1));
  }
  // Two interfering neighbours race for that single channel: both must
  // pick it, the older timestamp wins, and with the retry cap at 1 the
  // loser is starved rather than retried.
  const cell::CellId a = w.grid().neighbors(c)[0];
  const cell::CellId b = w.grid().neighbors(c)[1];
  ASSERT_TRUE(w.grid().interferes(a, b));
  offer_call(w, a, 100, sim::minutes(1));
  offer_call(w, b, 200, sim::minutes(1));
  w.run_until(w.now() + sim::seconds(5));
  int acquired = 0, starved = 0;
  for (const auto& r : w.collector().records()) {
    if (r.call < 100) continue;
    if (proto::is_acquired(r.outcome)) ++acquired;
    if (r.outcome == proto::Outcome::kBlockedStarved) ++starved;
  }
  EXPECT_EQ(acquired, 1);
  EXPECT_EQ(starved, 1);
  EXPECT_EQ(w.interference_violations(), 0u);
}

TEST(BasicUpdate, QuiescenceAfterLoad) {
  const auto cfg = small_config();
  World w(cfg, Scheme::kBasicUpdate);
  traffic::CallId id = 1;
  for (cell::CellId c = 0; c < w.grid().n_cells(); c += 3) {
    offer_call(w, c, id++, sim::seconds(20));
  }
  w.run_to_quiescence();
  EXPECT_TRUE(w.quiescent());
  EXPECT_EQ(w.interference_violations(), 0u);
  for (cell::CellId c = 0; c < w.grid().n_cells(); ++c)
    EXPECT_TRUE(w.node(c).in_use().empty());
}

}  // namespace
}  // namespace dca
