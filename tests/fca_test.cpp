// Tests for the static (fixed channel allocation) baseline: zero messages,
// zero latency, primary-set-only service, blocking at exhaustion.
#include <gtest/gtest.h>

#include "proto/fca.hpp"
#include "runner/world.hpp"
#include "test_util.hpp"

namespace dca {
namespace {

using runner::Scheme;
using runner::World;
using testutil::offer_call;
using testutil::small_config;

TEST(Fca, AcquiresInstantlyWithZeroMessages) {
  World w(small_config(), Scheme::kFca);
  offer_call(w, testutil::center_cell(small_config()), 1, sim::seconds(30));
  // Decision must have been synchronous: record closed at t = 0.
  ASSERT_EQ(w.records().size(), 1u);
  const auto r = w.records()[0];
  EXPECT_EQ(r.outcome, proto::Outcome::kAcquiredLocal);
  EXPECT_EQ(r.delay(), 0);
  EXPECT_EQ(r.total_messages(), 0u);
  EXPECT_EQ(w.total_sent(), 0u);
}

TEST(Fca, ServesExactlyPrimarySetSize) {
  const auto cfg = small_config();  // 21 channels / 7 colours = 3 primaries
  World w(cfg, Scheme::kFca);
  const cell::CellId c = testutil::center_cell(cfg);
  for (traffic::CallId i = 0; i < 5; ++i) offer_call(w, c, 100 + i, sim::minutes(5));
  int ok = 0, blocked = 0;
  for (const auto& r : w.records()) {
    (proto::is_acquired(r.outcome) ? ok : blocked)++;
  }
  EXPECT_EQ(ok, 3);
  EXPECT_EQ(blocked, 2);
}

TEST(Fca, BlockedEvenWhenNeighborhoodIdle) {
  // The paper's core criticism of static allocation: a loaded cell drops
  // calls although every neighbour has idle channels.
  const auto cfg = small_config();
  World w(cfg, Scheme::kFca);
  const cell::CellId c = testutil::center_cell(cfg);
  for (traffic::CallId i = 0; i < 4; ++i) offer_call(w, c, i + 1, sim::minutes(5));
  const auto& recs = w.records();
  ASSERT_EQ(recs.size(), 4u);
  EXPECT_EQ(recs[3].outcome, proto::Outcome::kBlockedNoChannel);
  // Meanwhile the rest of the system is completely idle.
  for (cell::CellId j : w.grid().interference(c)) {
    EXPECT_TRUE(w.node(j).in_use().empty());
  }
}

TEST(Fca, ReleaseMakesChannelReusable) {
  const auto cfg = small_config();
  World w(cfg, Scheme::kFca);
  const cell::CellId c = 0;
  offer_call(w, c, 1, sim::seconds(10));
  offer_call(w, c, 2, sim::seconds(10));
  offer_call(w, c, 3, sim::seconds(10));
  EXPECT_EQ(w.node(c).in_use().size(), 3);
  w.run_to_quiescence();  // calls end, channels released
  EXPECT_TRUE(w.node(c).in_use().empty());
  offer_call(w, c, 4, sim::seconds(10));
  EXPECT_EQ(w.records().back().outcome, proto::Outcome::kAcquiredLocal);
}

TEST(Fca, NeighborsReusePatternNeverInterferes) {
  // Saturate every cell; the reuse pattern must keep all acquisitions
  // interference-free by construction.
  const auto cfg = small_config();
  World w(cfg, Scheme::kFca);
  traffic::CallId id = 1;
  for (cell::CellId c = 0; c < w.grid().n_cells(); ++c) {
    for (int i = 0; i < 3; ++i) offer_call(w, c, id++, sim::minutes(1));
  }
  EXPECT_EQ(w.interference_violations(), 0u);
  for (cell::CellId c = 0; c < w.grid().n_cells(); ++c) {
    EXPECT_EQ(w.node(c).in_use().size(), 3);
  }
  w.run_to_quiescence();
  EXPECT_TRUE(w.quiescent());
}

TEST(Fca, UsesOnlyOwnPrimaries) {
  const auto cfg = small_config();
  World w(cfg, Scheme::kFca);
  const cell::CellId c = 7;
  for (traffic::CallId i = 0; i < 3; ++i) offer_call(w, c, i + 1, sim::minutes(1));
  const auto used = w.node(c).in_use();
  EXPECT_TRUE((used - w.plan().primary(c)).empty());
}

}  // namespace
}  // namespace dca
