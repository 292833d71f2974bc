// Tests for the basic search scheme: full-region queries, timestamp
// deferral of concurrent searches, decision announcements, and the
// paper's cost accounting (2N handshake + announcement).
#include <gtest/gtest.h>

#include "proto/basic_search.hpp"
#include "runner/world.hpp"
#include "test_util.hpp"

namespace dca {
namespace {

using runner::Scheme;
using runner::World;
using testutil::offer_call;
using testutil::small_config;

TEST(BasicSearch, SoloAcquisitionTakes2TAndOneRound) {
  const auto cfg = small_config();
  World w(cfg, Scheme::kBasicSearch);
  const cell::CellId c = testutil::center_cell(cfg);
  const auto N = w.grid().interference(c).size();
  offer_call(w, c, 1, sim::minutes(1));
  w.run_until(sim::seconds(1));

  ASSERT_EQ(w.records().size(), 1u);
  const auto r = w.records()[0];
  EXPECT_EQ(r.outcome, proto::Outcome::kAcquiredSearch);
  // Round trip: request out (T) + replies back (T).
  EXPECT_EQ(r.delay(), 2 * cfg.latency);
  // REQUEST + RESPONSE to/from everyone, plus the decision announcement
  // (the paper's Table 1 charges only the first two — see DESIGN.md).
  EXPECT_EQ(r.total_messages(), 3 * N);
  EXPECT_EQ(r.messages[static_cast<std::size_t>(net::MsgKind::kRequest)], N);
  EXPECT_EQ(r.messages[static_cast<std::size_t>(net::MsgKind::kResponse)], N);
  EXPECT_EQ(r.messages[static_cast<std::size_t>(net::MsgKind::kAcquisition)], N);
}

TEST(BasicSearch, NoReleaseMessagesAtCallEnd) {
  const auto cfg = small_config();
  World w(cfg, Scheme::kBasicSearch);
  offer_call(w, testutil::center_cell(cfg), 1, sim::seconds(5));
  w.run_to_quiescence();
  EXPECT_EQ(w.sent_of(net::MsgKind::kRelease), 0u);
  EXPECT_TRUE(w.quiescent());
}

TEST(BasicSearch, ConcurrentNeighborsPickDistinctChannels) {
  const auto cfg = small_config();
  World w(cfg, Scheme::kBasicSearch);
  const cell::CellId a = testutil::center_cell(cfg);
  const cell::CellId b = w.grid().neighbors(a)[0];
  // Both request at exactly the same instant: the timestamp protocol must
  // sequentialize them.
  offer_call(w, a, 1, sim::minutes(1));
  offer_call(w, b, 2, sim::minutes(1));
  w.run_until(sim::seconds(2));
  ASSERT_EQ(w.records().size(), 2u);
  for (const auto& r : w.records()) {
    EXPECT_EQ(r.outcome, proto::Outcome::kAcquiredSearch);
  }
  EXPECT_FALSE(w.node(a).in_use().intersects(w.node(b).in_use()));
  EXPECT_EQ(w.interference_violations(), 0u);
}

TEST(BasicSearch, YoungerConcurrentSearchIsDeferredAndSlower) {
  const auto cfg = small_config();
  World w(cfg, Scheme::kBasicSearch);
  const cell::CellId a = testutil::center_cell(cfg);
  const cell::CellId b = w.grid().neighbors(a)[0];
  offer_call(w, a, 1, sim::minutes(1));
  offer_call(w, b, 2, sim::minutes(1));
  w.run_until(sim::seconds(2));
  const auto& recs = w.records();
  // One of the two finished in 2T; the other had its reply deferred and
  // needed strictly longer.
  const auto d0 = recs[0].delay(), d1 = recs[1].delay();
  EXPECT_EQ(std::min(d0, d1), 2 * cfg.latency);
  EXPECT_GT(std::max(d0, d1), 2 * cfg.latency);
}

TEST(BasicSearch, FindsChannelWheneverOneExists) {
  // Fill the center cell's region heavily, then check the next request
  // still succeeds as long as a free channel exists anywhere in Spectrum.
  const auto cfg = small_config();  // 21 channels
  World w(cfg, Scheme::kBasicSearch);
  const cell::CellId c = testutil::center_cell(cfg);
  for (int i = 0; i < 20; ++i) {
    offer_call(w, c, static_cast<traffic::CallId>(i + 1), sim::minutes(10));
    w.run_until(w.now() + sim::seconds(1));
  }
  int acquired = 0;
  for (const auto& r : w.records())
    if (proto::is_acquired(r.outcome)) ++acquired;
  EXPECT_EQ(acquired, 20);
  EXPECT_EQ(w.node(c).in_use().size(), 20);
}

TEST(BasicSearch, BlocksWhenRegionExhausted) {
  const auto cfg = small_config();
  World w(cfg, Scheme::kBasicSearch);
  const cell::CellId c = testutil::center_cell(cfg);
  for (int i = 0; i < 21; ++i) {
    offer_call(w, c, static_cast<traffic::CallId>(i + 1), sim::minutes(10));
    w.run_until(w.now() + sim::seconds(1));
  }
  // All 21 channels used in the cell itself: the 22nd must fail.
  offer_call(w, c, 99, sim::minutes(10));
  w.run_until(w.now() + sim::seconds(1));
  EXPECT_EQ(w.records().back().outcome,
            proto::Outcome::kBlockedNoChannel);
  // A failed search still announces, so no waiting counter leaks.
  w.run_to_quiescence();
  EXPECT_TRUE(w.quiescent());
}

TEST(BasicSearch, SearcherStateVisible) {
  const auto cfg = small_config();
  World w(cfg, Scheme::kBasicSearch);
  const cell::CellId c = testutil::center_cell(cfg);
  EXPECT_FALSE(w.node(c).is_searching());
  offer_call(w, c, 1, sim::minutes(1));
  EXPECT_TRUE(w.node(c).is_searching());
  w.run_until(sim::seconds(1));
  EXPECT_FALSE(w.node(c).is_searching());
}

TEST(BasicSearch, NonInterferingCellsMayShareAChannel) {
  const auto cfg = small_config();
  World w(cfg, Scheme::kBasicSearch);
  // Opposite corners of the 6x6 grid are far outside each other's region.
  const cell::CellId a = 0;
  const cell::CellId b = w.grid().n_cells() - 1;
  ASSERT_GT(w.grid().distance(a, b), cfg.interference_radius);
  // Drain each cell's full region view so both see all channels free; both
  // should be able to pick the same lowest channel id.
  offer_call(w, a, 1, sim::minutes(1));
  offer_call(w, b, 2, sim::minutes(1));
  w.run_until(sim::seconds(1));
  EXPECT_TRUE(w.node(a).in_use().intersects(w.node(b).in_use()))
      << "far-apart cells should reuse the same channel";
  EXPECT_EQ(w.interference_violations(), 0u);
}

}  // namespace
}  // namespace dca
