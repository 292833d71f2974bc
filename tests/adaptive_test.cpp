// Tests for the paper's adaptive scheme: local-mode zero-cost service,
// mode switching with hysteresis (check_mode / CHANGE_MODE / UpdateS),
// borrowing via update rounds with the Best() heuristic, the α-bounded
// fallback to search, DeferQ sequentialization, and end-to-end safety.
#include <gtest/gtest.h>

#include "core/adaptive.hpp"
#include "runner/world.hpp"
#include "test_util.hpp"

namespace dca {
namespace {

using core::AdaptiveNode;
using runner::Scheme;
using runner::World;
using testutil::offer_call;
using testutil::small_config;

const AdaptiveNode& adaptive(const World& w, cell::CellId c) {
  return dynamic_cast<const AdaptiveNode&>(w.node(c));
}

runner::ScenarioConfig adaptive_config() {
  auto cfg = small_config();
  cfg.adaptive.theta_low = 1;
  cfg.adaptive.theta_high = 2;
  cfg.adaptive.alpha = 3;
  return cfg;
}

TEST(Adaptive, LocalModeIsFreeAndInstant) {
  const auto cfg = adaptive_config();
  World w(cfg, Scheme::kAdaptive);
  const cell::CellId c = testutil::center_cell(cfg);
  offer_call(w, c, 1, sim::seconds(10));
  ASSERT_EQ(w.records().size(), 1u);
  const auto r = w.records()[0];
  EXPECT_EQ(r.outcome, proto::Outcome::kAcquiredLocal);
  EXPECT_EQ(r.delay(), 0);
  EXPECT_EQ(r.total_messages(), 0u);
  EXPECT_EQ(w.total_sent(), 0u) << "Table 2: adaptive costs nothing";
  EXPECT_EQ(adaptive(w, c).mode(), 0);
}

TEST(Adaptive, ExhaustionSwitchesToBorrowingAndAnnounces) {
  const auto cfg = adaptive_config();  // 3 primaries, theta_low = 1
  World w(cfg, Scheme::kAdaptive);
  const cell::CellId c = testutil::center_cell(cfg);
  for (int i = 0; i < 3; ++i) offer_call(w, c, static_cast<traffic::CallId>(i + 1),
                                         sim::minutes(5));
  // Third acquisition leaves 0 free primaries < theta_low: check_mode fires.
  EXPECT_TRUE(adaptive(w, c).is_borrowing());
  w.run_until(w.now() + sim::seconds(1));
  // Every neighbour now lists c in its UpdateS set.
  for (const cell::CellId j : w.grid().interference(c)) {
    EXPECT_TRUE(adaptive(w, j).update_subscribers().contains(c));
  }
}

TEST(Adaptive, FourthCallBorrowsViaUpdateRound) {
  const auto cfg = adaptive_config();
  World w(cfg, Scheme::kAdaptive);
  const cell::CellId c = testutil::center_cell(cfg);
  const auto N = w.grid().interference(c).size();
  for (int i = 0; i < 3; ++i) offer_call(w, c, static_cast<traffic::CallId>(i + 1),
                                         sim::minutes(5));
  w.run_until(w.now() + sim::seconds(1));

  offer_call(w, c, 4, sim::minutes(5));
  w.run_until(w.now() + sim::seconds(1));
  const auto r = w.records().back();
  EXPECT_EQ(r.outcome, proto::Outcome::kAcquiredUpdate);
  EXPECT_EQ(r.attempts, 1);
  EXPECT_EQ(r.delay(), 2 * cfg.latency);  // one round trip
  // One update round: N requests + N responses; success needs no
  // ACQUISITION broadcast (the grants already informed everyone).
  EXPECT_EQ(r.messages[static_cast<std::size_t>(net::MsgKind::kRequest)], N);
  EXPECT_EQ(r.messages[static_cast<std::size_t>(net::MsgKind::kResponse)], N);
  EXPECT_EQ(r.messages[static_cast<std::size_t>(net::MsgKind::kAcquisition)], 0u);
  // The borrowed channel is not one of c's primaries.
  const auto borrowedSet = w.node(c).in_use() - w.plan().primary(c);
  EXPECT_EQ(borrowedSet.size(), 1);
}

TEST(Adaptive, GrantersMarkBorrowedChannelInterfered) {
  const auto cfg = adaptive_config();
  World w(cfg, Scheme::kAdaptive);
  const cell::CellId c = testutil::center_cell(cfg);
  for (int i = 0; i < 4; ++i) offer_call(w, c, static_cast<traffic::CallId>(i + 1),
                                         sim::minutes(5));
  w.run_until(w.now() + sim::seconds(1));
  const auto borrowedSet = w.node(c).in_use() - w.plan().primary(c);
  ASSERT_EQ(borrowedSet.size(), 1);
  const cell::ChannelId ch = borrowedSet.first();
  for (const cell::CellId j : w.grid().interference(c)) {
    EXPECT_TRUE(adaptive(w, j).interfered().contains(ch)) << "neighbour " << j;
  }
}

TEST(Adaptive, ReturnsToLocalModeWhenLoadDrops) {
  const auto cfg = adaptive_config();  // theta_high = 2
  World w(cfg, Scheme::kAdaptive);
  const cell::CellId c = testutil::center_cell(cfg);
  for (int i = 0; i < 3; ++i) offer_call(w, c, static_cast<traffic::CallId>(i + 1),
                                         sim::seconds(10));
  EXPECT_TRUE(adaptive(w, c).is_borrowing());
  // All three calls end after 10 s; the releases raise the free-primary
  // prediction past theta_high and the node returns to local mode.
  w.run_to_quiescence();
  EXPECT_EQ(adaptive(w, c).mode(), 0);
  EXPECT_GE(adaptive(w, c).switches_to_local(), 1u);
  // Neighbours drop c from their UpdateS sets again.
  for (const cell::CellId j : w.grid().interference(c)) {
    EXPECT_FALSE(adaptive(w, j).update_subscribers().contains(c));
  }
  EXPECT_TRUE(w.quiescent());
}

TEST(Adaptive, HysteresisPreventsFlapping) {
  // theta_low = 1, theta_high = 3: hovering around one free primary must
  // not bounce between modes on every acquire/release pair.
  auto cfg = adaptive_config();
  cfg.adaptive.theta_high = 3;
  World w(cfg, Scheme::kAdaptive);
  const cell::CellId c = testutil::center_cell(cfg);
  // Take 2 of 3 primaries for good: one free primary left.
  offer_call(w, c, 1, sim::minutes(60));
  offer_call(w, c, 2, sim::minutes(60));
  w.run_until(w.now() + sim::seconds(1));
  const auto switches_before = adaptive(w, c).switches_to_borrowing();
  // Churn the third primary: acquire/release repeatedly.
  for (int i = 0; i < 10; ++i) {
    offer_call(w, c, static_cast<traffic::CallId>(10 + i), sim::seconds(2));
    w.run_until(w.now() + sim::seconds(5));
  }
  const auto switches_after = adaptive(w, c).switches_to_borrowing();
  // Once borrowing (s hits 0 < theta_low), releases bring s back to only
  // 1 < theta_high = 3, so the node must stay in borrowing mode.
  EXPECT_LE(switches_after - switches_before, 1u);
}

TEST(Adaptive, LocalAcquisitionInBorrowingModeNotifiesSubscribers) {
  const auto cfg = adaptive_config();
  World w(cfg, Scheme::kAdaptive);
  const cell::CellId c = testutil::center_cell(cfg);
  const cell::CellId other = w.grid().interference(c)[0];
  // Drive `other` into borrowing mode so it subscribes to its neighbours.
  for (int i = 0; i < 3; ++i)
    offer_call(w, other, static_cast<traffic::CallId>(i + 1), sim::minutes(30));
  w.run_until(w.now() + sim::seconds(1));
  ASSERT_TRUE(adaptive(w, c).update_subscribers().contains(other));

  // A local acquisition at c must now be announced to `other` (and only to
  // subscribers).
  const auto acq_before = w.sent_of(net::MsgKind::kAcquisition);
  offer_call(w, c, 50, sim::minutes(5));
  const auto r = w.records().back();
  EXPECT_EQ(r.outcome, proto::Outcome::kAcquiredLocal);
  EXPECT_EQ(r.delay(), 0) << "announcement is asynchronous; service stays instant";
  const auto acq_sent = w.sent_of(net::MsgKind::kAcquisition) - acq_before;
  const auto subscribers = adaptive(w, c).update_subscribers().size();
  EXPECT_EQ(acq_sent, subscribers);
  w.run_until(w.now() + sim::seconds(1));
  EXPECT_TRUE(adaptive(w, other).interfered().contains(w.node(c).in_use().first()));
}

TEST(Adaptive, FallsBackToSearchAfterAlphaFailedRounds) {
  // Saturate the whole region so update rounds cannot find a grantable
  // channel; the request must end as a search (here: a failed one).
  const auto cfg = adaptive_config();
  World w(cfg, Scheme::kAdaptive);
  const cell::CellId c = testutil::center_cell(cfg);
  for (int i = 0; i < 3; ++i) offer_call(w, c, static_cast<traffic::CallId>(i + 1),
                                         sim::minutes(60));
  w.run_until(w.now() + sim::seconds(1));
  traffic::CallId id = 100;
  for (const cell::CellId j : w.grid().interference(c)) {
    for (int i = 0; i < 3; ++i) {
      offer_call(w, j, id++, sim::minutes(60));
      w.run_until(w.now() + sim::milliseconds(500));
    }
  }
  w.run_until(w.now() + sim::seconds(5));

  // All 21 channels are now used within c's region: the next request can
  // neither use a primary nor borrow; it searches and comes up empty.
  offer_call(w, c, 999, sim::minutes(5));
  w.run_until(w.now() + sim::seconds(30));
  const auto r = w.records().back();
  EXPECT_EQ(r.outcome, proto::Outcome::kBlockedNoChannel);
  EXPECT_EQ(w.interference_violations(), 0u);
  // The failed search must have announced (ACQUISITION with no channel) so
  // the region's waiting counters return to zero.
  w.run_to_quiescence();
  EXPECT_TRUE(w.quiescent());
  for (const cell::CellId j : w.grid().interference(c)) {
    EXPECT_EQ(adaptive(w, j).waiting(), 0);
  }
}

TEST(Adaptive, SearchFindsChannelUpdateRoundsMissed) {
  // Borrowing candidates are filtered by *believed* availability; stale
  // information can make update rounds fail while a search (which gathers
  // fresh Use sets) succeeds. Construct heavy concurrent churn and verify
  // every request is eventually decided and no interference occurs.
  const auto cfg = adaptive_config();
  World w(cfg, Scheme::kAdaptive);
  traffic::CallId id = 1;
  for (int wave = 0; wave < 6; ++wave) {
    for (cell::CellId c = 0; c < w.grid().n_cells(); c += 2) {
      offer_call(w, c, id++, sim::seconds(40));
    }
    w.run_until(w.now() + sim::seconds(10));
  }
  w.run_to_quiescence();
  EXPECT_TRUE(w.quiescent());
  EXPECT_EQ(w.interference_violations(), 0u);
  EXPECT_EQ(w.records().size(), static_cast<std::size_t>(id - 1));
}

TEST(Adaptive, ConcurrentHotCellsNeverInterfere) {
  const auto cfg = adaptive_config();
  World w(cfg, Scheme::kAdaptive);
  const cell::CellId a = testutil::center_cell(cfg);
  const cell::CellId b = w.grid().neighbors(a)[0];
  traffic::CallId id = 1;
  for (int i = 0; i < 8; ++i) {
    offer_call(w, a, id++, sim::minutes(10));
    offer_call(w, b, id++, sim::minutes(10));
    w.run_until(w.now() + sim::seconds(3));
  }
  EXPECT_EQ(w.interference_violations(), 0u);
  EXPECT_FALSE(w.node(a).in_use().intersects(w.node(b).in_use()));
}

TEST(Adaptive, BorrowedChannelReleaseReachesWholeRegion) {
  const auto cfg = adaptive_config();
  World w(cfg, Scheme::kAdaptive);
  const cell::CellId c = testutil::center_cell(cfg);
  // Borrow one channel (call 4), all long-lived except the borrowed one.
  for (int i = 0; i < 3; ++i) offer_call(w, c, static_cast<traffic::CallId>(i + 1),
                                         sim::minutes(60));
  w.run_until(w.now() + sim::seconds(1));
  offer_call(w, c, 4, sim::seconds(30));
  w.run_until(w.now() + sim::seconds(1));
  const auto borrowedSet = w.node(c).in_use() - w.plan().primary(c);
  ASSERT_EQ(borrowedSet.size(), 1);
  const cell::ChannelId ch = borrowedSet.first();

  // Let the borrowed call end; every neighbour must unmark the channel.
  w.run_until(w.now() + sim::minutes(2));
  for (const cell::CellId j : w.grid().interference(c)) {
    EXPECT_FALSE(adaptive(w, j).interfered().contains(ch)) << "neighbour " << j;
  }
}

TEST(Adaptive, QueuedRequestsServeInOrder) {
  const auto cfg = adaptive_config();
  World w(cfg, Scheme::kAdaptive);
  const cell::CellId c = testutil::center_cell(cfg);
  // Force borrowing so requests take a round trip and queue up.
  for (int i = 0; i < 3; ++i) offer_call(w, c, static_cast<traffic::CallId>(i + 1),
                                         sim::minutes(30));
  w.run_until(w.now() + sim::seconds(1));
  offer_call(w, c, 10, sim::minutes(30));
  offer_call(w, c, 11, sim::minutes(30));
  offer_call(w, c, 12, sim::minutes(30));
  EXPECT_GE(w.node(c).queued(), 2u);
  w.run_until(w.now() + sim::seconds(10));
  // All three decided, in submission order.
  const auto& recs = w.records();
  std::vector<traffic::CallId> order;
  for (const auto& r : recs)
    if (r.call >= 10) order.push_back(r.call);
  EXPECT_EQ(order, (std::vector<traffic::CallId>{10, 11, 12}));
  EXPECT_EQ(w.node(c).queued(), 0u);
}

TEST(Adaptive, StrictFig4VariantStaysSafe) {
  auto cfg = adaptive_config();
  cfg.adaptive.strict_fig4 = true;
  World w(cfg, Scheme::kAdaptive);
  traffic::CallId id = 1;
  for (int wave = 0; wave < 4; ++wave) {
    for (cell::CellId c = 0; c < w.grid().n_cells(); c += 2)
      offer_call(w, c, id++, sim::seconds(30));
    w.run_until(w.now() + sim::seconds(8));
  }
  w.run_to_quiescence();
  EXPECT_TRUE(w.quiescent());
  EXPECT_EQ(w.interference_violations(), 0u);
}

TEST(Adaptive, RandomLenderAblationStaysSafe) {
  auto cfg = adaptive_config();
  cfg.adaptive.use_best_heuristic = false;
  World w(cfg, Scheme::kAdaptive);
  traffic::CallId id = 1;
  for (int wave = 0; wave < 4; ++wave) {
    for (cell::CellId c = 0; c < w.grid().n_cells(); ++c)
      offer_call(w, c, id++, sim::seconds(30));
    w.run_until(w.now() + sim::seconds(8));
  }
  w.run_to_quiescence();
  EXPECT_TRUE(w.quiescent());
  EXPECT_EQ(w.interference_violations(), 0u);
}

TEST(Adaptive, UpdateSetsEventuallyConsistentAtQuiescence) {
  // DESIGN.md invariant 4: once the system drains, j ∈ UpdateS_i exactly
  // when j (an interference neighbour of i) is in borrowing mode.
  const auto cfg = adaptive_config();
  World w(cfg, Scheme::kAdaptive);
  traffic::CallId id = 1;
  for (int wave = 0; wave < 5; ++wave) {
    for (cell::CellId c = 0; c < w.grid().n_cells(); c += 2)
      offer_call(w, c, id++, sim::seconds(30));
    w.run_until(w.now() + sim::seconds(10));
  }
  w.run_to_quiescence();
  ASSERT_TRUE(w.quiescent());
  for (cell::CellId i = 0; i < w.grid().n_cells(); ++i) {
    const auto& ni = adaptive(w, i);
    for (const cell::CellId j : w.grid().interference(i)) {
      const bool subscribed = ni.update_subscribers().contains(j);
      EXPECT_EQ(subscribed, adaptive(w, j).is_borrowing())
          << "cell " << i << " subscription state of neighbour " << j;
    }
  }
}

TEST(Adaptive, RepackReturnsBorrowedChannelsEarly) {
  // Extension S21: with repack on, a hot cell that borrowed channels hands
  // them back as soon as its own primaries free up, instead of holding
  // them to call end.
  auto cfg = adaptive_config();
  cfg.adaptive.repack = true;
  World w(cfg, Scheme::kAdaptive);
  const cell::CellId c = testutil::center_cell(cfg);
  // Three short primary calls + one long borrowed call.
  for (int i = 0; i < 3; ++i) offer_call(w, c, static_cast<traffic::CallId>(i + 1),
                                         sim::seconds(20));
  w.run_until(w.now() + sim::seconds(1));
  offer_call(w, c, 4, sim::minutes(10));
  w.run_until(w.now() + sim::seconds(1));
  ASSERT_EQ((w.node(c).in_use() - w.plan().primary(c)).size(), 1)
      << "call 4 runs on a borrowed channel";
  // The short calls end at ~20 s; the long call must migrate onto a freed
  // primary and the borrowed channel must leave service.
  w.run_until(sim::seconds(60));
  EXPECT_EQ(w.node(c).in_use().size(), 1);
  EXPECT_TRUE((w.node(c).in_use() - w.plan().primary(c)).empty())
      << "the surviving call now sits on a primary";
  EXPECT_EQ(w.reassignments(), 1u);
  EXPECT_EQ(w.interference_violations(), 0u);
  w.run_to_quiescence();
  EXPECT_TRUE(w.quiescent());
}

TEST(Adaptive, NfcPredictorIsWiredToUsage) {
  const auto cfg = adaptive_config();
  World w(cfg, Scheme::kAdaptive);
  const cell::CellId c = testutil::center_cell(cfg);
  offer_call(w, c, 1, sim::minutes(5));
  // One primary taken out of 3: predictor sees 2 free.
  EXPECT_EQ(adaptive(w, c).free_primary_count(), 2);
  EXPECT_EQ(adaptive(w, c).nfc().current(), 2);
}

}  // namespace
}  // namespace dca
