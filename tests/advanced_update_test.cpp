// Tests for the advanced update scheme (Dong & Lai TR-48): zero-latency
// primary acquisitions, borrow requests confined to the channel's primary
// owners NP(c, r) and promise arbitration. The conditional-grant
// unfairness the paper's Fig. 11 criticizes is pinned exactly by
// Experiments.Fig11AdvancedUpdateDropsTheOlderRequest.
#include <gtest/gtest.h>

#include "proto/advanced_update.hpp"
#include "runner/world.hpp"
#include "test_util.hpp"

namespace dca {
namespace {

using runner::Scheme;
using runner::World;
using testutil::offer_call;
using testutil::small_config;

TEST(AdvancedUpdate, PrimaryAcquisitionIsInstantWithBroadcastOnly) {
  const auto cfg = small_config();
  World w(cfg, Scheme::kAdvancedUpdate);
  const cell::CellId c = testutil::center_cell(cfg);
  const auto N = w.grid().interference(c).size();
  offer_call(w, c, 1, sim::seconds(10));
  ASSERT_EQ(w.records().size(), 1u);
  const auto r = w.records()[0];
  EXPECT_EQ(r.outcome, proto::Outcome::kAcquiredLocal);
  EXPECT_EQ(r.delay(), 0);
  EXPECT_EQ(r.total_messages(), N);  // the ACQUISITION broadcast
  w.run_to_quiescence();
  // Plus the RELEASE broadcast at call end: the paper's 2N term.
  EXPECT_EQ(w.records()[0].total_messages(), 2 * N);
}

TEST(AdvancedUpdate, BorrowAsksOnlyPrimariesOfTheChannel) {
  const auto cfg = small_config();  // 3 primaries per cell
  World w(cfg, Scheme::kAdvancedUpdate);
  const cell::CellId c = testutil::center_cell(cfg);
  // Exhaust c's own primaries, then one more call forces a borrow.
  for (int i = 0; i < 3; ++i) offer_call(w, c, static_cast<traffic::CallId>(i + 1),
                                         sim::minutes(5));
  w.run_until(sim::seconds(1));
  const auto before_requests = w.sent_of(net::MsgKind::kRequest);
  offer_call(w, c, 10, sim::minutes(5));
  w.run_until(w.now() + sim::seconds(1));
  const auto requests =
      w.sent_of(net::MsgKind::kRequest) - before_requests;
  const auto r = w.records().back();
  EXPECT_EQ(r.outcome, proto::Outcome::kAcquiredUpdate);
  // n_p primaries of a channel within radius 2 is small (2-3), far below
  // the 18-cell region the basic schemes broadcast to.
  EXPECT_GE(requests, 1u);
  EXPECT_LE(requests, 3u);
  EXPECT_EQ(r.delay(), 2 * cfg.latency);
}

TEST(AdvancedUpdate, PrimaryOwnerRejectsItsBusyChannel) {
  const auto cfg = small_config();
  World w(cfg, Scheme::kAdvancedUpdate);
  const cell::CellId c = testutil::center_cell(cfg);
  // Saturate the center's own primaries AND every neighbour primary it
  // could borrow: we occupy the whole region from the center itself.
  for (int i = 0; i < 3; ++i) offer_call(w, c, static_cast<traffic::CallId>(i + 1),
                                         sim::minutes(30));
  w.run_until(sim::seconds(1));
  // Fill the interference neighbours' primaries too, so their owners say no.
  traffic::CallId id = 100;
  for (const cell::CellId j : w.grid().interference(c)) {
    for (int i = 0; i < 3; ++i) {
      offer_call(w, j, id++, sim::minutes(30));
      w.run_until(w.now() + sim::milliseconds(200));
    }
  }
  w.run_until(w.now() + sim::seconds(2));
  EXPECT_EQ(w.interference_violations(), 0u);
  // Another request at the center now has no free channel anywhere nearby.
  offer_call(w, c, 999, sim::minutes(5));
  w.run_until(w.now() + sim::seconds(5));
  const auto last = w.records().back();
  EXPECT_FALSE(proto::is_acquired(last.outcome));
}

TEST(AdvancedUpdate, ConcurrentBorrowersNeverCollide) {
  const auto cfg = small_config();
  World w(cfg, Scheme::kAdvancedUpdate);
  const cell::CellId a = testutil::center_cell(cfg);
  const cell::CellId b = w.grid().neighbors(a)[0];
  // Exhaust both cells' primaries.
  traffic::CallId id = 1;
  for (int i = 0; i < 3; ++i) {
    offer_call(w, a, id++, sim::minutes(30));
    offer_call(w, b, id++, sim::minutes(30));
  }
  w.run_until(sim::seconds(1));
  // Both borrow simultaneously, repeatedly.
  for (int round = 0; round < 5; ++round) {
    offer_call(w, a, id++, sim::minutes(30));
    offer_call(w, b, id++, sim::minutes(30));
    w.run_until(w.now() + sim::seconds(2));
  }
  EXPECT_EQ(w.interference_violations(), 0u);
  EXPECT_FALSE(w.node(a).in_use().intersects(w.node(b).in_use()));
}

TEST(AdvancedUpdate, BoundaryCellsOnlyBorrowArbitrationSafeColors) {
  const auto cfg = small_config();
  World w(cfg, Scheme::kAdvancedUpdate);
  // Every cell: for each colour it may borrow, the arbiters must cover all
  // potential conflictors (the static safety property from DESIGN.md).
  for (cell::CellId c = 0; c < w.grid().n_cells(); ++c) {
    const auto& n = dynamic_cast<const proto::AdvancedUpdateNode&>(w.node(c));
    for (int k = 0; k < w.plan().n_colors(); ++k) {
      if (!n.color_borrowable(k)) continue;
      for (const cell::CellId other : w.grid().interference(c)) {
        if (w.plan().color_of(other) == k) continue;
        bool covered = false;
        for (const cell::CellId p : w.grid().interference(c)) {
          if (w.plan().color_of(p) == k && w.grid().interferes(p, other)) {
            covered = true;
            break;
          }
        }
        EXPECT_TRUE(covered) << "cell " << c << " colour " << k;
      }
    }
  }
}

TEST(AdvancedUpdate, InteriorCellsCanBorrowEveryForeignColor) {
  // On a large grid the deep interior must have all 6 foreign colours
  // borrowable (the cluster-7 covering property).
  auto cfg = small_config();
  cfg.rows = 12;
  cfg.cols = 12;
  World w(cfg, Scheme::kAdvancedUpdate);
  const cell::CellId c = 5 * 12 + 5;
  const auto& n = dynamic_cast<const proto::AdvancedUpdateNode&>(w.node(c));
  int borrowable = 0;
  for (int k = 0; k < 7; ++k)
    if (n.color_borrowable(k)) ++borrowable;
  EXPECT_EQ(borrowable, 6);
}

}  // namespace
}  // namespace dca
