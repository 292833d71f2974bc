// Tests for the advanced search (allocated-set) scheme of Prakash,
// Shivaratri & Singhal — the paper's reference [8]: instant service from
// the allocated set, retention of channels across calls, new-channel
// allocation via region search, and the TRANSFER/AGREE/KEEP negotiation.
#include <gtest/gtest.h>

#include "proto/advanced_search.hpp"
#include "runner/world.hpp"
#include "test_util.hpp"

namespace dca {
namespace {

using proto::AdvancedSearchNode;
using runner::Scheme;
using runner::World;
using testutil::offer_call;
using testutil::small_config;

const AdvancedSearchNode& node_of(const World& w, cell::CellId c) {
  return dynamic_cast<const AdvancedSearchNode&>(w.node(c));
}

TEST(AdvancedSearch, StartsColdAndAllocatesOnDemand) {
  const auto cfg = small_config();
  World w(cfg, Scheme::kAdvancedSearch);
  for (cell::CellId c = 0; c < w.grid().n_cells(); ++c) {
    EXPECT_TRUE(node_of(w, c).allocated().empty());
  }
  const cell::CellId c = testutil::center_cell(cfg);
  offer_call(w, c, 1, sim::seconds(30));
  w.run_until(sim::seconds(1));
  const auto& r = w.collector().records().back();
  EXPECT_EQ(r.outcome, proto::Outcome::kAcquiredSearch);
  EXPECT_EQ(r.delay(), 2 * cfg.latency);
  EXPECT_EQ(node_of(w, c).allocated().size(), 1);
}

TEST(AdvancedSearch, ChannelStaysAllocatedAfterCallEnds) {
  const auto cfg = small_config();
  World w(cfg, Scheme::kAdvancedSearch);
  const cell::CellId c = testutil::center_cell(cfg);
  // Pull in 4 channels from the cold pool, then end all calls.
  for (int i = 0; i < 4; ++i) {
    offer_call(w, c, static_cast<traffic::CallId>(i + 1), sim::seconds(20));
    w.run_until(w.now() + sim::seconds(1));
  }
  w.run_to_quiescence();
  EXPECT_TRUE(w.node(c).in_use().empty());
  EXPECT_EQ(node_of(w, c).allocated().size(), 4)
      << "allocated channels are retained across calls";
  // A follow-up burst of 4 calls is now served entirely locally.
  const auto msgs_before = w.total_sent();
  for (int i = 0; i < 4; ++i) offer_call(w, c, static_cast<traffic::CallId>(10 + i),
                                         sim::seconds(20));
  EXPECT_EQ(w.total_sent(), msgs_before)
      << "hot spot re-served from the allocated set at zero cost";
  for (const auto& r : w.collector().records()) {
    if (r.call >= 10) EXPECT_EQ(r.outcome, proto::Outcome::kAcquiredLocal);
  }
}

TEST(AdvancedSearch, AllocatedHitIsInstantAndFree) {
  const auto cfg = small_config();
  World w(cfg, Scheme::kAdvancedSearch);
  const cell::CellId c = testutil::center_cell(cfg);
  offer_call(w, c, 1, sim::seconds(5));  // allocates via search
  w.run_to_quiescence();     // ends; channel stays allocated
  const auto msgs = w.total_sent();
  offer_call(w, c, 2, sim::seconds(5));
  const auto& r = w.collector().records().back();
  EXPECT_EQ(r.outcome, proto::Outcome::kAcquiredLocal);
  EXPECT_EQ(r.delay(), 0);
  EXPECT_EQ(w.total_sent(), msgs);
}

TEST(AdvancedSearch, AllocationsOfInterferingCellsStayDisjoint) {
  const auto cfg = small_config();
  World w(cfg, Scheme::kAdvancedSearch);
  traffic::CallId id = 1;
  for (int wave = 0; wave < 5; ++wave) {
    for (cell::CellId c = 0; c < w.grid().n_cells(); c += 2)
      offer_call(w, c, id++, sim::seconds(45));
    w.run_until(w.now() + sim::seconds(12));
  }
  w.run_to_quiescence();
  EXPECT_EQ(w.interference_violations(), 0u);
  EXPECT_TRUE(w.quiescent());
  for (cell::CellId a = 0; a < w.grid().n_cells(); ++a) {
    for (const cell::CellId b : w.grid().interference(a)) {
      EXPECT_FALSE(node_of(w, a).allocated().intersects(node_of(w, b).allocated()))
          << "cells " << a << "," << b;
    }
  }
}

TEST(AdvancedSearch, TransferMovesIdleAllocatedChannel) {
  const auto cfg = small_config();  // 21 channels, 3 primaries
  World w(cfg, Scheme::kAdvancedSearch);
  const cell::CellId hot = testutil::center_cell(cfg);
  // Saturate the region's unallocated pool: every neighbour pulls in
  // enough channels that nothing is left unallocated around `hot`.
  traffic::CallId id = 1;
  for (int wave = 0; wave < 7; ++wave) {
    for (const cell::CellId j : w.grid().interference(hot)) {
      offer_call(w, j, id++, sim::seconds(25));
    }
    w.run_until(w.now() + sim::seconds(6));
  }
  w.run_to_quiescence();  // all calls ended; allocations remain
  const cell::ChannelSet region = node_of(w, hot).region_allocated();
  ASSERT_EQ(region.size(), cfg.n_channels)
      << "setup: the whole spectrum is allocated somewhere in the region";

  // The (cold) hot cell now needs channels, but everything is allocated
  // elsewhere: every request must succeed via TRANSFER of idle allocated
  // channels.
  for (int i = 0; i < 4; ++i) offer_call(w, hot, id++, sim::minutes(2));
  w.run_until(w.now() + sim::seconds(5));
  const auto& r = w.collector().records().back();
  EXPECT_EQ(r.outcome, proto::Outcome::kAcquiredUpdate)
      << "transfer outcome is classified as update-style";
  EXPECT_EQ(node_of(w, hot).transfers_in(), 4u);
  EXPECT_GT(w.sent_of(net::MsgKind::kTransfer), 0u);
  EXPECT_EQ(w.interference_violations(), 0u);
}

TEST(AdvancedSearch, ConcurrentSearchersNeverAllocateSameChannel) {
  const auto cfg = small_config();
  World w(cfg, Scheme::kAdvancedSearch);
  const cell::CellId a = testutil::center_cell(cfg);
  const cell::CellId b = w.grid().neighbors(a)[0];
  traffic::CallId id = 1;
  // Exhaust both primary allocations, then race for new allocations.
  for (int i = 0; i < 3; ++i) {
    offer_call(w, a, id++, sim::minutes(10));
    offer_call(w, b, id++, sim::minutes(10));
  }
  for (int i = 0; i < 4; ++i) {
    offer_call(w, a, id++, sim::minutes(10));
    offer_call(w, b, id++, sim::minutes(10));
    w.run_until(w.now() + sim::seconds(2));
  }
  EXPECT_EQ(w.interference_violations(), 0u);
  EXPECT_FALSE(node_of(w, a).allocated().intersects(node_of(w, b).allocated()));
}

TEST(AdvancedSearch, OwnerDeniesBusyOrDoublyRequestedChannel) {
  const auto cfg = small_config();
  World w(cfg, Scheme::kAdvancedSearch);
  // Stress the transfer path from two sides simultaneously and count
  // denials; correctness is the absence of violations and of starvation
  // when candidates remain.
  const cell::CellId hot1 = testutil::center_cell(cfg);
  const cell::CellId hot2 = w.grid().interference(hot1).back();
  traffic::CallId id = 1;
  for (int wave = 0; wave < 10; ++wave) {
    for (int i = 0; i < 2; ++i) {
      offer_call(w, hot1, id++, sim::seconds(40));
      offer_call(w, hot2, id++, sim::seconds(40));
    }
    w.run_until(w.now() + sim::seconds(10));
  }
  w.run_to_quiescence();
  EXPECT_TRUE(w.quiescent());
  EXPECT_EQ(w.interference_violations(), 0u);
}

TEST(AdvancedSearch, BlocksWhenRegionFullyBusy) {
  const auto cfg = small_config();
  World w(cfg, Scheme::kAdvancedSearch);
  const cell::CellId c = testutil::center_cell(cfg);
  for (int i = 0; i < 21; ++i) {
    offer_call(w, c, static_cast<traffic::CallId>(i + 1), sim::minutes(30));
    w.run_until(w.now() + sim::seconds(1));
  }
  EXPECT_EQ(w.node(c).in_use().size(), 21);
  offer_call(w, c, 99, sim::minutes(30));
  w.run_until(w.now() + sim::seconds(2));
  EXPECT_FALSE(proto::is_acquired(w.collector().records().back().outcome));
  w.run_to_quiescence();
  EXPECT_TRUE(w.quiescent());
}

}  // namespace
}  // namespace dca
