// Unit tests for the network substrate: timestamps, the latency table, the
// link enumeration, and the transport's plain path — delivery, per-link FIFO, canonical
// same-instant order and counters.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "cell/grid.hpp"
#include "net/latency.hpp"
#include "net/link_table.hpp"
#include "net/message.hpp"
#include "net/timestamp.hpp"
#include "net/transport.hpp"
#include "net_harness.hpp"
#include "sim/log.hpp"

namespace dca::net {
namespace {

TEST(Timestamp, TotalOrderWithNodeTieBreak) {
  const Timestamp a{5, 1}, b{5, 2}, c{6, 0};
  EXPECT_TRUE(a < b);
  EXPECT_TRUE(b < c);
  EXPECT_TRUE(a < c);
  EXPECT_FALSE(b < a);
  EXPECT_TRUE(b > a);
  EXPECT_FALSE(a < a);
}

TEST(LamportClock, TickIncrements) {
  LamportClock clk(3);
  const Timestamp t1 = clk.tick();
  const Timestamp t2 = clk.tick();
  EXPECT_TRUE(t1 < t2);
  EXPECT_EQ(t1.node, 3);
}

TEST(LamportClock, WitnessAdvancesPastObserved) {
  LamportClock a(0), b(1);
  a.tick();
  a.tick();
  const Timestamp ta = a.tick();  // count 3
  b.witness(ta);
  const Timestamp tb = b.tick();
  EXPECT_TRUE(ta < tb) << "a reply after witnessing must be causally later";
}

TEST(LamportClock, WitnessOlderTimestampIsNoop) {
  LamportClock a(0);
  a.tick();
  a.tick();
  a.witness(Timestamp{1, 9});
  EXPECT_EQ(a.peek().count, 2u);
}

// The four mutually-interfering cells of a 2x2 grid: 12 directed links.
const LinkTable& four_cell_links() {
  static const cell::HexGrid grid{2, 2, 2};
  static const LinkTable links{grid};
  return links;
}

TEST(Latency, FixedIsConstant) {
  const LinkTable& links = four_cell_links();
  Latency l(links, 5000, 0, 1);
  for (LinkId lid = 0; lid < links.n_links(); ++lid) {
    EXPECT_EQ(l.delay(lid), 5000);
    EXPECT_EQ(l.floor(lid), 5000);
  }
  EXPECT_EQ(l.max_one_way(), 5000);
  EXPECT_EQ(l.min_one_way(), 5000);
}

TEST(Latency, JitterStaysInRange) {
  const LinkTable& links = four_cell_links();
  Latency l(links, 200, 100, 1);
  const LinkId lid = links.require(0, 1);
  sim::Duration lo = 200, hi = 100;
  for (int i = 0; i < 1000; ++i) {
    const auto d = l.delay(lid);
    EXPECT_GE(d, 100);
    EXPECT_LE(d, 200);
    lo = std::min(lo, d);
    hi = std::max(hi, d);
  }
  EXPECT_LT(lo, hi) << "draws must actually vary";
  EXPECT_EQ(l.floor(lid), 100);
  EXPECT_EQ(l.max_one_way(), 200);
  EXPECT_EQ(l.min_one_way(), 100);
  // The floor never drops below 1 us, however wide the jitter.
  const Latency wide(links, 5, 10, 1);
  EXPECT_EQ(wide.min_one_way(), 1);
  EXPECT_EQ(wide.max_one_way(), 5);
}

TEST(Latency, JitterRepeatsDrawForDrawUnderOneSeed) {
  const LinkTable& links = four_cell_links();
  // Each link draws from its own stream, so the delays a link sees depend
  // on the seed and the link alone, not on what other links drew between.
  Latency a(links, 5000, 4000, 42);
  Latency b(links, 5000, 4000, 42);
  const auto n = static_cast<std::size_t>(links.n_links());
  std::vector<std::vector<sim::Duration>> seq_a(n), seq_b(n);
  for (int round = 0; round < 20; ++round) {
    for (LinkId lid = 0; lid < links.n_links(); ++lid) {
      seq_a[static_cast<std::size_t>(lid)].push_back(a.delay(lid));
    }
  }
  for (LinkId lid = links.n_links() - 1; lid >= 0; --lid) {
    for (int round = 0; round < 20; ++round) {
      seq_b[static_cast<std::size_t>(lid)].push_back(b.delay(lid));
    }
  }
  EXPECT_EQ(seq_a, seq_b);
  EXPECT_NE(seq_a[0], seq_a[1]) << "links draw from distinct streams";
  Latency c(links, 5000, 4000, 43);
  std::vector<sim::Duration> other;
  for (int round = 0; round < 20; ++round) other.push_back(c.delay(0));
  EXPECT_NE(other, seq_a[0]) << "another seed, another schedule";
}

TEST(Latency, MatrixOverridesPerLink) {
  const LinkTable& links = four_cell_links();
  Latency l(links, 1000, 0, 1);
  l.set(2, 3, 50);
  l.set(3, 2, 9000);
  EXPECT_EQ(l.delay(links.require(2, 3)), 50);
  EXPECT_EQ(l.delay(links.require(3, 2)), 9000);
  EXPECT_EQ(l.delay(links.require(0, 1)), 1000);
  EXPECT_EQ(l.floor(links.require(2, 3)), 50);
  EXPECT_EQ(l.floor(links.require(0, 1)), 1000);
  EXPECT_EQ(l.max_one_way(), 9000);
  EXPECT_EQ(l.min_one_way(), 50);
  // Re-pinning a link moves the bounds with it.
  l.set(3, 2, 1000);
  EXPECT_EQ(l.max_one_way(), 1000);
  EXPECT_EQ(l.min_one_way(), 50);
}

TEST(LatencyDeathTest, SetOnANonLinkAborts) {
  const LinkTable& links = four_cell_links();
  Latency l(links, 1000, 0, 1);
  EXPECT_DEATH(l.set(1, 1, 10), "no interference link 1 -> 1");
}

class NetworkFixture : public ::testing::Test {
 protected:
  testnet::Harness h;
  Transport& net = h.transport;
  std::vector<Message> delivered;

  void SetUp() override {
    net.set_receiver([this](const Message& m) { delivered.push_back(m); });
  }

  static Message mk(cell::CellId from, cell::CellId to, MsgKind kind) {
    Message m;
    m.kind = kind;
    m.from = from;
    m.to = to;
    return m;
  }
};

TEST_F(NetworkFixture, DeliversAfterLatency) {
  net.send(mk(0, 1, MsgKind::kRequest));
  EXPECT_TRUE(delivered.empty());
  h.run();
  ASSERT_EQ(delivered.size(), 1u);
  EXPECT_EQ(h.now(), 100);
  EXPECT_EQ(delivered[0].from, 0);
  EXPECT_EQ(delivered[0].to, 1);
}

TEST_F(NetworkFixture, PerLinkFifoWithFixedLatency) {
  for (int i = 0; i < 5; ++i) {
    Message m = mk(0, 1, MsgKind::kRelease);
    m.channel = i;
    net.send(m);
  }
  h.run();
  ASSERT_EQ(delivered.size(), 5u);
  for (int i = 0; i < 5; ++i) EXPECT_EQ(delivered[static_cast<size_t>(i)].channel, i);
}

TEST(NetworkFifo, JitteredLinkNeverReorders) {
  // Delays drawn from [10, 1000] must not let a later send overtake an
  // earlier one on the SAME directed link (the paper's protocols assume
  // ordered channels; see transport.hpp).
  testnet::Harness h({}, 7, /*t=*/1000, /*jitter=*/990);
  std::vector<int> order;
  std::vector<sim::SimTime> at;
  h.transport.set_receiver([&](const Message& m) {
    order.push_back(m.channel);
    at.push_back(h.now());
  });
  constexpr int kSends = 200;
  for (int i = 0; i < kSends; ++i) {
    Message m;
    m.kind = MsgKind::kRelease;
    m.from = 0;
    m.to = 1;
    m.channel = i;
    h.transport.send(m);
  }
  h.run();
  ASSERT_EQ(order.size(), static_cast<std::size_t>(kSends));
  bool floored = false;
  for (int i = 0; i < kSends; ++i) {
    EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
    if (i > 0 && at[static_cast<std::size_t>(i)] == at[static_cast<std::size_t>(i - 1)]) {
      floored = true;
    }
  }
  EXPECT_TRUE(floored) << "a short draw after a long one must wait for it";
}

TEST(NetworkFifo, DifferentLinksStillRace) {
  // The FIFO floor is per directed link: a fast message on another link
  // may still arrive first.
  testnet::Harness h;
  h.latency.set(0, 1, 1000);
  h.latency.set(0, 2, 10);
  std::vector<cell::CellId> order;
  h.transport.set_receiver([&](const Message& m) { order.push_back(m.to); });
  Message slow;
  slow.kind = MsgKind::kRelease;
  slow.from = 0;
  slow.to = 1;
  h.transport.send(slow);
  Message fast = slow;
  fast.to = 2;
  h.transport.send(fast);
  h.run();
  ASSERT_EQ(order.size(), 2u);
  EXPECT_EQ(order[0], 2) << "cross-link overtaking is allowed";
  EXPECT_EQ(order[1], 1);
}

TEST_F(NetworkFixture, CountersByKind) {
  // Counted at send time, before anything is delivered.
  net.send(mk(0, 1, MsgKind::kRequest));
  net.send(mk(1, 0, MsgKind::kResponse));
  net.send(mk(1, 2, MsgKind::kResponse));
  EXPECT_EQ(net.total_sent(), 3u);
  EXPECT_EQ(net.sent_of(MsgKind::kRequest), 1u);
  EXPECT_EQ(net.sent_of(MsgKind::kResponse), 2u);
  EXPECT_EQ(net.sent_of(MsgKind::kAcquisition), 0u);
  EXPECT_EQ(net.cross_shard_sent(), 0u);  // one shard
  h.run();
  EXPECT_EQ(delivered.size(), 3u);
  EXPECT_EQ(net.total_sent(), 3u);
}

TEST_F(NetworkFixture, SameInstantArrivalsResolveBySourceThenSendOrder) {
  // Fixed latency lands all four sends on one instant at cell 0: they fire
  // in canonical (source cell, per-link send order), not in send order.
  net.send(mk(3, 0, MsgKind::kRequest));
  net.send(mk(1, 0, MsgKind::kResponse));
  net.send(mk(3, 0, MsgKind::kRelease));
  net.send(mk(2, 0, MsgKind::kChangeMode));
  h.run();
  ASSERT_EQ(delivered.size(), 4u);
  EXPECT_EQ(delivered[0].kind, MsgKind::kResponse);    // from 1
  EXPECT_EQ(delivered[1].kind, MsgKind::kChangeMode);  // from 2
  EXPECT_EQ(delivered[2].kind, MsgKind::kRequest);     // from 3, first
  EXPECT_EQ(delivered[3].kind, MsgKind::kRelease);     // from 3, second
}

TEST_F(NetworkFixture, ObserverSeesEveryMessageAtSendTime) {
  // The per-message log observes each send when it happens, not when it
  // is delivered.
  sim::TraceLog log;
  std::vector<std::string> lines;
  log.set_sink([&](std::string_view line) { lines.emplace_back(line); });
  net.set_log(&log);
  net.send(mk(0, 1, MsgKind::kAcquisition));
  ASSERT_EQ(lines.size(), 1u) << "observer fires at send, not delivery";
  EXPECT_NE(lines[0].find("0 -> 1 ACQUISITION"), std::string::npos) << lines[0];
  h.run();
  EXPECT_EQ(lines.size(), 1u);
  EXPECT_EQ(delivered.size(), 1u);
}

TEST_F(NetworkFixture, UseSetPayloadSurvivesDelivery) {
  // The set rides behind the header's handle, the way the runner sends
  // it: stored at the send, read back through the delivered copy.
  HandlePool<SetPayload> store;
  SetPayload sets{cell::ChannelSet(70), {}};
  sets.use.insert(13);
  sets.use.insert(42);
  Message m = mk(3, 1, MsgKind::kResponse);
  m.res_type = ResType::kSearchReply;
  m.sets = store.put(std::move(sets));
  net.send(m);
  h.run();
  ASSERT_EQ(delivered.size(), 1u);
  ASSERT_EQ(delivered[0].sets, m.sets);
  const cell::ChannelSet& use = store[delivered[0].sets].use;
  EXPECT_TRUE(use.contains(13));
  EXPECT_TRUE(use.contains(42));
  EXPECT_EQ(use.size(), 2);
}

// Link ids enumerate (from, to) over every interference pair in ascending
// order; id() inverts endpoints() and answers kNoLink for everything else,
// out-of-range cells included.
TEST(LinkTable, IdsEnumerateInterferencePairsInOrder) {
  for (const cell::Wrap wrap : {cell::Wrap::kBounded, cell::Wrap::kToroidal}) {
    const cell::HexGrid grid(8, 7, 2, wrap);
    const LinkTable links(grid);
    LinkId expected = 0;
    for (cell::CellId from = -1; from <= grid.n_cells(); ++from) {
      for (cell::CellId to = -1; to <= grid.n_cells(); ++to) {
        const bool pair = grid.valid(from) && grid.valid(to) && grid.interferes(from, to);
        const LinkId lid = links.id(from, to);
        if (!pair) {
          EXPECT_EQ(lid, kNoLink) << from << " -> " << to;
          continue;
        }
        ASSERT_EQ(lid, expected) << from << " -> " << to;
        EXPECT_EQ(links.endpoints(lid), std::make_pair(from, to));
        ++expected;
      }
    }
    EXPECT_EQ(links.n_links(), expected);
  }
  EXPECT_EQ(LinkTable().id(0, 1), kNoLink);
  EXPECT_TRUE(LinkTable().empty());
}

TEST(MessageNames, KindNamesMatchPaper) {
  Message m;
  m.kind = MsgKind::kChangeMode;
  EXPECT_EQ(m.kind_name(), "CHANGE_MODE");
  m.kind = MsgKind::kAcquisition;
  EXPECT_EQ(m.kind_name(), "ACQUISITION");
}

}  // namespace
}  // namespace dca::net
