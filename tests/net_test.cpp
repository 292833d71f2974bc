// Unit tests for the network substrate: timestamps, latency models, and
// the transport's plain path — delivery, per-link FIFO, canonical
// same-instant order and counters.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "cell/grid.hpp"
#include "net/latency.hpp"
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

TEST(Latency, FixedIsConstant) {
  FixedLatency l(5000);
  EXPECT_EQ(l.delay(0, 1), 5000);
  EXPECT_EQ(l.delay(7, 3), 5000);
  EXPECT_EQ(l.max_one_way(), 5000);
}

TEST(Latency, JitterStaysInRange) {
  JitterLatency l(100, 200, sim::RngStream(1));
  for (int i = 0; i < 1000; ++i) {
    const auto d = l.delay(0, 1);
    EXPECT_GE(d, 100);
    EXPECT_LE(d, 200);
  }
  EXPECT_EQ(l.max_one_way(), 200);
}

TEST(Latency, MatrixOverridesPerLink) {
  MatrixLatency l(1000);
  l.set(2, 3, 50);
  l.set(3, 2, 9000);
  EXPECT_EQ(l.delay(2, 3), 50);
  EXPECT_EQ(l.delay(3, 2), 9000);
  EXPECT_EQ(l.delay(0, 1), 1000);
  EXPECT_EQ(l.max_one_way(), 9000);
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
  // A latency model that draws wildly different delays must not let a
  // later send overtake an earlier one on the SAME directed link (the
  // paper's protocols assume ordered channels; see transport.hpp).
  class SawtoothLatency final : public LatencyModel {
   public:
    sim::Duration delay(cell::CellId, cell::CellId) override {
      // 1000, 10, 1000, 10, ... — every even message would be overtaken
      // by the next odd one without the FIFO floor.
      return (++n_ % 2) ? 1000 : 10;
    }
    [[nodiscard]] sim::Duration max_one_way() const override { return 1000; }

   private:
    int n_ = 0;
  };
  testnet::Harness h({}, 7, std::make_unique<SawtoothLatency>());
  std::vector<int> order;
  h.transport.set_receiver([&](const Message& m) { order.push_back(m.channel); });
  for (int i = 0; i < 10; ++i) {
    Message m;
    m.kind = MsgKind::kRelease;
    m.from = 0;
    m.to = 1;
    m.channel = i;
    h.transport.send(m);
  }
  h.run();
  ASSERT_EQ(order.size(), 10u);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<size_t>(i)], i);
}

TEST(NetworkFifo, DifferentLinksStillRace) {
  // The FIFO floor is per directed link: a fast message on another link
  // may still arrive first.
  class PerDestLatency final : public LatencyModel {
   public:
    sim::Duration delay(cell::CellId, cell::CellId to) override {
      return to == 1 ? 1000 : 10;
    }
    [[nodiscard]] sim::Duration max_one_way() const override { return 1000; }
  };
  testnet::Harness h({}, 7, std::make_unique<PerDestLatency>());
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
  log.set_level(sim::LogLevel::kTrace);
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
  Message m = mk(3, 1, MsgKind::kResponse);
  m.res_type = ResType::kSearchReply;
  m.use = cell::ChannelSet(70);
  m.use.insert(13);
  m.use.insert(42);
  net.send(m);
  h.run();
  ASSERT_EQ(delivered.size(), 1u);
  EXPECT_TRUE(delivered[0].use.contains(13));
  EXPECT_TRUE(delivered[0].use.contains(42));
  EXPECT_EQ(delivered[0].use.size(), 2);
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
