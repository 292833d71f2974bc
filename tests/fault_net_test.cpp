// Unit tests for the deterministic fault-injection layer and its
// reliable-transport sublayer: whatever the fault cocktail, the protocol
// layer must still observe exactly-once, per-link FIFO delivery, and the
// entire fault schedule must replay bit-identically from the seed.
#include <gtest/gtest.h>

#include <memory>
#include <tuple>
#include <vector>

#include "net/fault.hpp"
#include "net/latency.hpp"
#include "net/message.hpp"
#include "net/transport.hpp"
#include "net_harness.hpp"
#include "sim/trace.hpp"

namespace dca::net {
namespace {

class FaultNetFixture : public ::testing::Test {
 protected:
  std::unique_ptr<testnet::Harness> h;
  std::vector<Message> delivered;

  /// Builds the transport under `cfg` (faults are fixed at construction).
  Transport& start(const FaultConfig& cfg = {}, std::uint64_t seed = 7) {
    h = std::make_unique<testnet::Harness>(cfg, seed);
    h->transport.set_receiver([this](const Message& m) { delivered.push_back(m); });
    return h->transport;
  }

  static Message mk(cell::CellId from, cell::CellId to, int tag) {
    Message m;
    m.kind = MsgKind::kRelease;
    m.from = from;
    m.to = to;
    m.channel = tag;
    return m;
  }

  void send_burst(Transport& net, int n) {
    for (int i = 0; i < n; ++i) net.send(mk(0, 1, i));
  }

  void expect_exactly_once_in_order(int n) {
    ASSERT_EQ(delivered.size(), static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i)
      EXPECT_EQ(delivered[static_cast<std::size_t>(i)].channel, i);
  }
};

TEST_F(FaultNetFixture, DropsAreRetransmittedExactlyOnceInOrder) {
  FaultConfig cfg;
  cfg.drop_prob = 0.4;
  Transport& net = start(cfg, /*seed=*/7);
  send_burst(net, 60);
  h->run();
  expect_exactly_once_in_order(60);
  EXPECT_GT(net.stats().frames_dropped, 0u);
  EXPECT_GT(net.stats().retransmissions, 0u);
  // The paper's message-complexity counter must not see transport frames.
  EXPECT_EQ(net.total_sent(), 60u);
}

TEST_F(FaultNetFixture, DuplicatesAreFiltered) {
  FaultConfig cfg;
  cfg.dup_prob = 1.0;  // every frame delivered twice
  Transport& net = start(cfg);
  send_burst(net, 20);
  h->run();
  expect_exactly_once_in_order(20);
  EXPECT_EQ(net.stats().frames_duplicated, 20u);
}

TEST_F(FaultNetFixture, JitterCannotReorderALink) {
  FaultConfig cfg;
  cfg.jitter = 5000;  // 50x the base latency: wild physical reordering
  Transport& net = start(cfg);
  send_burst(net, 40);
  h->run();
  expect_exactly_once_in_order(40);
}

TEST_F(FaultNetFixture, FullCocktailStillExactlyOnceInOrder) {
  FaultConfig cfg;
  cfg.drop_prob = 0.3;
  cfg.dup_prob = 0.3;
  cfg.jitter = 2000;
  Transport& net = start(cfg, 99);
  for (int i = 0; i < 30; ++i) {
    net.send(mk(0, 1, i));
    net.send(mk(2, 1, 100 + i));  // second link interleaved
  }
  h->run();
  ASSERT_EQ(delivered.size(), 60u);
  int next01 = 0, next21 = 100;
  for (const Message& m : delivered) {
    if (m.from == 0) {
      EXPECT_EQ(m.channel, next01++);
    } else {
      EXPECT_EQ(m.channel, next21++);
    }
  }
  EXPECT_EQ(next01, 30);
  EXPECT_EQ(next21, 130);
}

TEST_F(FaultNetFixture, PauseHoldsDeliveryAndResumeFlushesInOrder) {
  Transport& net = start();
  net.pause(1);
  EXPECT_TRUE(net.is_paused(1));
  send_burst(net, 5);
  net.send(mk(0, 2, 77));  // other destinations unaffected
  h->run();
  ASSERT_EQ(delivered.size(), 1u);
  EXPECT_EQ(delivered[0].to, 2);

  delivered.clear();
  net.resume(1);
  EXPECT_FALSE(net.is_paused(1));
  expect_exactly_once_in_order(5);
}

TEST_F(FaultNetFixture, PausedStationKeepsAckingUnderDrops) {
  // A paused allocator process on a live host: transport ACKs still flow,
  // so the sender's pending window drains and delivery completes (in
  // order) the moment the process resumes.
  FaultConfig cfg;
  cfg.drop_prob = 0.3;
  Transport& net = start(cfg, 13);
  net.pause(1);
  send_burst(net, 25);
  h->run();
  EXPECT_TRUE(delivered.empty());
  net.resume(1);
  expect_exactly_once_in_order(25);
}

TEST_F(FaultNetFixture, RecorderSeesDropsDupsAndRetransmits) {
  FaultConfig cfg;
  cfg.drop_prob = 0.4;
  cfg.dup_prob = 0.4;
  Transport& net = start(cfg);
  sim::TraceRecorder rec;
  net.set_recorder([&rec](const sim::TraceEvent& e) { rec.emit(e); });
  send_burst(net, 40);
  h->run();
  std::uint64_t drops = 0, dups = 0, rexmits = 0;
  for (const sim::TraceEvent& e : rec.events()) {
    if (e.kind == sim::TraceKind::kDrop) ++drops;
    if (e.kind == sim::TraceKind::kDup) ++dups;
    if (e.kind == sim::TraceKind::kRetransmit) ++rexmits;
  }
  EXPECT_EQ(drops, net.stats().frames_dropped);
  EXPECT_EQ(dups, net.stats().frames_duplicated);
  EXPECT_EQ(rexmits, net.stats().retransmissions);
  EXPECT_GT(drops, 0u);
}

TEST_F(FaultNetFixture, PartitionCutsTrafficUntilTheHeal) {
  FaultConfig cfg;
  cfg.partitions.push_back(PartitionSpec{{1}, 0, 50'000});  // cell 1 cut off
  Transport& net = start(cfg);
  std::vector<sim::SimTime> at;
  net.set_receiver([&](const Message& m) {
    delivered.push_back(m);
    at.push_back(h->now());
  });
  send_burst(net, 10);
  net.send(mk(2, 3, 99));  // a link that does not cross the cut keeps working
  h->run();
  ASSERT_EQ(delivered.size(), 11u);
  EXPECT_EQ(delivered.front().channel, 99);
  EXPECT_EQ(at.front(), 100);
  for (std::size_t i = 1; i < delivered.size(); ++i) {
    EXPECT_EQ(delivered[i].channel, static_cast<int>(i - 1));
    EXPECT_GE(at[i], 50'000) << "nothing crosses the cut before the heal";
  }
  // Severed frames are losses (the retransmission timer carries the
  // traffic over the heal), not protocol messages.
  EXPECT_GT(net.stats().frames_dropped, 0u);
  EXPECT_GT(net.stats().retransmissions, 0u);
  EXPECT_EQ(net.total_sent(), 11u);
}

using DeliveryLog = std::vector<std::tuple<sim::SimTime, cell::CellId, int>>;

DeliveryLog run_faulty_burst(std::uint64_t seed) {
  FaultConfig cfg;
  cfg.drop_prob = 0.25;
  cfg.dup_prob = 0.25;
  cfg.jitter = 1500;
  testnet::Harness h(cfg, seed);
  Transport& net = h.transport;
  DeliveryLog log;
  net.set_receiver([&](const Message& m) {
    log.emplace_back(h.now(), m.from, m.channel);
  });
  for (int i = 0; i < 50; ++i) {
    Message m;
    m.kind = MsgKind::kRequest;
    m.from = static_cast<cell::CellId>(i % 4);
    m.to = static_cast<cell::CellId>((i + 1) % 4);
    m.channel = i;
    net.send(m);
  }
  h.run();
  return log;
}

TEST(FaultNetDeterminism, SameSeedSameDeliverySchedule) {
  const DeliveryLog a = run_faulty_burst(42);
  const DeliveryLog b = run_faulty_burst(42);
  EXPECT_EQ(a, b);
}

TEST(FaultNetDeterminism, DifferentSeedDifferentFaultSchedule) {
  const DeliveryLog a = run_faulty_burst(42);
  const DeliveryLog b = run_faulty_burst(43);
  EXPECT_NE(a, b) << "fault schedule should be a function of the seed";
}

}  // namespace
}  // namespace dca::net
