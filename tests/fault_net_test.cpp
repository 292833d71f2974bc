// Unit tests for the deterministic fault-injection layer and its
// reliable-transport sublayer: whatever the fault cocktail, the protocol
// layer must still observe exactly-once, per-link FIFO delivery, and the
// entire fault schedule must replay bit-identically from the seed.
#include <gtest/gtest.h>

#include <memory>
#include <tuple>
#include <vector>

#include "cell/grid.hpp"
#include "net/fault.hpp"
#include "net/latency.hpp"
#include "net/link_table.hpp"
#include "net/message.hpp"
#include "net/transport.hpp"
#include "net_harness.hpp"
#include "runner/experiment.hpp"
#include "sim/shard.hpp"
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

TEST_F(FaultNetFixture, PayloadPoolDrainsAfterCocktailAndHealedPartition) {
  // Every payload in flight sits once in a per-shard pool: the sender's
  // until the cumulative ack, the receiver's while parked past a gap.
  // Draining to quiescence must hand every slot back and leave both
  // windows empty, first under drop / dup / jitter, then across a cut.
  // A send ring that doubled while its window was wide must be back at
  // its floor once the window drains.
  FaultConfig cfg;
  cfg.drop_prob = 0.3;
  cfg.dup_prob = 0.3;
  cfg.jitter = 2000;
  constexpr sim::SimTime kCut = 10'000'000;
  constexpr sim::SimTime kHeal = 11'000'000;
  cfg.partitions.push_back(PartitionSpec{{1}, kCut, kHeal});
  Transport& net = start(cfg, 99);
  // Two links carry data (0 -> 1 and 2 -> 1); acks use no send ring.
  static constexpr std::size_t kFloorSlots = 2 * SeqRing<int>::kMinCapacity;
  auto expect_drained = [&net] {
    const Transport::Occupancy o = net.occupancy();
    EXPECT_EQ(o.unacked, 0u);
    EXPECT_EQ(o.reordering, 0u);
    EXPECT_EQ(o.payloads, 0u) << "a payload handle was never released";
    EXPECT_EQ(o.send_ring_slots, kFloorSlots) << "a send ring stayed grown";
  };
  auto send_pairs = [&](int base) {
    for (int i = 0; i < 30; ++i) {
      net.send(mk(0, 1, base + i));
      net.send(mk(2, 1, base + 100 + i));  // second link interleaved
    }
  };

  send_pairs(0);
  h->run();
  ASSERT_LT(h->now(), kCut) << "the cocktail must drain before the cut";
  ASSERT_EQ(delivered.size(), 60u);
  EXPECT_GT(net.occupancy().payload_peak, 0u);
  expect_drained();

  // Inside the cut every frame is severed, so each payload waits in its
  // sender's window until the heal.
  Transport::Occupancy mid;
  h->kernel.schedule_local(0, sim::kClassTimer, kCut + 100'000,
                           [&] { send_pairs(1000); });
  h->kernel.schedule_local(0, sim::kClassTimer, kCut + 500'000,
                           [&] { mid = net.occupancy(); });
  h->run();
  EXPECT_EQ(mid.unacked, 60u);
  EXPECT_EQ(mid.payloads, 60u);
  EXPECT_EQ(mid.reordering, 0u);
  EXPECT_GE(mid.payload_peak, 60u);
  // 30 frames wait on each link, more than a floor ring holds.
  EXPECT_GT(mid.send_ring_slots, kFloorSlots);
  ASSERT_EQ(delivered.size(), 120u);
  int next01 = 1000, next21 = 1100;
  for (std::size_t i = 60; i < delivered.size(); ++i) {
    const Message& m = delivered[i];
    EXPECT_EQ(m.channel, m.from == 0 ? next01++ : next21++);
  }
  EXPECT_EQ(next01, 1030);
  EXPECT_EQ(next21, 1130);
  expect_drained();
}

TEST(FaultNetFootprint, LossyWorldTransportBytesPerLinkWithinBudget) {
  // dcabench's lossy_crash grid, shortened to 20 s with a 5 s partition
  // of six corner cells and no crashes.
  runner::ScenarioConfig c;
  c.rows = 16;
  c.cols = 16;
  c.interference_radius = 2;
  c.n_channels = 70;
  c.cluster = 7;
  c.mean_holding_s = 5.0;
  c.latency = sim::milliseconds(5);
  c.seed = 7;
  c.duration = sim::seconds(20);
  c.warmup = sim::seconds(5);
  c.fault.drop_prob = 0.05;
  c.fault.dup_prob = 0.01;
  c.fault.jitter = sim::milliseconds(2);
  c.fault.partitions.push_back(
      PartitionSpec{{0, 1, 2, 16, 17, 18}, sim::seconds(10), sim::seconds(15)});
  c.request_timeout = sim::milliseconds(100);
  const runner::RunResult r = runner::run_uniform(c, runner::Scheme::kAdaptive, 0.9);
  ASSERT_TRUE(r.quiescent);
  ASSERT_EQ(r.violations, 0u);

  const cell::HexGrid grid(c.rows, c.cols, c.interference_radius);
  const auto n_links = static_cast<double>(LinkTable(grid).n_links());
  const double per_link = static_cast<double>(r.transport_bytes) / n_links;
  // Per link: a 64 B LinkTx and a 56 B LinkRx; a send ring of 16 slots of
  // 24 B (seq + 16 B PendingFrame), 384 B, since the rings that doubled
  // during the cut halve again as it drains; a reorder ring of 16 slots of
  // 16 B (seq + handle) on the links that ever reordered, ~200 B on
  // average; a 56 B fault stream whose 2.5 KiB engine every link builds at
  // its fifth draw (2,560 B); and a share of the payload pool, whose 64 B
  // slots (the 56 B Message header and a free-list link) come in chunks
  // of 256 and peaked at ~4.1k live payloads (~70 B). Measured: 3,331 B
  // per link over 4,016 links; a 136 B Message inline in every ring slot
  // would make it ~7.3 KiB. The 5 KiB budget is ~1.5x the measurement.
  constexpr double kBytesPerLinkBudget = 5.0 * 1024;
  EXPECT_GT(r.transport_bytes, 0u);
  EXPECT_LE(per_link, kBytesPerLinkBudget)
      << r.transport_bytes << " transport bytes over " << n_links
      << " links; if a per-link cost grew on purpose, re-derive the budget";
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
