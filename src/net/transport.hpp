// The control-message transport between mobile service stations.
//
// send() stamps a message with a delivery delay from the latency model and
// schedules its arrival on the sharded kernel; the registered receiver (the
// World in src/runner) dispatches it to the destination node. The transport
// also keeps per-type message counters — the paper's "control message
// complexity" metric.
//
// Links are FIFO: a message never overtakes an earlier message on the same
// directed (from, to) link, whatever the latency model draws (the delivery
// time is floored at the link's previous delivery). The paper's protocols
// implicitly assume ordered channels: with reordering, a stale Use-set
// snapshot can arrive after a later ACQUISITION and erase knowledge of a
// borrowed channel. Messages on DIFFERENT links still race freely.
//
// Link faults (drop / dup / jitter / partitions) engage a reliable
// sublayer: every logical message becomes a sequenced frame, frames are
// dropped / duplicated / re-jittered per FaultConfig on seed-derived
// per-link streams, a per-link retransmission timer (RTO, exponential
// backoff) resends until a cumulative ack arrives, and the receive side
// resequences and dedups in a reorder ring before handing messages up. The
// protocol layer therefore still sees exactly-once, per-link-FIFO delivery
// — only later, which is what its timeout paths must survive. Transport
// frames (retransmissions, acks) are not counted as protocol messages.
// With no link fault configured none of this is on the send path.
//
// A paused station's allocator process receives nothing: inbound messages
// are held (in arrival order) and flushed on resume. Its transport keeps
// acking, modelling a stalled process on a live host.
//
// Sharding: every piece of link state has one owning side. The sender
// side (FIFO floor, delivery sequence, send window, fault stream) lives on
// shard_of(from), the receiver side (reorder ring) on shard_of(to); each
// shard's vectors hold only its own links, indexed by a dense per-shard
// rank, so total link state is n_links whatever the shard count. Every
// delivery is keyed (when, to, kClassDelivery, from, per-link send seq),
// so same-instant arrivals at a receiver resolve in the same canonical
// order on any shard and thread count, and each RTO timer draws its
// sender cell's local counter (ShardedKernel::schedule_local), which the
// cell's protocol timers share.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <vector>

#include "net/fault.hpp"
#include "net/latency.hpp"
#include "net/link_table.hpp"
#include "net/message.hpp"
#include "sim/log.hpp"
#include "sim/random.hpp"
#include "sim/shard.hpp"
#include "sim/small_fn.hpp"
#include "sim/trace.hpp"

namespace dca::net {

class Transport {
 public:
  // Inline-only callables: a [this]-style capture into the runner (or a
  // small test lambda), invoked once per message or trace event.
  using DeliverFn =
      sim::SmallFn<void(const Message&), sim::kNetHandlerCapacity>;
  using RecordFn =
      sim::SmallFn<void(const sim::TraceEvent&), sim::kNetHandlerCapacity>;

  /// `links`, `latency` and `faults` must outlive the transport. The fault
  /// streams derive from `seed`, so the whole fault schedule is a function
  /// of (faults, seed) alone. The latency model is bound to `links` here.
  Transport(sim::ShardedKernel& kernel, const LinkTable& links,
            LatencyModel& latency, const FaultConfig& faults,
            std::uint64_t seed);

  Transport(const Transport&) = delete;
  Transport& operator=(const Transport&) = delete;

  /// Installs the delivery callback (dispatches to msg.to's node).
  void set_receiver(DeliverFn fn) { deliver_ = std::move(fn); }

  /// Structured trace sink for drop / dup / retransmit / pause / resume
  /// events; each is emitted on the shard of its `cell`.
  void set_recorder(RecordFn fn) { record_ = std::move(fn); }

  /// Human-readable per-message log (one line per send). Not synchronized:
  /// attach it to single-threaded runs only. nullptr detaches.
  void set_log(sim::TraceLog* log) { log_ = log; }

  /// Sends one control message from msg.from, on msg.from's shard (or
  /// before the run). Counted immediately, delivered after the model's
  /// one-way delay plus whatever the fault layer inflicts.
  void send(Message msg);

  /// Holds / releases cell c's inbound deliveries (whole-MSS pause).
  void pause(cell::CellId c);
  void resume(cell::CellId c);
  [[nodiscard]] bool is_paused(cell::CellId c) const {
    return paused_[static_cast<std::size_t>(c)] != 0;
  }

  // -- counters (summed over shards; read them between runs) -------------
  [[nodiscard]] std::uint64_t total_sent() const;
  [[nodiscard]] std::uint64_t sent_of(MsgKind k) const;
  /// Messages whose endpoints live on different shards (an engine cost,
  /// not a simulation result).
  [[nodiscard]] std::uint64_t cross_shard_sent() const;
  [[nodiscard]] TransportStats stats() const;

 private:
  struct PendingFrame {
    Message msg;
    sim::EventId timer = sim::kInvalidEventId;
    int attempts = 0;
  };
  struct LinkTx {
    std::uint64_t next_seq = 1;
    // pending covers exactly [lowest_unacked, next_seq): frames enter at
    // next_seq and leave only as a cumulative-ack prefix.
    std::uint64_t lowest_unacked = 1;
    SeqRing<PendingFrame> pending;
  };
  struct LinkRx {
    std::uint64_t next_expected = 1;
    SeqRing<Message> reorder;
  };
  // Written only by events of its own shard; alignas keeps neighbouring
  // shards off each other's cache lines.
  struct alignas(64) ShardLinks {
    std::uint64_t total_sent = 0;
    std::uint64_t cross_shard_sent = 0;
    std::array<std::uint64_t, kNumMsgKinds> by_kind{};
    std::vector<sim::SimTime> link_clock;  // FIFO floor, by tx rank
    std::vector<std::uint64_t> link_seq;   // delivery key seq, by tx rank
    std::vector<LinkTx> tx;                // send window, by tx rank
    std::vector<LinkRx> rx;                // reorder ring, by rx rank
    // Lazily materialized (an engaged mt19937_64 is ~2.5 KB and most links
    // of a large grid never fault); derivation is a pure function of
    // (seed, link), so lazy == eager, draw for draw.
    std::vector<std::unique_ptr<sim::RngStream>> fault_rng;  // by tx rank
    TransportStats stats;
  };

  [[nodiscard]] ShardLinks& shard_links(cell::CellId c) {
    return shards_[static_cast<std::size_t>(kernel_.shard_of(c))];
  }
  /// Clock of c's shard: "now" for an event c's shard is executing.
  [[nodiscard]] sim::SimTime now_at(cell::CellId c) const {
    return kernel_.now(kernel_.shard_of(c));
  }
  [[nodiscard]] std::size_t tx_rank(LinkId lid) const {
    return tx_rank_[static_cast<std::size_t>(lid)];
  }

  template <typename F>
  void schedule_delivery(LinkId lid, cell::CellId from, cell::CellId to,
                         sim::SimTime when, F&& fn);
  void transmit(LinkId lid, std::uint64_t seq);
  void arm_rto(LinkId lid, std::uint64_t seq);
  void on_rto(LinkId lid, std::uint64_t seq);
  void on_data_frame(LinkId lid, std::uint64_t seq, const Message& msg);
  void send_ack(LinkId data_lid, std::uint64_t cumulative);
  void on_ack(LinkId data_lid, std::uint64_t cumulative);
  /// One fault-layer draw for a frame (data or ack) on `lid` at `now`:
  /// the partition gate first (no RNG draw), then the drop draw. Returns
  /// false when the frame is lost.
  bool survives(ShardLinks& sl, LinkId lid, std::uint64_t seq,
                sim::SimTime now);
  /// Delay of one frame copy: the latency model plus the fault jitter.
  sim::Duration frame_delay(LinkId lid, sim::RngStream& rng);
  void deliver(const Message& msg);
  sim::RngStream& link_rng(ShardLinks& sl, LinkId lid);
  [[nodiscard]] sim::Duration rto(int attempts) const;
  void record(sim::TraceKind k, sim::SimTime t, cell::CellId cell,
              cell::CellId peer, std::uint64_t seq, std::int64_t b);

  sim::ShardedKernel& kernel_;
  const LinkTable& links_;
  LatencyModel& latency_;
  const FaultConfig& faults_;
  std::uint64_t fault_seed_;
  bool reliable_;  // any link fault configured
  sim::Duration rto_base_;
  PartitionTimeline partitions_;  // views faults_.partitions

  // Dense per-shard link ranks: tx_rank_[lid] indexes the sender-side
  // vectors of shard_of(from), rx_rank_[lid] the receiver side of
  // shard_of(to). Built once, read-only during the run.
  std::vector<std::uint32_t> tx_rank_;
  std::vector<std::uint32_t> rx_rank_;
  std::vector<ShardLinks> shards_;

  // Pause state by cell; each entry is touched only by its cell's shard.
  std::vector<std::uint8_t> paused_;
  std::vector<std::vector<Message>> held_;

  DeliverFn deliver_;
  RecordFn record_;
  sim::TraceLog* log_ = nullptr;
};

}  // namespace dca::net
