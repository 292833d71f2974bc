// The control-message transport between mobile service stations.
//
// send() stamps a message with a delivery delay from the latency table and
// schedules its arrival on the sharded kernel; broadcast() does so for one
// copy per interference neighbour, walking the sender's LinkTable row. On
// the fault-free path the delivery event calls the caller's `arrive`
// callable inline (the World's node dispatch): one hop from the sender to
// the queue, one from the queue to the node. The transport also keeps
// per-type message counters — the paper's "control message complexity"
// metric — counting a broadcast's fan-out at once.
//
// Links are FIFO: a message never overtakes an earlier message on the same
// directed (from, to) link, whatever the latency table draws (the delivery
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
// resequences and dedups in a reorder ring before handing messages up
// through the receiver set_receiver installed. The protocol layer
// therefore still sees exactly-once, per-link-FIFO delivery — only later,
// which is what its timeout paths must survive. Transport frames
// (retransmissions, acks) are not counted as protocol messages. With no
// link fault configured none of this is on the send path.
//
// Between send and ack a payload lives once, in the sender shard's
// payload pool; the send window holds its 32-bit handle, the attempt count
// and the RTO timer. Each data frame in flight carries its own copy of the
// 56-byte Message header in its delivery closure; a message's set payload
// is not part of it (it stays in the runner's store behind the header's
// handle, which the transport copies like any other field). A frame that
// arrives past a gap is put into the receiver shard's pool, the reorder
// ring holds its handle, and draining the ring takes the payload back
// out. The ack releases the sender's copy as the cumulative prefix leaves
// the window. Send and reorder rings that doubled while a window was wide
// (a partition holds every frame until the heal) halve again as it drains.
//
// A paused station's allocator process receives nothing: inbound messages
// are held (in arrival order) and flushed on resume through the receiver.
// Its transport keeps acking, modelling a stalled process on a live host.
//
// Sharding: every piece of link state has one owning side. The sender
// side (FIFO floor, delivery sequence, send window and its payloads, fault
// stream) lives on shard_of(from), the receiver side (reorder ring and its
// payloads) on shard_of(to), so only a shard's own events touch its
// payload pool. Each shard's vectors hold only its own links, indexed by a
// dense per-shard rank, so total link state is n_links whatever the shard
// count. Every delivery is keyed (when, to, kClassDelivery, from, per-link
// send seq), so same-instant arrivals at a receiver resolve in the same
// canonical order on any shard and thread count, and each RTO timer draws
// its sender cell's local counter (ShardedKernel::schedule_local), which
// the cell's protocol timers share.
#pragma once

#include <array>
#include <cassert>
#include <cstdint>
#include <type_traits>
#include <utility>
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

  /// `links`, `latency` (a table over `links`) and `faults` must outlive
  /// the transport. The fault streams derive from `seed`, so the whole
  /// fault schedule is a function of (faults, seed) alone.
  Transport(sim::ShardedKernel& kernel, const LinkTable& links,
            Latency& latency, const FaultConfig& faults,
            std::uint64_t seed);

  Transport(const Transport&) = delete;
  Transport& operator=(const Transport&) = delete;

  /// Installs the delivery callback of the reliable sublayer and the
  /// pause flush; it must do what send()'s `arrive` callables do.
  void set_receiver(DeliverFn fn) { deliver_ = std::move(fn); }

  /// Structured trace sink for drop / dup / retransmit / pause / resume
  /// events; each is emitted on the shard of its `cell`.
  void set_recorder(RecordFn fn) { record_ = std::move(fn); }

  /// Human-readable per-message log (one line per send). Not synchronized:
  /// attach it to single-threaded runs only. nullptr detaches.
  void set_log(sim::TraceLog* log) { log_ = log; }

  /// Sends one control message from msg.from, on msg.from's shard (or
  /// before the run). Counted immediately, delivered after the link's
  /// one-way delay plus whatever the fault layer inflicts; without link
  /// faults the delivery event calls `arrive(msg)`, a small copyable
  /// callable it keeps by value. Aborts on a non-interference pair.
  template <typename Arrive>
  void send(Message&& msg, Arrive arrive);

  /// send() of one copy to each interference neighbour of msg.from, in
  /// order (msg.to is ignored); each copy takes its own link.
  template <typename Arrive>
  void broadcast(const Message& msg, Arrive arrive);

  /// send() delivering through the set_receiver callback.
  void send(Message msg) { send(std::move(msg), ToReceiver{this}); }

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

  /// Heap and vector bytes of the reliable sublayer: send windows, reorder
  /// rings, payload pools and fault streams. 0 without link faults.
  [[nodiscard]] std::size_t footprint() const;

  /// Reliable-sublayer occupancy, summed over shards.
  struct Occupancy {
    std::size_t unacked = 0;       // frames in send windows
    std::size_t reordering = 0;    // frames parked in reorder rings
    std::size_t payloads = 0;      // live payload-pool slots
    std::size_t payload_peak = 0;  // sum of each pool's high-water mark
    std::size_t send_ring_slots = 0;  // capacity of every send ring
  };
  [[nodiscard]] Occupancy occupancy() const;

 private:
  using PayloadPool = HandlePool<Message>;
  struct PendingFrame {
    sim::EventId timer = sim::kInvalidEventId;
    PayloadPool::Handle payload = 0;
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
    SeqRing<PayloadPool::Handle> reorder;
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
    std::vector<sim::RngStream> fault_rng;  // by tx rank, from (seed, link)
    PayloadPool payloads;  // behind this shard's tx windows and rx rings
    TransportStats stats;
  };

  // Fault-free delivery event: the pause hold, then `arrive` inline.
  template <typename Arrive>
  struct Arrival {
    Transport* transport;
    Arrive arrive;
    Message msg;
    void operator()() {
      const auto to = static_cast<std::size_t>(msg.to);
      if (transport->paused_[to] != 0) {
        transport->held_[to].push_back(std::move(msg));
        return;
      }
      arrive(msg);
    }
  };
  struct ToReceiver {
    Transport* transport;
    void operator()(const Message& m) const { transport->deliver_(m); }
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
  void schedule_delivery(ShardLinks& sl, std::size_t rank, cell::CellId from,
                         cell::CellId to, sim::SimTime when, F&& fn);
  /// One counted copy on `lid` (tx rank `rank`): logged, then handed to
  /// the reliable sublayer, or given its delay, floored at the link's
  /// previous delivery, and its delivery event.
  template <typename Arrive>
  void post(ShardLinks& sl, LinkId lid, std::size_t rank,
            Arrival<Arrive>&& arrival);
  void log_send(sim::SimTime now, const Message& msg);
  void send_reliable(ShardLinks& sl, LinkId lid, Message&& msg);
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
  /// Delay of one frame copy: the link's latency plus the fault jitter.
  sim::Duration frame_delay(LinkId lid, sim::RngStream& rng);
  void deliver(const Message& msg);
  sim::RngStream& link_rng(ShardLinks& sl, LinkId lid) {
    return sl.fault_rng[tx_rank(lid)];
  }
  [[nodiscard]] sim::Duration rto(int attempts) const;
  void record(sim::TraceKind k, sim::SimTime t, cell::CellId cell,
              cell::CellId peer, std::uint64_t seq, std::int64_t b);

  sim::ShardedKernel& kernel_;
  const LinkTable& links_;
  Latency& latency_;
  const FaultConfig& faults_;
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

template <typename F>
void Transport::schedule_delivery(ShardLinks& sl, std::size_t rank,
                                  cell::CellId from, cell::CellId to,
                                  sim::SimTime when, F&& fn) {
  // The delivery closure carries the Message header by value on the hot
  // path; it must stay inside the kernel's inline callback buffer.
  static_assert(sim::EventFn::fits_inline<std::decay_t<F>>(),
                "delivery closure must fit EventFn's inline buffer; grow "
                "sim::kEventFnCapacity if net::Message grew");
  sim::EventKey key;
  key.when = when;
  key.owner = to;
  key.klass = sim::kClassDelivery;
  key.sub = from;
  key.seq = ++sl.link_seq[rank];
  (void)kernel_.schedule(key, std::forward<F>(fn));
}

template <typename Arrive>
void Transport::post(ShardLinks& sl, LinkId lid, std::size_t rank,
                     Arrival<Arrive>&& arrival) {
  const cell::CellId from = arrival.msg.from;
  const cell::CellId to = arrival.msg.to;
  const sim::SimTime now = now_at(from);
  if (log_ != nullptr) log_send(now, arrival.msg);
  if (reliable_) {
    send_reliable(sl, lid, std::move(arrival.msg));
    return;
  }
  const sim::Duration d = latency_.delay(lid);
  sim::SimTime when = now + (d > 0 ? d : 0);
  sim::SimTime& floor_time = sl.link_clock[rank];
  if (when < floor_time) when = floor_time;
  floor_time = when;
  schedule_delivery(sl, rank, from, to, when, std::move(arrival));
}

template <typename Arrive>
void Transport::send(Message&& msg, Arrive arrive) {
  assert(msg.from != cell::kNoCell && msg.to != cell::kNoCell);
  assert(msg.from != msg.to && "nodes do not message themselves");
  ShardLinks& sl = shard_links(msg.from);
  ++sl.total_sent;
  ++sl.by_kind[static_cast<std::size_t>(msg.kind)];
  if (kernel_.shard_of(msg.to) != kernel_.shard_of(msg.from)) {
    ++sl.cross_shard_sent;
  }
  const LinkId lid = links_.require(msg.from, msg.to);
  post(sl, lid, tx_rank(lid), Arrival<Arrive>{this, arrive, std::move(msg)});
}

template <typename Arrive>
void Transport::broadcast(const Message& msg, Arrive arrive) {
  ShardLinks& sl = shard_links(msg.from);
  const auto [first, last] = links_.row(msg.from);
  sl.total_sent += static_cast<std::uint64_t>(last - first);
  sl.by_kind[static_cast<std::size_t>(msg.kind)] +=
      static_cast<std::uint64_t>(last - first);
  // A sender's links all live on its shard and were ranked in id order,
  // so its row's tx ranks are contiguous too.
  const std::size_t rank0 = first < last ? tx_rank(first) : 0;
  for (LinkId lid = first; lid < last; ++lid) {
    Arrival<Arrive> arrival{this, arrive, msg};
    arrival.msg.to = links_.endpoints(lid).second;
    if (kernel_.shard_of(arrival.msg.to) != kernel_.shard_of(msg.from)) {
      ++sl.cross_shard_sent;
    }
    post(sl, lid, rank0 + static_cast<std::size_t>(lid - first),
         std::move(arrival));
  }
}

}  // namespace dca::net
