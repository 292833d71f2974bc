#include "net/transport.hpp"

#include <cassert>
#include <utility>

namespace dca::net {

Transport::Transport(sim::ShardedKernel& kernel, const LinkTable& links,
                     Latency& latency, const FaultConfig& faults,
                     std::uint64_t seed)
    : kernel_(kernel),
      links_(links),
      latency_(latency),
      faults_(faults),
      reliable_(faults.link_faults()),
      // A frame plus its ack each take at most one latency bound plus the
      // injected jitter; the extra millisecond absorbs the FIFO floor.
      // Deliberately generous — a premature retransmission only wastes
      // bandwidth, but the timer must not fire on a healthy round trip.
      rto_base_(2 * (latency.max_one_way() + faults.jitter) +
                sim::milliseconds(1)),
      shards_(static_cast<std::size_t>(kernel.n_shards())) {
  const auto n_links = static_cast<std::size_t>(links_.n_links());
  tx_rank_.resize(n_links);
  rx_rank_.resize(n_links);
  std::vector<std::uint32_t> tx_count(shards_.size(), 0);
  std::vector<std::uint32_t> rx_count(shards_.size(), 0);
  for (LinkId lid = 0; lid < links_.n_links(); ++lid) {
    const auto [from, to] = links_.endpoints(lid);
    tx_rank_[static_cast<std::size_t>(lid)] =
        tx_count[static_cast<std::size_t>(kernel_.shard_of(from))]++;
    rx_rank_[static_cast<std::size_t>(lid)] =
        rx_count[static_cast<std::size_t>(kernel_.shard_of(to))]++;
  }
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    ShardLinks& sl = shards_[s];
    sl.link_clock.assign(tx_count[s], 0);
    sl.link_seq.assign(tx_count[s], 0);
    if (reliable_) {
      sl.tx.resize(tx_count[s]);
      sl.rx.resize(rx_count[s]);
      sl.fault_rng.reserve(tx_count[s]);
    }
  }
  if (reliable_) {
    // Links come in id order, so each shard's streams land in tx-rank order.
    for (LinkId lid = 0; lid < links_.n_links(); ++lid) {
      shard_links(links_.endpoints(lid).first)
          .fault_rng.push_back(
              sim::RngStream::derive(seed ^ 0xFA017ull, links_.stream_label(lid)));
    }
  }
  const auto n_cells = static_cast<std::size_t>(kernel_.n_cells());
  paused_.assign(n_cells, 0);
  held_.resize(n_cells);
  if (faults_.has_partitions()) {
    // Tolerate specs naming cells past the grid (validate_scenario rejects
    // them up front, but the timeline must never index out of range).
    int np = kernel_.n_cells();
    for (const PartitionSpec& p : faults_.partitions) {
      for (const cell::CellId c : p.cells) {
        if (c + 1 > np) np = c + 1;
      }
    }
    partitions_ = PartitionTimeline(faults_.partitions, np);
  }
}

void Transport::log_send(sim::SimTime now, const Message& msg) {
  log_->emit(now, sim::format_line("net: ", msg.from, " -> ", msg.to, " ",
                                   msg.kind_name(), " ch=", msg.channel));
}

void Transport::send_reliable(ShardLinks& sl, LinkId lid, Message&& msg) {
  LinkTx& tx = sl.tx[tx_rank(lid)];
  const std::uint64_t seq = tx.next_seq++;
  tx.pending.insert(seq).payload = sl.payloads.put(std::move(msg));
  transmit(lid, seq);
  arm_rto(lid, seq);
}

sim::Duration Transport::rto(int attempts) const {
  const int shift = attempts < 6 ? attempts : 6;
  return rto_base_ << shift;
}

void Transport::record(sim::TraceKind k, sim::SimTime t, cell::CellId cell,
                       cell::CellId peer, std::uint64_t seq, std::int64_t b) {
  if (!record_) return;
  sim::TraceEvent e;
  e.kind = k;
  e.t = t;
  e.cell = static_cast<std::int32_t>(cell);
  e.peer = static_cast<std::int32_t>(peer);
  e.a = static_cast<std::int64_t>(seq);
  e.b = b;
  record_(e);
}

bool Transport::survives(ShardLinks& sl, LinkId lid, std::uint64_t seq,
                         sim::SimTime now) {
  const auto [from, to] = links_.endpoints(lid);
  sim::RngStream& rng = link_rng(sl, lid);
  // Partition cut: checked before any RNG draw so the per-link stream
  // advances identically whether or not a partition is configured.
  if (faults_.has_partitions() && partitions_.severed(from, to, now)) {
    ++sl.stats.frames_dropped;
    record(sim::TraceKind::kDrop, now, from, to, seq, -1);
    return false;  // severed; the RTO resends until the partition heals
  }
  if (faults_.drop_prob > 0 && rng.bernoulli(faults_.drop_prob)) {
    ++sl.stats.frames_dropped;
    record(sim::TraceKind::kDrop, now, from, to, seq, 0);
    return false;  // lost in flight; the RTO will resend it
  }
  return true;
}

sim::Duration Transport::frame_delay(LinkId lid, sim::RngStream& rng) {
  sim::Duration d = latency_.delay(lid);
  if (d < 0) d = 0;
  // The fault jitter only ever adds delay, so d stays >= the latency floor
  // and the kernel's lookahead contract holds.
  if (faults_.jitter > 0) d += rng.uniform_int(0, faults_.jitter);
  return d;
}

void Transport::transmit(LinkId lid, std::uint64_t seq) {
  const auto [from, to] = links_.endpoints(lid);
  ShardLinks& sl = shard_links(from);
  const sim::SimTime now = now_at(from);
  if (!survives(sl, lid, seq, now)) return;
  sim::RngStream& rng = link_rng(sl, lid);
  const PendingFrame* f = sl.tx[tx_rank(lid)].pending.find(seq);
  assert(f != nullptr && "transmitting a frame not in the window");
  const Message& msg = sl.payloads[f->payload];
  int copies = 1;
  if (faults_.dup_prob > 0 && rng.bernoulli(faults_.dup_prob)) {
    ++sl.stats.frames_duplicated;
    record(sim::TraceKind::kDup, now, from, to, seq, 0);
    copies = 2;
  }
  for (int i = 0; i < copies; ++i) {
    // No FIFO floor: frame-level reordering is the injected fault; the
    // receive side resequences.
    schedule_delivery(
        sl, tx_rank(lid), from, to, now + frame_delay(lid, rng),
        [this, lid, seq, m = msg]() { on_data_frame(lid, seq, m); });
  }
}

void Transport::arm_rto(LinkId lid, std::uint64_t seq) {
  const cell::CellId from = links_.endpoints(lid).first;
  PendingFrame* f = shard_links(from).tx[tx_rank(lid)].pending.find(seq);
  assert(f != nullptr && "arming an RTO for a frame not in the window");
  auto cb = [this, lid, seq]() { on_rto(lid, seq); };
  static_assert(sim::EventFn::fits_inline<decltype(cb)>(),
                "RTO closure must fit EventFn's inline buffer");
  f->timer = kernel_.schedule_local(from, sim::kClassTimer,
                                    now_at(from) + rto(f->attempts),
                                    std::move(cb));
}

void Transport::on_rto(LinkId lid, std::uint64_t seq) {
  const auto [from, to] = links_.endpoints(lid);
  ShardLinks& sl = shard_links(from);
  PendingFrame* f = sl.tx[tx_rank(lid)].pending.find(seq);
  if (f == nullptr) return;  // acked in the meantime
  f->timer = sim::kInvalidEventId;
  ++f->attempts;
  ++sl.stats.retransmissions;
  record(sim::TraceKind::kRetransmit, now_at(from), from, to, seq,
         f->attempts);
  transmit(lid, seq);
  arm_rto(lid, seq);
}

void Transport::on_data_frame(LinkId lid, std::uint64_t seq,
                              const Message& msg) {
  // Runs on the receiver's shard. The rx vector is sized once at
  // construction and pool slots never move, so these references stay
  // valid across node deliveries.
  ShardLinks& sl = shard_links(msg.to);
  LinkRx& rx = sl.rx[rx_rank_[static_cast<std::size_t>(lid)]];
  if (seq == rx.next_expected) {
    // In order: deliver straight away, then release any successors that
    // arrived ahead of this frame. Only frames past a gap are buffered.
    ++rx.next_expected;
    deliver(msg);
    while (const PayloadPool::Handle* next = rx.reorder.find(rx.next_expected)) {
      const Message m = sl.payloads.take(*next);
      rx.reorder.erase(rx.next_expected);
      ++rx.next_expected;
      deliver(m);
    }
    rx.reorder.shrink_to_span(rx.next_expected);
  } else if (seq > rx.next_expected && !rx.reorder.contains(seq)) {
    rx.reorder.insert(seq) = sl.payloads.put(msg);
  }
  send_ack(lid, rx.next_expected - 1);
}

void Transport::send_ack(LinkId data_lid, std::uint64_t cumulative) {
  // Runs on the receiver's shard; the ack travels the reverse link, whose
  // sender-side state (fault stream, delivery seq) lives right here.
  const auto [from, to] = links_.endpoints(data_lid);
  ShardLinks& sl = shard_links(to);
  ++sl.stats.acks_sent;
  const LinkId back = links_.require(to, from);
  const sim::SimTime now = now_at(to);
  // The partition cut severs the ack path too (both directions cross it).
  if (!survives(sl, back, cumulative, now)) return;
  auto cb = [this, data_lid, cumulative]() { on_ack(data_lid, cumulative); };
  static_assert(sim::EventFn::fits_inline<decltype(cb)>(),
                "ack closure must fit EventFn's inline buffer");
  schedule_delivery(sl, tx_rank(back), to, from,
                    now + frame_delay(back, link_rng(sl, back)), std::move(cb));
}

void Transport::on_ack(LinkId data_lid, std::uint64_t cumulative) {
  // Runs on the original sender's shard. The pending window is the dense
  // range [lowest_unacked, next_seq), so the cumulative prefix walk frees
  // exactly the acknowledged frames in ascending seq.
  const cell::CellId from = links_.endpoints(data_lid).first;
  ShardLinks& sl = shard_links(from);
  LinkTx& tx = sl.tx[tx_rank(data_lid)];
  while (tx.lowest_unacked <= cumulative && tx.lowest_unacked < tx.next_seq) {
    PendingFrame* f = tx.pending.find(tx.lowest_unacked);
    assert(f != nullptr && "hole in the transport send window");
    if (f->timer != sim::kInvalidEventId) kernel_.cancel(from, f->timer);
    sl.payloads.release(f->payload);
    tx.pending.erase(tx.lowest_unacked);
    ++tx.lowest_unacked;
  }
  tx.pending.shrink_to_span(tx.lowest_unacked);
}

void Transport::deliver(const Message& msg) {
  if (paused_[static_cast<std::size_t>(msg.to)] != 0) {
    held_[static_cast<std::size_t>(msg.to)].push_back(msg);
    return;
  }
  deliver_(msg);
}

void Transport::pause(cell::CellId c) {
  std::uint8_t& flag = paused_[static_cast<std::size_t>(c)];
  if (flag != 0) return;
  flag = 1;
  record(sim::TraceKind::kPause, now_at(c), c, cell::kNoCell, 0, 0);
}

void Transport::resume(cell::CellId c) {
  std::uint8_t& flag = paused_[static_cast<std::size_t>(c)];
  if (flag == 0) return;
  flag = 0;
  record(sim::TraceKind::kResume, now_at(c), c, cell::kNoCell, 0, 0);
  std::vector<Message> backlog = std::move(held_[static_cast<std::size_t>(c)]);
  held_[static_cast<std::size_t>(c)].clear();
  for (const Message& m : backlog) deliver_(m);
}

std::uint64_t Transport::total_sent() const {
  std::uint64_t n = 0;
  for (const ShardLinks& sl : shards_) n += sl.total_sent;
  return n;
}

std::uint64_t Transport::sent_of(MsgKind k) const {
  std::uint64_t n = 0;
  for (const ShardLinks& sl : shards_) {
    n += sl.by_kind[static_cast<std::size_t>(k)];
  }
  return n;
}

std::uint64_t Transport::cross_shard_sent() const {
  std::uint64_t n = 0;
  for (const ShardLinks& sl : shards_) n += sl.cross_shard_sent;
  return n;
}

std::size_t Transport::footprint() const {
  std::size_t bytes = 0;
  for (const ShardLinks& sl : shards_) {
    bytes += sl.tx.capacity() * sizeof(LinkTx) +
             sl.rx.capacity() * sizeof(LinkRx) + sl.payloads.bytes();
    for (const LinkTx& tx : sl.tx) bytes += tx.pending.bytes();
    for (const LinkRx& rx : sl.rx) bytes += rx.reorder.bytes();
    for (const sim::RngStream& rng : sl.fault_rng) bytes += rng.bytes();
  }
  return bytes;
}

Transport::Occupancy Transport::occupancy() const {
  Occupancy o;
  for (const ShardLinks& sl : shards_) {
    for (const LinkTx& tx : sl.tx) {
      o.unacked += tx.pending.size();
      o.send_ring_slots += tx.pending.capacity();
    }
    for (const LinkRx& rx : sl.rx) o.reordering += rx.reorder.size();
    o.payloads += sl.payloads.live();
    o.payload_peak += sl.payloads.high_water();
  }
  return o;
}

TransportStats Transport::stats() const {
  TransportStats t;
  for (const ShardLinks& sl : shards_) {
    t.frames_dropped += sl.stats.frames_dropped;
    t.frames_duplicated += sl.stats.frames_duplicated;
    t.retransmissions += sl.stats.retransmissions;
    t.acks_sent += sl.stats.acks_sent;
  }
  return t;
}

}  // namespace dca::net
