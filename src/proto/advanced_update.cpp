#include "proto/advanced_update.hpp"

#include <cassert>

namespace dca::proto {

AdvancedUpdateNode::AdvancedUpdateNode(const NodeContext& ctx, int max_attempts)
    : AllocatorNode(ctx), max_attempts_(max_attempts), update_(ctx) {
  assert(max_attempts_ >= 1);
  known_use_.assign(nbr_count(), cell::ChannelSet(spectrum_size()));
  compute_borrowable_colors();
}

void AdvancedUpdateNode::compute_borrowable_colors() {
  const int nc = plan().n_colors();
  borrowable_colors_.assign(static_cast<std::size_t>(nc), false);
  for (int k = 0; k < nc; ++k) {
    if (k == plan().color_of(id())) continue;  // own colour is not borrowing
    // The primaries of colour k we would ask.
    std::vector<cell::CellId> arbiters;
    for (const cell::CellId p : interference())
      if (plan().color_of(p) == k) arbiters.push_back(p);
    if (arbiters.empty()) continue;
    // Every potential conflicting secondary c'' in IN must be visible to at
    // least one arbiter (i.e. lie in that arbiter's interference region).
    bool safe = true;
    for (const cell::CellId other : interference()) {
      if (plan().color_of(other) == k) continue;  // a primary, asked directly
      bool covered = false;
      for (const cell::CellId p : arbiters) {
        if (grid().interferes(p, other)) {
          covered = true;
          break;
        }
      }
      if (!covered) {
        safe = false;
        break;
      }
    }
    borrowable_colors_[static_cast<std::size_t>(k)] = safe;
  }
}

cell::ChannelSet AdvancedUpdateNode::interfered() const {
  cell::ChannelSet out(spectrum_size());
  for (std::size_t r = 0; r < nbr_count(); ++r) out |= known_use_[r];
  return out;
}

bool AdvancedUpdateNode::believed_free(cell::ChannelId r) const {
  if (use_.contains(r)) return false;
  for (std::size_t j = 0; j < nbr_count(); ++j)
    if (known_use_[j].contains(r)) return false;
  return true;
}

void AdvancedUpdateNode::start_request(std::uint64_t serial) {
  try_attempt(serial, 1);
}

void AdvancedUpdateNode::try_attempt(std::uint64_t serial, int round) {
  assert(!update_.open());

  // First preference: one of our own primary channels — no handshake, but
  // respect outstanding promises we made for it.
  cell::ChannelSet localFree = primary() - use_ - interfered();
  for (const auto& [ch, promise] : promises_) localFree.erase(ch);
  const cell::ChannelId own = localFree.first();
  if (own != cell::kNoChannel) {
    use_.insert(own);
    net::Message acq;
    acq.kind = net::MsgKind::kAcquisition;
    acq.acq_type = net::AcqType::kNonSearch;
    acq.serial = serial;
    acq.channel = own;
    send_to_interference(acq);
    complete_acquired(serial, own, Outcome::kAcquiredLocal, round - 1);
    return;
  }

  // Borrow: a believed-free non-primary channel that has at least one
  // primary owner inside our interference region to arbitrate it.
  cell::ChannelSet candidates = cell::ChannelSet::all(spectrum_size());
  candidates -= primary();
  candidates -= use_;
  candidates -= interfered();
  std::vector<cell::ChannelId> viable;
  for (cell::ChannelId r = candidates.first(); r != cell::kNoChannel;
       r = candidates.next_after(r)) {
    if (color_borrowable(plan().color_of_channel(r))) viable.push_back(r);
  }
  if (viable.empty()) {
    complete_blocked(serial, Outcome::kBlockedNoChannel, round - 1);
    return;
  }
  const cell::ChannelId r = viable[env().rng(id()).pick_index(viable.size())];
  const auto targets = plan().primaries_in_interference(grid(), id(), r);
  const net::Timestamp ts = clock_.tick();  // one per attempt
  arm_timer(request_timeout(), [this]() { abort_attempt(); });
  update_.ask(serial, r, ts, round, targets);
}

void AdvancedUpdateNode::on_release(cell::ChannelId ch, std::uint64_t serial) {
  net::Message rel;
  rel.kind = net::MsgKind::kRelease;
  rel.serial = serial;
  rel.channel = ch;
  send_to_interference(rel);
}

void AdvancedUpdateNode::on_message(const net::Message& msg) {
  if (handle_resync(msg)) return;
  clock_.witness(msg.ts);
  switch (msg.kind) {
    case net::MsgKind::kRequest:
      handle_request(msg);
      break;
    case net::MsgKind::kResponse:
      if (update_.fold(msg)) conclude_attempt();
      break;
    case net::MsgKind::kAcquisition:
      if (msg.channel != cell::kNoChannel) {
        if (const int r = nbr_rank(msg.from); r >= 0)
          known_use_[static_cast<std::size_t>(r)].insert(msg.channel);
        // A confirmed acquisition settles any promise of that channel.
        if (auto it = promises_.find(msg.channel);
            it != promises_.end() && it->second.to == msg.from) {
          promises_.erase(it);
        }
      }
      break;
    case net::MsgKind::kRelease:
      if (const int r = nbr_rank(msg.from); r >= 0)
        known_use_[static_cast<std::size_t>(r)].erase(msg.channel);
      if (auto it = promises_.find(msg.channel);
          it != promises_.end() && it->second.to == msg.from) {
        promises_.erase(it);
      }
      break;
    default:
      assert(false && "unexpected message kind for advanced update");
  }
}

void AdvancedUpdateNode::handle_request(const net::Message& msg) {
  const cell::ChannelId r = msg.channel;
  assert(plan().is_primary(id(), r) && "borrow requests only reach primaries");

  net::ResType answer = net::ResType::kGrant;
  if (!believed_free(r)) {
    answer = net::ResType::kReject;
  } else if (const auto it = promises_.find(r); it != promises_.end()) {
    // Already promised away. An older request has priority on paper, but
    // the promise stands: answer conditionally (the Fig. 11 flaw).
    answer = msg.ts < it->second.ts ? net::ResType::kConditionalGrant
                                    : net::ResType::kReject;
  } else {
    promises_[r] = Promise{msg.from, msg.ts};
  }
  update_.respond(msg.from, msg.serial, msg.wave, r, answer);
}

void AdvancedUpdateNode::conclude_attempt() {
  disarm_timer();
  const std::uint64_t serial = update_.serial();
  const int round = update_.round();
  if (update_.granted()) {
    update_.close();
    const cell::ChannelId ch = update_.channel();
    use_.insert(ch);
    net::Message acq;
    acq.kind = net::MsgKind::kAcquisition;
    acq.acq_type = net::AcqType::kNonSearch;
    acq.serial = serial;
    acq.channel = ch;
    send_to_interference(acq);
    complete_acquired(serial, ch, Outcome::kAcquiredUpdate, round);
    return;
  }
  if (update_.conditional() && !update_.rejected()) ++conditional_failures_;
  update_.fail();  // return the grants we did collect
  retry_or_block(serial, round, Outcome::kBlockedStarved);
}

void AdvancedUpdateNode::retry_or_block(std::uint64_t serial, int round,
                                        Outcome why) {
  if (round >= max_attempts_) {
    complete_blocked(serial, why, round);
    return;
  }
  try_attempt(serial, round + 1);
}

void AdvancedUpdateNode::on_crash() {
  update_.reset();
  // Promises made before the crash are unrecoverable; the requesters
  // holding them abort their rounds when our kResyncReq arrives.
  promises_.clear();
  for (std::size_t r = 0; r < known_use_.size(); ++r) known_use_[r].clear();
}

void AdvancedUpdateNode::on_peer_restart(cell::CellId j) {
  if (const int r = nbr_rank(j); r >= 0) {
    known_use_[static_cast<std::size_t>(r)].clear();
  }
  // Unlock every channel promised to j — it no longer remembers the grant.
  for (auto it = promises_.begin(); it != promises_.end();) {
    it = it->second.to == j ? promises_.erase(it) : std::next(it);
  }
  // A grant (or promise) j issued before crashing is void: resolve the
  // open round through the timeout path before answering.
  if (update_.open()) abort_attempt();
}

void AdvancedUpdateNode::apply_resync_reply(const net::Message& m,
                                            const net::SetPayload& sets) {
  if (const int r = nbr_rank(m.from); r >= 0) {
    known_use_[static_cast<std::size_t>(r)] = sets.use;
  }
}

void AdvancedUpdateNode::abort_attempt() {
  // Request timer expired with arbiter responses outstanding (or an
  // arbiter restarted): the round releases the channel at every arbiter
  // it asked, so every promise a grant in flight made gets cleaned up.
  disarm_timer();  // also reachable from on_peer_restart, timer still armed
  const std::uint64_t serial = update_.serial();
  const int round = update_.round();
  trace_timeout(serial, round);
  update_.abort();
  retry_or_block(serial, round, Outcome::kBlockedTimeout);
}

}  // namespace dca::proto
