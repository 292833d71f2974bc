#include "proto/advanced_update.hpp"

#include <cassert>

namespace dca::proto {

AdvancedUpdateNode::AdvancedUpdateNode(const NodeContext& ctx, int max_attempts)
    : AllocatorNode(ctx), max_attempts_(max_attempts) {
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
  assert(!attempt_.has_value());

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

  Attempt a;
  a.serial = serial;
  a.channel = r;
  a.ts = clock_.tick();
  a.expected = static_cast<int>(targets.size());
  a.round = round;
  a.targets.assign(targets.begin(), targets.end());
  attempt_ = a;
  granters_.clear();
  arm_timer(request_timeout(), [this]() { abort_attempt(); });

  net::Message req;
  req.kind = net::MsgKind::kRequest;
  req.req_type = net::ReqType::kUpdate;
  req.serial = serial;
  req.channel = r;
  req.ts = attempt_->ts;
  // Round tag, echoed by responses, so stragglers from a timed-out round
  // cannot be miscounted into the current one.
  req.wave = static_cast<std::uint64_t>(round);
  req.from = id();
  for (const cell::CellId p : attempt_->targets) {
    req.to = p;
    env().send(req);
  }
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
      handle_response(msg);
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

  if (!believed_free(r)) {
    send_response(msg.from, msg.serial, msg.wave, r, net::ResType::kReject);
    return;
  }
  if (const auto it = promises_.find(r); it != promises_.end()) {
    // Already promised away. An older request has priority on paper, but
    // the promise stands: answer conditionally (the Fig. 11 flaw).
    const bool requester_is_older = msg.ts < it->second.ts;
    send_response(msg.from, msg.serial, msg.wave, r,
                  requester_is_older ? net::ResType::kConditionalGrant
                                     : net::ResType::kReject);
    return;
  }
  promises_[r] = Promise{msg.from, msg.ts};
  send_response(msg.from, msg.serial, msg.wave, r, net::ResType::kGrant);
}

void AdvancedUpdateNode::send_response(cell::CellId to, std::uint64_t serial,
                                       std::uint64_t wave, cell::ChannelId r,
                                       net::ResType type) {
  net::Message resp;
  resp.kind = net::MsgKind::kResponse;
  resp.res_type = type;
  resp.serial = serial;
  resp.wave = wave;
  resp.channel = r;
  resp.from = id();
  resp.to = to;
  env().send(resp);
}

void AdvancedUpdateNode::handle_response(const net::Message& msg) {
  if (!attempt_.has_value() || msg.serial != attempt_->serial) return;
  if (msg.wave != static_cast<std::uint64_t>(attempt_->round)) return;
  ++attempt_->responses;
  switch (msg.res_type) {
    case net::ResType::kGrant:
      granters_.push_back(msg.from);
      break;
    case net::ResType::kConditionalGrant:
      attempt_->conditional = true;
      break;
    default:
      attempt_->rejected = true;
      break;
  }
  if (attempt_->responses == attempt_->expected) conclude_attempt();
}

void AdvancedUpdateNode::conclude_attempt() {
  assert(attempt_.has_value());
  disarm_timer();
  const Attempt a = *attempt_;
  attempt_.reset();

  if (!a.rejected && !a.conditional) {
    use_.insert(a.channel);
    net::Message acq;
    acq.kind = net::MsgKind::kAcquisition;
    acq.acq_type = net::AcqType::kNonSearch;
    acq.serial = a.serial;
    acq.channel = a.channel;
    send_to_interference(acq);
    complete_acquired(a.serial, a.channel, Outcome::kAcquiredUpdate, a.round);
    return;
  }

  if (a.conditional && !a.rejected) ++conditional_failures_;

  for (const cell::CellId p : granters_) {
    net::Message rel;
    rel.kind = net::MsgKind::kRelease;
    rel.serial = a.serial;
    rel.channel = a.channel;
    rel.from = id();
    rel.to = p;
    env().send(rel);
  }
  granters_.clear();

  if (a.round >= max_attempts_) {
    complete_blocked(a.serial, Outcome::kBlockedStarved, a.round);
    return;
  }
  try_attempt(a.serial, a.round + 1);
}

void AdvancedUpdateNode::on_crash() {
  attempt_.reset();
  granters_.clear();
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
  if (attempt_.has_value()) abort_attempt();
}

void AdvancedUpdateNode::apply_resync_reply(const net::Message& m,
                                            const net::SetPayload& sets) {
  if (const int r = nbr_rank(m.from); r >= 0) {
    known_use_[static_cast<std::size_t>(r)] = sets.use;
  }
}

void AdvancedUpdateNode::abort_attempt() {
  // Request timer expired with arbiter responses outstanding. Release the
  // channel at every arbiter we asked — a grant (and thus a promise) may
  // still be in flight, and per-link FIFO guarantees the REQUEST precedes
  // this RELEASE, so every promise gets cleaned up.
  assert(attempt_.has_value());
  disarm_timer();  // also reachable from on_peer_restart, timer still armed
  const Attempt a = *attempt_;
  attempt_.reset();
  granters_.clear();
  trace_timeout(a.serial, a.round);

  net::Message rel;
  rel.kind = net::MsgKind::kRelease;
  rel.serial = a.serial;
  rel.channel = a.channel;
  rel.from = id();
  for (const cell::CellId p : a.targets) {
    rel.to = p;
    env().send(rel);
  }

  if (a.round >= max_attempts_) {
    complete_blocked(a.serial, Outcome::kBlockedTimeout, a.round);
    return;
  }
  try_attempt(a.serial, a.round + 1);
}

}  // namespace dca::proto
