#include "proto/basic_update.hpp"

#include <cassert>

namespace dca::proto {

BasicUpdateNode::BasicUpdateNode(const NodeContext& ctx, int max_attempts,
                                 ChannelPick pick)
    : AllocatorNode(ctx), max_attempts_(max_attempts), pick_(pick) {
  assert(max_attempts_ >= 1);
  known_use_.assign(nbr_count(), cell::ChannelSet(spectrum_size()));
  pending_grants_.assign(nbr_count(), cell::ChannelSet(spectrum_size()));
}

cell::ChannelSet BasicUpdateNode::interfered() const {
  cell::ChannelSet out(spectrum_size());
  for (std::size_t r = 0; r < nbr_count(); ++r) {
    out |= known_use_[r];
    out |= pending_grants_[r];
  }
  return out;
}

void BasicUpdateNode::start_request(std::uint64_t serial) {
  try_attempt(serial, 1);
}

void BasicUpdateNode::try_attempt(std::uint64_t serial, int round) {
  assert(!attempt_.has_value());
  cell::ChannelSet freeSet = cell::ChannelSet::all(spectrum_size());
  freeSet -= use_;
  freeSet -= interfered();
  if (freeSet.empty()) {
    complete_blocked(serial, Outcome::kBlockedNoChannel, round - 1);
    return;
  }
  // The default pick is uniform over the believed-free channels: concurrent
  // requesters that deterministically picked the lowest id would collide
  // every round.
  const cell::ChannelId r =
      pick_channel(freeSet, pick_, env().rng(id()), pick_cursor_);

  Attempt a;
  a.serial = serial;
  a.channel = r;
  a.ts = clock_.tick();
  a.round = round;
  attempt_ = a;
  granters_.clear();
  arm_timer(request_timeout(), [this]() { abort_attempt(); });

  net::Message req;
  req.kind = net::MsgKind::kRequest;
  req.req_type = net::ReqType::kUpdate;
  req.serial = serial;
  req.channel = r;
  req.ts = attempt_->ts;
  // The round number rides along and is echoed by every response, so a
  // response straggling in from a timed-out earlier round of the same
  // request cannot be miscounted into the current round.
  req.wave = static_cast<std::uint64_t>(round);
  send_to_interference(req);

  if (interference().empty()) conclude_attempt();  // isolated cell
}

void BasicUpdateNode::on_release(cell::ChannelId ch, std::uint64_t serial) {
  net::Message rel;
  rel.kind = net::MsgKind::kRelease;
  rel.serial = serial;
  rel.channel = ch;
  send_to_interference(rel);
}

void BasicUpdateNode::on_message(const net::Message& msg) {
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
        if (const int r = nbr_rank(msg.from); r >= 0) {
          known_use_[static_cast<std::size_t>(r)].insert(msg.channel);
          pending_grants_[static_cast<std::size_t>(r)].erase(msg.channel);
        }
      }
      break;
    case net::MsgKind::kRelease:
      if (const int r = nbr_rank(msg.from); r >= 0) {
        known_use_[static_cast<std::size_t>(r)].erase(msg.channel);
        pending_grants_[static_cast<std::size_t>(r)].erase(msg.channel);
      }
      break;
    default:
      assert(false && "unexpected message kind for basic update");
  }
}

void BasicUpdateNode::handle_request(const net::Message& msg) {
  assert(msg.req_type == net::ReqType::kUpdate);
  const cell::ChannelId r = msg.channel;
  if (use_.contains(r)) {
    reject(msg.from, msg.serial, msg.wave, r);
    return;
  }
  if (attempt_.has_value() && attempt_->channel == r && !attempt_->aborted) {
    if (attempt_->ts < msg.ts) {
      // Our older request wins the tie.
      reject(msg.from, msg.serial, msg.wave, r);
      return;
    }
    // The older request wins: grant it and abort our own attempt; we will
    // retry with a different channel once our in-flight responses return.
    attempt_->aborted = true;
  }
  grant(msg.from, msg.serial, msg.wave, r);
}

void BasicUpdateNode::grant(cell::CellId to, std::uint64_t serial,
                            std::uint64_t wave, cell::ChannelId r) {
  if (const int rank = nbr_rank(to); rank >= 0) {
    pending_grants_[static_cast<std::size_t>(rank)].insert(r);
  }
  net::Message resp;
  resp.kind = net::MsgKind::kResponse;
  resp.res_type = net::ResType::kGrant;
  resp.serial = serial;
  resp.wave = wave;
  resp.channel = r;
  resp.from = id();
  resp.to = to;
  env().send(resp);
}

void BasicUpdateNode::reject(cell::CellId to, std::uint64_t serial,
                             std::uint64_t wave, cell::ChannelId r) {
  net::Message resp;
  resp.kind = net::MsgKind::kResponse;
  resp.res_type = net::ResType::kReject;
  resp.serial = serial;
  resp.wave = wave;
  resp.channel = r;
  resp.from = id();
  resp.to = to;
  env().send(resp);
}

void BasicUpdateNode::handle_response(const net::Message& msg) {
  if (!attempt_.has_value() || msg.serial != attempt_->serial) return;
  if (msg.wave != static_cast<std::uint64_t>(attempt_->round)) return;
  ++attempt_->responses;
  if (msg.res_type == net::ResType::kGrant) {
    granters_.push_back(msg.from);
  } else {
    assert(msg.res_type == net::ResType::kReject);
    attempt_->rejected = true;
  }
  if (attempt_->responses == static_cast<int>(interference().size()))
    conclude_attempt();
}

void BasicUpdateNode::conclude_attempt() {
  assert(attempt_.has_value());
  disarm_timer();
  const Attempt a = *attempt_;
  attempt_.reset();

  if (!a.rejected && !a.aborted) {
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

  // Failed attempt: return the grants we did collect.
  for (const cell::CellId j : granters_) {
    net::Message rel;
    rel.kind = net::MsgKind::kRelease;
    rel.serial = a.serial;
    rel.channel = a.channel;
    rel.from = id();
    rel.to = j;
    env().send(rel);
  }
  granters_.clear();

  if (a.round >= max_attempts_) {
    complete_blocked(a.serial, Outcome::kBlockedStarved, a.round);
    return;
  }
  try_attempt(a.serial, a.round + 1);
}

void BasicUpdateNode::on_crash() {
  attempt_.reset();
  granters_.clear();
  // Believed neighbour state is gone; the resync replies rebuild U_j.
  // Grants promised before the crash are unrecoverable — the requesters
  // holding them abort their rounds when our kResyncReq arrives.
  for (std::size_t r = 0; r < known_use_.size(); ++r) {
    known_use_[r].clear();
    pending_grants_[r].clear();
  }
}

void BasicUpdateNode::on_peer_restart(cell::CellId j) {
  if (const int r = nbr_rank(j); r >= 0) {
    // j's calls were torn down and its memory of our grants is gone.
    known_use_[static_cast<std::size_t>(r)].clear();
    pending_grants_[static_cast<std::size_t>(r)].clear();
  }
  // A grant j sent before crashing is void: resolve the open round through
  // the timeout path before we answer with our state snapshot.
  if (attempt_.has_value()) abort_attempt();
}

void BasicUpdateNode::apply_resync_reply(const net::Message& m,
                                         const net::SetPayload& sets) {
  if (const int r = nbr_rank(m.from); r >= 0) {
    known_use_[static_cast<std::size_t>(r)] = sets.use;
  }
}

void BasicUpdateNode::abort_attempt() {
  // Request timer expired with responses outstanding. Release the channel
  // to the WHOLE region, not just known granters: grants may still be in
  // flight, and per-link FIFO guarantees our REQUEST precedes this
  // RELEASE at every neighbour, so every pending grant gets cleaned up.
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
  send_to_interference(rel);

  if (a.round >= max_attempts_) {
    complete_blocked(a.serial, Outcome::kBlockedTimeout, a.round);
    return;
  }
  try_attempt(a.serial, a.round + 1);
}

}  // namespace dca::proto
