#include "proto/basic_update.hpp"

#include <cassert>

namespace dca::proto {

BasicUpdateNode::BasicUpdateNode(const NodeContext& ctx, int max_attempts,
                                 ChannelPick pick)
    : AllocatorNode(ctx), max_attempts_(max_attempts), pick_(pick), update_(ctx) {
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
  assert(!update_.open());
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
  const net::Timestamp ts = clock_.tick();  // one per attempt
  arm_timer(request_timeout(), [this]() { abort_attempt(); });
  update_.ask_region(serial, r, ts, round);
  if (update_.all_answered()) conclude_attempt();  // isolated cell
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
      if (update_.fold(msg)) conclude_attempt();
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
  bool grant = !use_.contains(r);
  if (grant && update_.open() && update_.channel() == r && !update_.yielded()) {
    if (update_.ts() < msg.ts) {
      grant = false;  // our older request wins the tie
    } else {
      // The older request wins: grant it and fail our own round; we retry
      // with a different channel once our in-flight answers return.
      update_.yield();
    }
  }
  if (grant) {
    if (const int rank = nbr_rank(msg.from); rank >= 0) {
      pending_grants_[static_cast<std::size_t>(rank)].insert(r);
    }
  }
  update_.respond(msg.from, msg.serial, msg.wave, r,
                  grant ? net::ResType::kGrant : net::ResType::kReject);
}

void BasicUpdateNode::conclude_attempt() {
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
  update_.fail();  // return the grants we did collect
  retry_or_block(serial, round, Outcome::kBlockedStarved);
}

void BasicUpdateNode::retry_or_block(std::uint64_t serial, int round,
                                     Outcome why) {
  if (round >= max_attempts_) {
    complete_blocked(serial, why, round);
    return;
  }
  try_attempt(serial, round + 1);
}

void BasicUpdateNode::on_crash() {
  update_.reset();
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
  if (update_.open()) abort_attempt();
}

void BasicUpdateNode::apply_resync_reply(const net::Message& m,
                                         const net::SetPayload& sets) {
  if (const int r = nbr_rank(m.from); r >= 0) {
    known_use_[static_cast<std::size_t>(r)] = sets.use;
  }
}

void BasicUpdateNode::abort_attempt() {
  // Request timer expired with responses outstanding (or a target
  // restarted): the round releases the channel to the whole region.
  disarm_timer();  // also reachable from on_peer_restart, timer still armed
  const std::uint64_t serial = update_.serial();
  const int round = update_.round();
  trace_timeout(serial, round);
  update_.abort();
  retry_or_block(serial, round, Outcome::kBlockedTimeout);
}

}  // namespace dca::proto
