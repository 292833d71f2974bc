#include "proto/advanced_search.hpp"

#include <cassert>
#include <iterator>

namespace dca::proto {

AdvancedSearchNode::AdvancedSearchNode(const NodeContext& ctx,
                                       int max_transfer_rounds)
    : AllocatorNode(ctx),
      max_transfer_rounds_(max_transfer_rounds),
      allocated_(ctx.plan->n_channels()),
      offered_(ctx.plan->n_channels()) {
  assert(max_transfer_rounds_ >= 1);
  // Allocation is demand-driven from a cold start: a full static
  // pre-allocation would leave interior regions with no unallocated
  // channel to grab and no unique owner to transfer from.
  known_allocated_.assign(nbr_count(), cell::ChannelSet(spectrum_size()));
  known_busy_.assign(nbr_count(), cell::ChannelSet(spectrum_size()));
}

cell::ChannelSet AdvancedSearchNode::region_allocated() const {
  cell::ChannelSet out = allocated_;
  for (std::size_t r = 0; r < nbr_count(); ++r) out |= known_allocated_[r];
  return out;
}

void AdvancedSearchNode::start_request(std::uint64_t serial) {
  // Serve from the allocated set instantly whenever possible — channels
  // reserved for an in-flight transfer (offered_) are off limits.
  const cell::ChannelSet ready = allocated_ - use_ - offered_;
  const cell::ChannelId r = ready.first();
  if (r != cell::kNoChannel) {
    use_.insert(r);
    complete_acquired(serial, r, Outcome::kAcquiredLocal, 0);
    return;
  }

  assert(!search_.has_value());
  Search s;
  s.serial = serial;
  s.ts = clock_.tick();
  search_ = s;
  trace_search_start(serial, s.ts);
  arm_timer(request_timeout(), [this]() { abort_search(); });

  net::Message req;
  req.kind = net::MsgKind::kRequest;
  req.req_type = net::ReqType::kSearch;
  req.serial = serial;
  req.ts = search_->ts;
  send_to_interference(req);
  if (interference().empty()) {
    search_->info_complete = true;
    maybe_select();
  }
}

void AdvancedSearchNode::on_release(cell::ChannelId, std::uint64_t) {
  // The defining trick of the scheme: the channel STAYS allocated to this
  // cell, so a follow-up call is served instantly with zero messages.
}

void AdvancedSearchNode::on_message(const net::Message& msg) {
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
      handle_acquisition(msg);
      break;
    case net::MsgKind::kRelease:
      handle_release(msg);
      break;
    case net::MsgKind::kTransfer:
      handle_transfer(msg);
      break;
    default:
      assert(false && "unexpected message kind for advanced search");
  }
}

void AdvancedSearchNode::handle_request(const net::Message& msg) {
  assert(msg.req_type == net::ReqType::kSearch);
  if (search_.has_value() && search_->ts < msg.ts) {
    defer_.push_back(Deferred{msg.from, msg.serial});
    return;
  }
  reply_sets(msg.from, msg.serial);
}

void AdvancedSearchNode::reply_sets(cell::CellId to, std::uint64_t serial) {
  net::Message resp;
  resp.kind = net::MsgKind::kResponse;
  resp.res_type = net::ResType::kSearchReply;
  resp.serial = serial;
  resp.from = id();
  resp.to = to;
  env().send(resp, {use_, allocated_});  // busy set, allocated set
  await_decision_.insert(to);
}

void AdvancedSearchNode::handle_response(const net::Message& msg) {
  if (!search_.has_value() || msg.serial != search_->serial) return;
  assert(msg.res_type == net::ResType::kSearchReply);
  if (const int r = nbr_rank(msg.from); r >= 0) {
    const net::SetPayload& sets = env().payload(msg);
    known_allocated_[static_cast<std::size_t>(r)] = sets.alloc;
    known_busy_[static_cast<std::size_t>(r)] = sets.use;
  }
  ++search_->responses;
  if (search_->responses == static_cast<int>(interference().size())) {
    search_->info_complete = true;
  }
  maybe_select();
}

void AdvancedSearchNode::handle_acquisition(const net::Message& msg) {
  assert(msg.acq_type == net::AcqType::kSearch);
  if (msg.channel != cell::kNoChannel) {
    if (const int r = nbr_rank(msg.from); r >= 0) {
      known_allocated_[static_cast<std::size_t>(r)].insert(msg.channel);
      known_busy_[static_cast<std::size_t>(r)].insert(msg.channel);
    }
  }
  await_decision_.erase(msg.from);
  // The announcer's search is over; drop any reply we still owe it (only
  // reachable when the announcer aborted on timeout). Answering later
  // would re-insert it into await_decision_ with no announcement coming.
  for (auto it = defer_.begin(); it != defer_.end();) {
    it = (it->from == msg.from && it->serial == msg.serial) ? defer_.erase(it)
                                                            : std::next(it);
  }
  maybe_select();
}

void AdvancedSearchNode::handle_release(const net::Message& msg) {
  // A RELEASE in this scheme announces a *deallocation* (transfer out).
  if (const int r = nbr_rank(msg.from); r >= 0) {
    known_allocated_[static_cast<std::size_t>(r)].erase(msg.channel);
    known_busy_[static_cast<std::size_t>(r)].erase(msg.channel);
  }
}

void AdvancedSearchNode::maybe_select() {
  if (!search_.has_value() || !search_->info_complete) return;
  if (search_->pending_channel != cell::kNoChannel) return;  // negotiating
  if (!await_decision_.empty()) return;
  select_or_transfer();
}

void AdvancedSearchNode::select_or_transfer() {
  assert(search_.has_value());
  // 1. A channel unallocated across the whole region: allocate it.
  cell::ChannelSet unallocated = cell::ChannelSet::all(spectrum_size());
  unallocated -= allocated_;
  for (std::size_t r = 0; r < nbr_count(); ++r)
    unallocated -= known_allocated_[r];
  const cell::ChannelId fresh = unallocated.first();
  if (fresh != cell::kNoChannel) {
    allocated_.insert(fresh);
    use_.insert(fresh);
    finish_with(fresh, Outcome::kAcquiredSearch);
    return;
  }

  // 2. Transfer candidates: channels idle at EVERY neighbour holding them
  //    (several non-interfering cells of the region may hold the same
  //    channel; all of them must agree). Built once from the fresh reply
  //    snapshots, fewest-owners first (cheapest negotiation first).
  if (search_->candidates.empty() && search_->next_candidate == 0) {
    for (cell::ChannelId r = 0; r < spectrum_size(); ++r) {
      if (allocated_.contains(r)) continue;
      std::vector<cell::CellId> owners;
      bool busy_somewhere = false;
      const auto nbrs = interference();
      for (std::size_t j = 0; j < nbrs.size(); ++j) {
        if (!known_allocated_[j].contains(r)) continue;
        if (known_busy_[j].contains(r)) {
          busy_somewhere = true;
          break;
        }
        owners.push_back(nbrs[j]);
      }
      if (busy_somewhere || owners.empty()) continue;
      search_->candidates.emplace_back(r, std::move(owners));
    }
    std::sort(search_->candidates.begin(), search_->candidates.end(),
              [](const auto& a, const auto& b) {
                if (a.second.size() != b.second.size())
                  return a.second.size() < b.second.size();
                return a.first < b.first;
              });
  }
  try_next_transfer();
}

void AdvancedSearchNode::try_next_transfer() {
  assert(search_.has_value());
  if (search_->rounds >= max_transfer_rounds_ ||
      search_->next_candidate >= search_->candidates.size()) {
    finish_with(cell::kNoChannel, Outcome::kBlockedNoChannel);
    return;
  }
  const auto& [r, owners] = search_->candidates[search_->next_candidate++];
  ++search_->rounds;
  search_->pending_channel = r;
  search_->pending_owners = owners;
  search_->agreed.clear();
  search_->owner_responses = 0;
  search_->denied = false;
  for (const cell::CellId owner : owners) {
    send_transfer(owner, search_->serial, r, net::TransferOp::kRequest);
  }
}

void AdvancedSearchNode::handle_transfer(const net::Message& msg) {
  switch (msg.transfer_op) {
    case net::TransferOp::kRequest: {
      const cell::ChannelId r = msg.channel;
      if (allocated_.contains(r) && !use_.contains(r) && !offered_.contains(r)) {
        offered_.insert(r);
        offered_to_[r] = msg.from;
        send_transfer(msg.from, msg.serial, r, net::TransferOp::kAgree);
      } else {
        ++transfer_denials_;
        send_transfer(msg.from, msg.serial, r, net::TransferOp::kDeny);
      }
      break;
    }
    case net::TransferOp::kAgree:
    case net::TransferOp::kDeny: {
      if (!search_.has_value() || msg.serial != search_->serial ||
          msg.channel != search_->pending_channel) {
        if (msg.transfer_op == net::TransferOp::kAgree) {
          // A stale agreement for an abandoned request: return it.
          send_transfer(msg.from, msg.serial, msg.channel, net::TransferOp::kAbort);
        }
        return;
      }
      ++search_->owner_responses;
      if (msg.transfer_op == net::TransferOp::kAgree) {
        search_->agreed.push_back(msg.from);
      } else {
        search_->denied = true;
      }
      if (search_->owner_responses <
          static_cast<int>(search_->pending_owners.size())) {
        return;  // negotiation still in flight
      }
      const cell::ChannelId r = search_->pending_channel;
      if (!search_->denied) {
        // Unanimous agreement: confirm with every owner and take r.
        for (const cell::CellId owner : search_->agreed) {
          send_transfer(owner, search_->serial, r, net::TransferOp::kKeep);
          if (const int rank = nbr_rank(owner); rank >= 0) {
            known_allocated_[static_cast<std::size_t>(rank)].erase(r);
            known_busy_[static_cast<std::size_t>(rank)].erase(r);
          }
        }
        allocated_.insert(r);
        use_.insert(r);
        ++transfers_in_;
        finish_with(r, Outcome::kAcquiredUpdate);
        return;
      }
      // Someone refused: release the agreements we did get, try the next.
      for (const cell::CellId owner : search_->agreed) {
        send_transfer(owner, search_->serial, r, net::TransferOp::kAbort);
      }
      search_->pending_channel = cell::kNoChannel;
      search_->pending_owners.clear();
      try_next_transfer();
      break;
    }
    case net::TransferOp::kKeep: {
      const cell::ChannelId r = msg.channel;
      assert(offered_.contains(r) && offered_to_[r] == msg.from);
      offered_.erase(r);
      offered_to_.erase(r);
      allocated_.erase(r);
      ++transfers_out_;
      // Announce the deallocation so the rest of OUR region stops counting
      // r against us (the new owner announces its own allocation).
      net::Message rel;
      rel.kind = net::MsgKind::kRelease;
      rel.serial = msg.serial;
      rel.channel = r;
      send_to_interference(rel);
      break;
    }
    case net::TransferOp::kAbort: {
      const cell::ChannelId r = msg.channel;
      // Only the requester the reservation was made FOR may clear it: a
      // timed-out searcher aborts to every owner it asked, including ones
      // that denied it because r was already reserved for someone else.
      const auto it = offered_to_.find(r);
      if (offered_.contains(r) && it != offered_to_.end() &&
          it->second == msg.from) {
        offered_.erase(r);
        offered_to_.erase(it);
      }
      break;
    }
  }
}

void AdvancedSearchNode::finish_with(cell::ChannelId r, Outcome how,
                                     bool timed_out) {
  assert(search_.has_value());
  disarm_timer();
  const Search s = *search_;
  search_.reset();

  // Decision announcement — sent even on failure so awaiting searchers
  // unblock; on success it doubles as the allocation announcement.
  net::Message acq;
  acq.kind = net::MsgKind::kAcquisition;
  acq.acq_type = net::AcqType::kSearch;
  acq.serial = s.serial;
  acq.channel = r;
  send_to_interference(acq);

  while (!defer_.empty()) {
    const Deferred d = defer_.front();
    defer_.pop_front();
    reply_sets(d.from, d.serial);
  }

  trace_search_decide(s.serial, r, r != cell::kNoChannel, timed_out);
  if (r != cell::kNoChannel) {
    complete_acquired(s.serial, r, how, s.rounds);
  } else {
    complete_blocked(s.serial, how, s.rounds);
  }
}

void AdvancedSearchNode::on_crash() {
  // allocated_ is the cell's long-term ownership ledger — modelled as
  // stable storage (like the Lamport clock). Everything else is volatile.
  // Transfers that concluded while we are down are reconciled against the
  // region's claims in apply_resync_reply.
  search_.reset();
  await_decision_.clear();
  defer_.clear();
  offered_.clear();
  offered_to_.clear();
  for (std::size_t r = 0; r < known_allocated_.size(); ++r) {
    known_allocated_[r].clear();
    known_busy_[r].clear();
  }
}

void AdvancedSearchNode::on_peer_restart(cell::CellId j) {
  // j forgot every transfer it was negotiating: un-reserve what we offered.
  for (auto it = offered_to_.begin(); it != offered_to_.end();) {
    if (it->second == j) {
      offered_.erase(it->first);
      it = offered_to_.erase(it);
    } else {
      ++it;
    }
  }
  await_decision_.erase(j);
  for (auto it = defer_.begin(); it != defer_.end();) {
    it = it->from == j ? defer_.erase(it) : std::next(it);
  }
  if (const int r = nbr_rank(j); r >= 0) {
    // j's calls were all torn down. Its allocated set only shrinks across
    // a crash, so the stale claim view stays a safe over-approximation.
    known_busy_[static_cast<std::size_t>(r)].clear();
  }
  // A reply or transfer agreement j issued before crashing is void:
  // resolve any open search (and pending negotiation) via the timeout path.
  if (search_.has_value()) abort_search();
}

void AdvancedSearchNode::fill_resync_reply(net::Message& m,
                                           net::SetPayload& sets) const {
  (void)m;
  sets.alloc = allocated_;
}

void AdvancedSearchNode::apply_resync_reply(const net::Message& m,
                                           const net::SetPayload& sets) {
  if (const int r = nbr_rank(m.from); r >= 0) {
    known_busy_[static_cast<std::size_t>(r)] = sets.use;
    known_allocated_[static_cast<std::size_t>(r)] = sets.alloc;
  }
  // A transfer that concluded while we were down is decided in the
  // claimant's favour: whatever the region now claims is not ours.
  allocated_ -= sets.alloc;
}

void AdvancedSearchNode::abort_search() {
  // Overall request timer expired — mid-search or mid-negotiation. Undo
  // any reservations we may hold at owners (kAbort is safe to broadcast
  // to every asked owner: the handler checks the reservation is ours),
  // then conclude as a failed, timeout-aborted search. finish_with
  // announces the failed decision so deferred/waiting peers unblock.
  assert(search_.has_value());
  trace_timeout(search_->serial, search_->rounds);
  if (search_->pending_channel != cell::kNoChannel) {
    for (const cell::CellId owner : search_->pending_owners) {
      send_transfer(owner, search_->serial, search_->pending_channel,
                    net::TransferOp::kAbort);
    }
    search_->pending_channel = cell::kNoChannel;
    search_->pending_owners.clear();
  }
  finish_with(cell::kNoChannel, Outcome::kBlockedTimeout, true);
}

void AdvancedSearchNode::send_transfer(cell::CellId to, std::uint64_t serial,
                                       cell::ChannelId r, net::TransferOp op) {
  net::Message msg;
  msg.kind = net::MsgKind::kTransfer;
  msg.transfer_op = op;
  msg.serial = serial;
  msg.channel = r;
  msg.from = id();
  msg.to = to;
  env().send(msg);
}

}  // namespace dca::proto
