#include "proto/basic_search.hpp"

#include <cassert>
#include <iterator>

namespace dca::proto {

void BasicSearchNode::start_request(std::uint64_t serial) {
  assert(!search_.has_value());
  Search s;
  s.serial = serial;
  s.ts = clock_.tick();
  s.busy = cell::ChannelSet(spectrum_size());
  search_ = s;

  trace_search_start(serial, s.ts);
  arm_timer(request_timeout(), [this]() { abort_search(); });

  net::Message req;
  req.kind = net::MsgKind::kRequest;
  req.req_type = net::ReqType::kSearch;
  req.serial = serial;
  req.ts = search_->ts;
  send_to_interference(req);
  // Degenerate isolated cell: nobody to ask, finalize immediately.
  maybe_finalize();
}

void BasicSearchNode::on_release(cell::ChannelId, std::uint64_t) {
  // Basic search keeps no remote state: releasing is purely local.
}

void BasicSearchNode::on_message(const net::Message& msg) {
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
    default:
      assert(false && "unexpected message kind for basic search");
  }
}

void BasicSearchNode::handle_request(const net::Message& msg) {
  assert(msg.req_type == net::ReqType::kSearch);
  if (search_.has_value() && search_->ts < msg.ts) {
    // We have priority: defer the reply until our search completes.
    defer_.push_back(Deferred{msg.from, msg.serial});
    return;
  }
  reply_use_set(msg.from, msg.serial);
}

void BasicSearchNode::reply_use_set(cell::CellId to, std::uint64_t serial) {
  net::Message resp;
  resp.kind = net::MsgKind::kResponse;
  resp.res_type = net::ResType::kSearchReply;
  resp.serial = serial;
  resp.from = id();
  resp.to = to;
  env().send(resp, {use_, {}});
  // Having authorized `to` to pick anything outside our Use set, we must
  // not finalize a selection of our own until `to` announces its decision.
  await_decision_.insert(to);
}

void BasicSearchNode::handle_response(const net::Message& msg) {
  if (!search_.has_value() || msg.serial != search_->serial) return;
  assert(msg.res_type == net::ResType::kSearchReply);
  search_->busy |= env().payload(msg).use;
  ++search_->responses;
  maybe_finalize();
}

void BasicSearchNode::handle_acquisition(const net::Message& msg) {
  assert(msg.acq_type == net::AcqType::kSearch);
  if (msg.channel != cell::kNoChannel && search_.has_value()) {
    search_->busy.insert(msg.channel);
  }
  await_decision_.erase(msg.from);
  // The announcer's search is over; drop any reply we still owe it. (Only
  // reachable when the announcer aborted on timeout — a deferred searcher
  // cannot normally finalize without our reply. Answering after the abort
  // would re-insert it into await_decision_ and park us forever.)
  for (auto it = defer_.begin(); it != defer_.end();) {
    it = (it->from == msg.from && it->serial == msg.serial) ? defer_.erase(it)
                                                            : std::next(it);
  }
  maybe_finalize();
}

void BasicSearchNode::maybe_finalize() {
  if (!search_.has_value()) return;
  if (search_->responses < static_cast<int>(interference().size())) return;
  if (!await_decision_.empty()) return;
  finalize();
}

void BasicSearchNode::finalize() {
  disarm_timer();
  const Search s = *search_;
  search_.reset();

  cell::ChannelSet freeSet = cell::ChannelSet::all(spectrum_size());
  freeSet -= use_;
  freeSet -= s.busy;
  const cell::ChannelId r = freeSet.first();

  // Announce the decision (even a failed one) so nodes awaiting it unblock
  // and learn what was taken.
  net::Message acq;
  acq.kind = net::MsgKind::kAcquisition;
  acq.acq_type = net::AcqType::kSearch;
  acq.serial = s.serial;
  acq.channel = r;
  send_to_interference(acq);

  // Answer the searches we deferred; they see our (possibly grown) Use set.
  if (r != cell::kNoChannel) use_.insert(r);
  while (!defer_.empty()) {
    const Deferred d = defer_.front();
    defer_.pop_front();
    reply_use_set(d.from, d.serial);
  }

  trace_search_decide(s.serial, r, r != cell::kNoChannel, false);
  if (r != cell::kNoChannel) {
    complete_acquired(s.serial, r, Outcome::kAcquiredSearch, 1);
  } else {
    complete_blocked(s.serial, Outcome::kBlockedNoChannel, 1);
  }
}

void BasicSearchNode::on_crash() {
  search_.reset();
  await_decision_.clear();
  defer_.clear();
}

void BasicSearchNode::on_peer_restart(cell::CellId j) {
  // j forgot the search we were awaiting and every reply it owed us.
  await_decision_.erase(j);
  for (auto it = defer_.begin(); it != defer_.end();) {
    it = it->from == j ? defer_.erase(it) : std::next(it);
  }
  // Our open search may have counted j's pre-crash reply (or j's restarted
  // clock could now issue an older timestamp than ours, breaking the
  // sequencing discipline) — resolve it through the timeout path.
  if (search_.has_value()) abort_search();
}

void BasicSearchNode::abort_search() {
  // The request timer expired with replies or a decision announcement
  // still outstanding (lost peers, paused MSS). Give up on this request:
  // announce a failed decision so everyone we might have blocked
  // unblocks, answer the searches we deferred, and report the timeout.
  assert(search_.has_value());
  disarm_timer();  // also reachable from on_peer_restart, timer still armed
  const Search s = *search_;
  search_.reset();
  trace_timeout(s.serial, 0);

  net::Message acq;
  acq.kind = net::MsgKind::kAcquisition;
  acq.acq_type = net::AcqType::kSearch;
  acq.serial = s.serial;
  acq.channel = cell::kNoChannel;
  send_to_interference(acq);

  // Answer the searches we deferred. They (and any earlier searchers we
  // answered) stay in await_decision_: every searcher eventually
  // announces — even an aborting one — so the entries clear, and a future
  // search of ours must keep honouring the mutual-exclusion discipline.
  while (!defer_.empty()) {
    const Deferred d = defer_.front();
    defer_.pop_front();
    reply_use_set(d.from, d.serial);
  }

  trace_search_decide(s.serial, cell::kNoChannel, false, true);
  complete_blocked(s.serial, Outcome::kBlockedTimeout, 1);
}

}  // namespace dca::proto
