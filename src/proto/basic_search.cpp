#include "proto/basic_search.hpp"

#include <cassert>

namespace dca::proto {

void BasicSearchNode::start_request(std::uint64_t serial) {
  assert(!search_.open());
  busy_.clear();
  search_.start(serial, clock_.tick(), [this]() {
    arm_timer(request_timeout(), [this]() { abort_search(); });
  });
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
      assert(msg.req_type == net::ReqType::kSearch);
      if (!search_.defer_if_older(msg)) search_.answer(msg.from, msg.serial, {use_, {}});
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

void BasicSearchNode::handle_response(const net::Message& msg) {
  if (!search_.count_reply(msg)) return;
  assert(msg.res_type == net::ResType::kSearchReply);
  busy_ |= env().payload(msg).use;
  maybe_finalize();
}

void BasicSearchNode::handle_acquisition(const net::Message& msg) {
  assert(msg.acq_type == net::AcqType::kSearch);
  if (msg.channel != cell::kNoChannel && search_.open()) busy_.insert(msg.channel);
  search_.on_announcement(msg);
  maybe_finalize();
}

void BasicSearchNode::maybe_finalize() {
  if (!search_.open() || !search_.all_replied() || search_.waiting()) return;
  cell::ChannelSet freeSet = cell::ChannelSet::all(spectrum_size());
  freeSet -= use_;
  freeSet -= busy_;
  conclude(freeSet.first(), false);
}

void BasicSearchNode::conclude(cell::ChannelId r, bool timed_out) {
  disarm_timer();  // also reachable from on_peer_restart, timer still armed
  const std::uint64_t serial = search_.serial();
  // The deferred searches see our (possibly grown) Use set.
  if (r != cell::kNoChannel) use_.insert(r);
  search_.decide(r, [this](const SearchRound::Deferred& d) {
    search_.answer(d.from, d.serial, {use_, {}});
  });
  search_.trace_decide(r, timed_out);
  if (r != cell::kNoChannel) {
    complete_acquired(serial, r, Outcome::kAcquiredSearch, 1);
  } else {
    complete_blocked(serial, timed_out ? Outcome::kBlockedTimeout
                                       : Outcome::kBlockedNoChannel, 1);
  }
}

void BasicSearchNode::on_crash() { search_.reset(); }

void BasicSearchNode::on_peer_restart(cell::CellId j) {
  search_.forget(j);
  // Our open search may have counted j's pre-crash reply (or j's restarted
  // clock could now issue an older timestamp than ours, breaking the
  // sequencing discipline) — resolve it through the timeout path.
  if (search_.open()) abort_search();
}

void BasicSearchNode::abort_search() {
  // The request timer expired with replies or a decision announcement
  // still outstanding (lost peers, paused MSS): fail the request. The
  // searchers we answered stay awaited — every searcher announces
  // eventually, even an aborting one — so a future search of ours keeps
  // honouring the mutual-exclusion discipline.
  trace_timeout(search_.serial(), 0);
  conclude(cell::kNoChannel, true);
}

}  // namespace dca::proto
