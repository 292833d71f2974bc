#include "core/adaptive.hpp"

#include <cassert>
#include <iterator>
#include <limits>

namespace dca::core {

using cell::CellId;
using cell::ChannelId;
using cell::ChannelSet;
using cell::kNoCell;
using cell::kNoChannel;
using proto::Outcome;

AdaptiveNode::AdaptiveNode(const proto::NodeContext& ctx, const AdaptiveParams& params)
    : AllocatorNode(ctx),
      params_(params),
      nfc_(params.window),
      borrowed_(ctx.plan->n_channels()) {
  params_.check();
  known_use_.assign(nbr_count(), ChannelSet(spectrum_size()));
  pending_grants_.assign(nbr_count(), ChannelSet(spectrum_size()));
  claim_count_.assign(static_cast<std::size_t>(spectrum_size()), 0);
  interfered_cache_ = ChannelSet(spectrum_size());
}

// ---------------------------------------------------------------------------
// Incremental interference cache
// ---------------------------------------------------------------------------

void AdaptiveNode::bump_claim(ChannelId ch, int delta) {
  std::uint16_t& n = claim_count_[static_cast<std::size_t>(ch)];
  if (delta > 0) {
    if (n++ == 0) interfered_cache_.insert(ch);
  } else {
    assert(n > 0);
    if (--n == 0) interfered_cache_.erase(ch);
  }
}

void AdaptiveNode::set_claim(ChannelSet& s, ChannelId ch, bool on) {
  if (s.contains(ch) == on) return;
  if (on) {
    s.insert(ch);
  } else {
    s.erase(ch);
  }
  bump_claim(ch, on ? 1 : -1);
}

void AdaptiveNode::set_use_and_grant(CellId j, ChannelId ch, bool use,
                                     bool grant) {
  // Writes about non-neighbours (harmless, and possible via broadcast
  // paths) used to land in write-only per-cell slots; with rank-indexed
  // storage they are dropped outright — nothing ever read them, because
  // interfered() and Best() only consult IN_i members.
  const int r = nbr_rank(j);
  if (r < 0) return;
  set_claim(known_use_[static_cast<std::size_t>(r)], ch, use);
  set_claim(pending_grants_[static_cast<std::size_t>(r)], ch, grant);
}

void AdaptiveNode::assign_known_use(CellId j, const ChannelSet& nu) {
  const int r = nbr_rank(j);
  if (r < 0) return;
  ChannelSet& s = known_use_[static_cast<std::size_t>(r)];
  const ChannelSet added = nu - s;
  const ChannelSet removed = s - nu;
  for (ChannelId c = added.first(); c != kNoChannel; c = added.next_after(c))
    bump_claim(c, +1);
  for (ChannelId c = removed.first(); c != kNoChannel;
       c = removed.next_after(c))
    bump_claim(c, -1);
  s = nu;
}

int AdaptiveNode::free_primary_count() const {
  return primary().size_minus(use_, interfered());
}

ChannelId AdaptiveNode::free_primary() const {
  return primary().first_minus(use_, interfered());
}

// ---------------------------------------------------------------------------
// Fig. 2: Request_Channel as a state machine
// ---------------------------------------------------------------------------

void AdaptiveNode::start_request(std::uint64_t serial) {
  assert(!req_.has_value());
  Request r;
  r.serial = serial;
  r.ts = clock_.tick();
  req_ = r;
  proceed();
}

void AdaptiveNode::proceed() {
  assert(req_.has_value());

  // waiting/pending gate: while a neighbour's search decision is pending we
  // must not perform a zero-message acquisition (the searcher could pick
  // the same channel). The paper applies this gate in local mode; we apply
  // it in borrowing mode too — its Theorem 1 argument needs it there as
  // well (DESIGN.md note on deviations).
  if (!awaiting_.empty()) {
    req_->phase = Phase::kWaitQuiet;
    arm_timer(request_timeout(), [this]() { on_phase_timeout(); });
    return;
  }

  if (mode_ == 0) {
    const ChannelId r = free_primary();
    if (r != kNoChannel) {
      finish_request(r, 0, Outcome::kAcquiredLocal);
      return;
    }
    // No free primary: with s = 0 the predictor is below any θ_l >= 1, so
    // check_mode() switches us to borrowing and announces it.
    check_mode();
    if (mode_ == 0) {
      // Defensive: never strand a request in local mode without primaries.
      mode_ = 1;
      ++to_borrowing_;
      ++change_wave_;
      net::Message cm;
      cm.kind = net::MsgKind::kChangeMode;
      cm.mode = 1;
      cm.wave = change_wave_;
      cm.serial = req_->serial;
      send_to_interference(cm);
    }
    req_->phase = Phase::kWaitStatus;
    req_->wave = change_wave_;
    req_->statuses = 0;
    arm_timer(request_timeout(), [this]() { on_phase_timeout(); });
    if (interference().empty()) proceed();  // nobody to hear from
    return;
  }

  // Borrowing mode: primaries still come first and instantly.
  const ChannelId r = free_primary();
  if (r != kNoChannel) {
    finish_request(r, 1, Outcome::kAcquiredLocal);
    return;
  }

  ++req_->rounds;
  if (req_->rounds <= params_.alpha) {
    const CellId lender = best_lender();
    if (lender != kNoCell) {
      const ChannelId ch = pick_borrow_channel(lender);
      if (ch != kNoChannel) {
        begin_update_round(ch);
        return;
      }
    }
  }
  begin_search_round();
}

void AdaptiveNode::begin_update_round(ChannelId ch) {
  assert(req_.has_value());
  assert(!interference().empty());
  mode_ = 2;
  req_->phase = Phase::kUpdateRound;
  req_->channel = ch;
  req_->responses = 0;
  req_->rejected = false;
  req_->granters.clear();

  arm_timer(request_timeout(), [this]() { on_phase_timeout(); });

  net::Message msg;
  msg.kind = net::MsgKind::kRequest;
  msg.req_type = net::ReqType::kUpdate;
  msg.serial = req_->serial;
  msg.channel = ch;
  msg.ts = req_->ts;
  // Round tag, echoed by every grant/reject: a straggler from a timed-out
  // earlier round — which may have asked for the SAME channel — must not
  // be miscounted into the current round.
  msg.wave = static_cast<std::uint64_t>(req_->rounds);
  send_to_interference(msg);
}

void AdaptiveNode::begin_search_round() {
  assert(req_.has_value());
  mode_ = 3;
  req_->phase = Phase::kSearchRound;
  req_->channel = kNoChannel;
  req_->responses = 0;
  trace_search_start(req_->serial, req_->ts);
  arm_timer(request_timeout(), [this]() { on_phase_timeout(); });

  net::Message msg;
  msg.kind = net::MsgKind::kRequest;
  msg.req_type = net::ReqType::kSearch;
  msg.serial = req_->serial;
  msg.ts = req_->ts;
  send_to_interference(msg);

  if (interference().empty()) {
    const ChannelSet freeSet = ChannelSet::all(spectrum_size()) - use_;
    conclude_search_round(freeSet.first());
  }
}

void AdaptiveNode::conclude_update_round() {
  assert(req_.has_value() && req_->phase == Phase::kUpdateRound);
  if (!req_->rejected) {
    finish_request(req_->channel, 2, Outcome::kAcquiredUpdate);
    return;
  }
  // Rejected: fall back to borrowing-idle, return the grants we collected,
  // and retry (Fig. 2's recursive Request_Channel call).
  mode_ = 1;
  for (const CellId j : req_->granters) {
    net::Message rel;
    rel.kind = net::MsgKind::kRelease;
    rel.serial = req_->serial;
    rel.channel = req_->channel;
    rel.from = id();
    rel.to = j;
    env().send(rel);
  }
  req_->granters.clear();
  req_->channel = kNoChannel;
  proceed();
}

void AdaptiveNode::conclude_search_round(ChannelId r) {
  assert(req_.has_value() && req_->phase == Phase::kSearchRound);
  trace_search_decide(req_->serial, r, r != kNoChannel, false);
  finish_request(r, 3,
                 r != kNoChannel ? Outcome::kAcquiredSearch : Outcome::kBlockedNoChannel);
}

void AdaptiveNode::on_phase_timeout() {
  assert(req_.has_value());
  trace_timeout(req_->serial, static_cast<int>(req_->phase));
  switch (req_->phase) {
    case Phase::kWaitQuiet:
      // Nothing was sent on behalf of this request yet: fail it cleanly.
      // awaiting_ keeps its entries — the discipline must hold for the
      // next request, and every answered searcher still announces
      // eventually (even aborting ones do).
      finish_request(kNoChannel, mode_ == 0 ? 0 : 1, Outcome::kBlockedTimeout);
      break;
    case Phase::kWaitStatus:
      // Proceed with the statuses that did arrive. Stale knowledge costs
      // extra rejects at worst; the grant handshake still arbitrates.
      proceed();
      break;
    case Phase::kUpdateRound: {
      // Abort the round: release the channel at EVERY neighbour — a grant
      // may still be in flight, and per-link FIFO orders our REQUEST
      // before this RELEASE, so no pending grant leaks. Then fall back to
      // borrowing-idle and retry; after alpha rounds proceed() degrades
      // to the search round (the paper's mode-3 fallback).
      net::Message rel;
      rel.kind = net::MsgKind::kRelease;
      rel.serial = req_->serial;
      rel.channel = req_->channel;
      send_to_interference(rel);
      req_->granters.clear();
      req_->channel = kNoChannel;
      mode_ = 1;
      proceed();
      break;
    }
    case Phase::kSearchRound:
      // Give up on the whole request. finish_request(prev_mode = 3) sends
      // the failure announcement that unblocks everyone waiting on us.
      trace_search_decide(req_->serial, kNoChannel, false, true);
      finish_request(kNoChannel, 3, Outcome::kBlockedTimeout);
      break;
  }
}

// ---------------------------------------------------------------------------
// Fig. 3: acquire()
// ---------------------------------------------------------------------------

void AdaptiveNode::finish_request(ChannelId r, int prev_mode, Outcome how) {
  assert(req_.has_value());
  disarm_timer();
  const Request done = *req_;
  req_.reset();

  if (r != kNoChannel) {
    use_.insert(r);
    if (!plan().is_primary(id(), r)) borrowed_.insert(r);
  }

  switch (prev_mode) {
    case 0:
    case 1:
      // Local acquisition: only neighbours in borrowing mode care.
      if (r != kNoChannel) {
        net::Message acq;
        acq.kind = net::MsgKind::kAcquisition;
        acq.acq_type = net::AcqType::kNonSearch;
        acq.serial = done.serial;
        acq.channel = r;
        acq.from = id();
        for (const CellId j : update_set_) {
          acq.to = j;
          env().send(acq);
        }
      }
      break;
    case 2:
      // Every neighbour granted explicitly; the grants already updated
      // their bookkeeping, no announcement needed.
      mode_ = 1;
      break;
    case 3: {
      // The search announcement goes out even on failure (r == kNoChannel):
      // neighbours that answered us decrement their waiting counters on it.
      net::Message acq;
      acq.kind = net::MsgKind::kAcquisition;
      acq.acq_type = net::AcqType::kSearch;
      acq.serial = done.serial;
      acq.channel = r;
      send_to_interference(acq);
      mode_ = 1;
      break;
    }
    default:
      assert(false);
  }

  drain_deferq();
  if (prev_mode == 0) check_mode();

  if (r != kNoChannel) {
    complete_acquired(done.serial, r, how, done.rounds);
  } else {
    complete_blocked(done.serial, how, done.rounds);
  }
}

void AdaptiveNode::drain_deferq() {
  while (!defer_.empty()) {
    const DeferredReq d = defer_.front();
    defer_.pop_front();
    if (d.type == net::ReqType::kUpdate) {
      if (use_.contains(d.channel)) {
        send_reject(d.from, d.serial, d.wave, d.channel);
      } else {
        send_grant(d.from, d.serial, d.wave, d.channel);
      }
    } else {
      awaiting_.insert(d.from);
      send_use_reply(d.from, d.serial, net::ResType::kSearchReply);
    }
  }
}

// ---------------------------------------------------------------------------
// Fig. 4: Receive_Request
// ---------------------------------------------------------------------------

void AdaptiveNode::handle_request(const net::Message& msg) {
  if (msg.req_type == net::ReqType::kUpdate) {
    handle_update_request(msg);
  } else {
    handle_search_request(msg);
  }
}

void AdaptiveNode::handle_update_request(const net::Message& msg) {
  const ChannelId q = msg.channel;
  switch (mode_) {
    case 0:
    case 1:
      if (use_.contains(q)) {
        send_reject(msg.from, msg.serial, msg.wave, q);
      } else {
        send_grant(msg.from, msg.serial, msg.wave, q);
        check_mode();
      }
      break;
    case 2: {
      assert(req_.has_value());
      const bool same_channel = (q == req_->channel);
      const bool ours_older = req_->ts < msg.ts;
      const bool reject_conflict =
          params_.strict_fig4 ? ours_older : (same_channel && ours_older);
      if (use_.contains(q) || reject_conflict) {
        send_reject(msg.from, msg.serial, msg.wave, q);
      } else {
        send_grant(msg.from, msg.serial, msg.wave, q);
        check_mode();
      }
      break;
    }
    case 3:
      assert(req_.has_value());
      if (req_->ts < msg.ts) {
        defer_.push_back(DeferredReq{net::ReqType::kUpdate, q, msg.ts, msg.from,
                                     msg.serial, msg.wave});
      } else if (use_.contains(q)) {
        // The paper's Fig. 4 case 3 grants older requests unconditionally,
        // but the requester's information may be stale by up to 2T: if q
        // is in OUR use set the grant would license co-channel
        // interference (found by the randomized-scenario fuzz suite; see
        // DESIGN.md faithfulness note 11).
        send_reject(msg.from, msg.serial, msg.wave, q);
      } else {
        // An older update request proceeds even against our search; the
        // grant enters our interfered set so our selection avoids q.
        send_grant(msg.from, msg.serial, msg.wave, q);
        check_mode();
      }
      break;
    default:
      assert(false);
  }
}

void AdaptiveNode::handle_search_request(const net::Message& msg) {
  // Defer iff our own OLDER search must finish first (Fig. 4 case 3).
  //
  // Note on the paper's case 0 (pending_i): Fig. 4 also defers younger
  // searches while a local request is parked. Combined with the fact that
  // a request can become parked AFTER having answered younger searches
  // (replies in modes 2/3 are unconditional), that rule creates a wait
  // cycle — parked node waits for a younger searcher's announcement while
  // (transitively) withholding the reply that searcher needs — and the
  // fuzz suite drives the whole system into deadlock through it. A parked
  // request therefore answers searches immediately: safety is preserved
  // because the park gate resumes only after every answered searcher has
  // announced its pick (processed before the resume), and searches are
  // then only ever deferred by strictly older searches, which keeps the
  // wait-for graph acyclic. See DESIGN.md note 9.
  if (mode_ == 3 && req_.has_value() && req_->ts < msg.ts) {
    defer_.push_back(
        DeferredReq{net::ReqType::kSearch, kNoChannel, msg.ts, msg.from, msg.serial});
    return;
  }
  awaiting_.insert(msg.from);
  send_use_reply(msg.from, msg.serial, net::ResType::kSearchReply);
}

// ---------------------------------------------------------------------------
// Fig. 5: Receive_Change_Mode
// ---------------------------------------------------------------------------

void AdaptiveNode::handle_change_mode(const net::Message& msg) {
  if (msg.mode == 0) {
    update_set_.erase(msg.from);
    return;
  }
  update_set_.insert(msg.from);
  // The switching node is waiting for everyone's Use set; echo its wave.
  net::Message resp;
  resp.kind = net::MsgKind::kResponse;
  resp.res_type = net::ResType::kStatus;
  resp.serial = msg.serial;
  resp.wave = msg.wave;
  resp.from = id();
  resp.to = msg.from;
  env().send(resp, {use_, {}});
}

// ---------------------------------------------------------------------------
// Fig. 6: check_mode()
// ---------------------------------------------------------------------------

void AdaptiveNode::check_mode() {
  const int s = free_primary_count();
  nfc_.record(env().now(), s);
  const double next = nfc_.predict(env().now(), round_trip());

  if (mode_ == 0 && next < static_cast<double>(params_.theta_low)) {
    mode_ = 1;
    ++to_borrowing_;
    ++change_wave_;
    net::Message cm;
    cm.kind = net::MsgKind::kChangeMode;
    cm.mode = 1;
    cm.wave = change_wave_;
    cm.serial = req_.has_value() ? req_->serial : 0;
    send_to_interference(cm);
  } else if (mode_ == 1 && next >= static_cast<double>(params_.theta_high)) {
    mode_ = 0;
    ++to_local_;
    net::Message cm;
    cm.kind = net::MsgKind::kChangeMode;
    cm.mode = 0;
    cm.serial = req_.has_value() ? req_->serial : 0;
    send_to_interference(cm);
  }
}

// ---------------------------------------------------------------------------
// Figs. 7, 8: Receive_Acquisition / Receive_Release
// ---------------------------------------------------------------------------

void AdaptiveNode::handle_acquisition(const net::Message& msg) {
  if (msg.channel != kNoChannel) {
    set_use_and_grant(msg.from, msg.channel, true, false);
    check_mode();
  }
  if (msg.acq_type == net::AcqType::kSearch) {
    const auto it = awaiting_.find(msg.from);
    if (it != awaiting_.end()) {
      awaiting_.erase(it);
    } else {
      // Announcement from a searcher we never answered: only reachable
      // when it timeout-aborted while its request sat in our DeferQ.
      // Drop the stale entry — answering now would insert the searcher
      // into awaiting_ with no further announcement ever coming.
      for (auto d = defer_.begin(); d != defer_.end();) {
        d = (d->type == net::ReqType::kSearch && d->from == msg.from &&
             d->serial == msg.serial)
                ? defer_.erase(d)
                : std::next(d);
      }
    }
    resume_if_quiet();
  }
}

void AdaptiveNode::handle_release(const net::Message& msg) {
  set_use_and_grant(msg.from, msg.channel, false, false);
  check_mode();
  maybe_repack();  // one of our primaries may just have become free
}

void AdaptiveNode::resume_if_quiet() {
  if (awaiting_.empty() && req_.has_value() && req_->phase == Phase::kWaitQuiet) {
    proceed();
  }
}

// ---------------------------------------------------------------------------
// Responses
// ---------------------------------------------------------------------------

void AdaptiveNode::handle_response(const net::Message& msg) {
  switch (msg.res_type) {
    case net::ResType::kStatus:
      // Fresh snapshot of the sender's Use set (grants we issued are
      // tracked separately in pending_grants_ and survive the overwrite).
      assign_known_use(msg.from, env().payload(msg).use);
      if (req_.has_value() && req_->phase == Phase::kWaitStatus &&
          msg.wave == req_->wave) {
        ++req_->statuses;
        if (req_->statuses == static_cast<int>(interference().size())) proceed();
      }
      break;

    case net::ResType::kGrant:
    case net::ResType::kReject:
      if (!req_.has_value() || req_->phase != Phase::kUpdateRound ||
          msg.serial != req_->serial || msg.channel != req_->channel ||
          msg.wave != static_cast<std::uint64_t>(req_->rounds)) {
        return;  // response to an attempt (or round) we already abandoned
      }
      ++req_->responses;
      if (msg.res_type == net::ResType::kGrant) {
        req_->granters.push_back(msg.from);
      } else {
        req_->rejected = true;
      }
      if (req_->responses == static_cast<int>(interference().size())) {
        conclude_update_round();
      }
      break;

    case net::ResType::kSearchReply:
      if (!req_.has_value() || req_->phase != Phase::kSearchRound ||
          msg.serial != req_->serial) {
        return;
      }
      assign_known_use(msg.from, env().payload(msg).use);
      ++req_->responses;
      if (req_->responses == static_cast<int>(interference().size())) {
        const ChannelSet freeSet =
            cell::ChannelSet::all(spectrum_size()) - use_ - interfered();
        conclude_search_round(freeSet.first());
      }
      break;

    default:
      assert(false && "unexpected response type for adaptive scheme");
  }
}

// ---------------------------------------------------------------------------
// Fig. 10: Best()
// ---------------------------------------------------------------------------

cell::CellId AdaptiveNode::best_lender() const {
  const ChannelSet freeSet = ChannelSet::all(spectrum_size()) - use_ - interfered();
  CellId min_id = kNoCell;
  int min_bn = std::numeric_limits<int>::max();
  std::vector<CellId> eligible;
  const auto nbrs = interference();
  for (std::size_t r = 0; r < nbrs.size(); ++r) {
    const CellId j = nbrs[r];
    if (update_set_.contains(j)) continue;  // j itself is borrowing
    if ((freeSet - known_use_[r]).empty()) continue;
    if (!params_.use_best_heuristic) {
      eligible.push_back(j);
      continue;
    }
    // |UpdateS_i ∩ IN_j|: borrowing neighbours of ours that also interfere
    // with the candidate lender — fewer means less contention on its
    // channels.
    int common_bn = 0;
    for (const CellId u : update_set_) {
      if (grid().interferes(u, j)) ++common_bn;
    }
    if (common_bn < min_bn) {
      min_bn = common_bn;
      min_id = j;
    }
  }
  if (!params_.use_best_heuristic && !eligible.empty()) {
    return eligible[env().rng(id()).pick_index(eligible.size())];
  }
  return min_id;
}

cell::ChannelId AdaptiveNode::pick_borrow_channel(CellId lender) const {
  const ChannelSet freeSet = ChannelSet::all(spectrum_size()) - use_ - interfered();
  const int lender_rank = nbr_rank(lender);
  assert(lender_rank >= 0 && "borrow target must be an interference neighbour");
  const ChannelSet lendable =
      freeSet - known_use_[static_cast<std::size_t>(lender_rank)];
  if (lendable.empty()) return kNoChannel;
  // Prefer borrowing one of the lender's own primaries; randomize within
  // the preferred tier so concurrent borrowers spread across channels.
  const ChannelSet preferred = lendable & plan().primary(lender);
  const ChannelSet& tier = preferred.empty() ? lendable : preferred;
  const auto members = tier.to_vector();
  return members[env().rng(id()).pick_index(members.size())];
}

// ---------------------------------------------------------------------------
// Fig. 9: Deallocate
// ---------------------------------------------------------------------------

void AdaptiveNode::on_release(ChannelId ch, std::uint64_t serial) {
  const bool was_borrowed = borrowed_.contains(ch);
  borrowed_.erase(ch);

  net::Message rel;
  rel.kind = net::MsgKind::kRelease;
  rel.serial = serial;
  rel.channel = ch;
  if (mode_ != 0 || was_borrowed) {
    // Fig. 9's borrowing branch; extended to borrowed channels released
    // after a return to local mode, which must reach the whole region or
    // the channel would stay marked interfered forever (DESIGN.md).
    send_to_interference(rel);
  } else {
    rel.from = id();
    for (const CellId j : update_set_) {
      rel.to = j;
      env().send(rel);
    }
  }
  if (mode_ != 0) check_mode();
  maybe_repack();  // our own release may have freed a primary
}

// ---------------------------------------------------------------------------
// Extension: dynamic channel reassignment (Cox & Reudink [1])
// ---------------------------------------------------------------------------

void AdaptiveNode::maybe_repack() {
  if (!params_.repack) return;
  // Same safety gate as a silent primary acquisition: never while a
  // neighbour's search decision is outstanding, and keep it out of the
  // middle of our own request to avoid mutating Use under a live round.
  if (!awaiting_.empty() || req_.has_value()) return;

  while (true) {
    const ChannelId borrowed = borrowed_.first();
    if (borrowed == kNoChannel) return;
    const ChannelId p = free_primary();
    if (p == kNoChannel) return;

    // Migrate the call: the primary goes into service before the borrowed
    // channel leaves it, and the environment validates the swap.
    use_.insert(p);
    env().notify_reassigned(id(), borrowed, p);
    use_.erase(borrowed);
    borrowed_.erase(borrowed);
    ++repacks_;

    // Announce like the separate operations they replace: a local primary
    // acquisition (subscribers only) and a borrowed-channel release
    // (whole region).
    net::Message acq;
    acq.kind = net::MsgKind::kAcquisition;
    acq.acq_type = net::AcqType::kNonSearch;
    acq.channel = p;
    acq.from = id();
    for (const CellId j : update_set_) {
      acq.to = j;
      env().send(acq);
    }
    net::Message rel;
    rel.kind = net::MsgKind::kRelease;
    rel.channel = borrowed;
    send_to_interference(rel);
    check_mode();
  }
}

// ---------------------------------------------------------------------------
// Helpers and dispatch
// ---------------------------------------------------------------------------

void AdaptiveNode::send_grant(CellId to, std::uint64_t serial, std::uint64_t wave,
                              ChannelId r) {
  // The paper updates both I_i and U_j at grant time; the grant is also
  // remembered as pending so a later status snapshot cannot erase it while
  // the borrower's confirmation is in flight.
  set_use_and_grant(to, r, true, true);
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

void AdaptiveNode::send_reject(CellId to, std::uint64_t serial, std::uint64_t wave,
                               ChannelId r) {
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

void AdaptiveNode::send_use_reply(CellId to, std::uint64_t serial, net::ResType type) {
  net::Message resp;
  resp.kind = net::MsgKind::kResponse;
  resp.res_type = type;
  resp.serial = serial;
  resp.from = id();
  resp.to = to;
  env().send(resp, {use_, {}});
}

// ---------------------------------------------------------------------------
// Crash recovery
// ---------------------------------------------------------------------------

void AdaptiveNode::on_crash() {
  req_.reset();
  update_set_.clear();
  defer_.clear();
  awaiting_.clear();
  for (std::size_t r = 0; r < known_use_.size(); ++r) {
    known_use_[r].clear();
    pending_grants_[r].clear();
  }
  // Wholesale cache reset is cheaper than unwinding claim by claim.
  claim_count_.assign(static_cast<std::size_t>(spectrum_size()), 0);
  interfered_cache_ = ChannelSet(spectrum_size());
  borrowed_.clear();
  nfc_.reset();
  // Cold restart begins in local mode; neighbours drop us from their
  // UpdateS when our kResyncReq arrives, and the resync replies rebuild
  // ours. change_wave_ stays monotonic (like the Lamport clock) so stale
  // pre-crash statuses can never be miscounted into a post-restart wave.
  mode_ = 0;
}

void AdaptiveNode::on_peer_restart(CellId j) {
  update_set_.erase(j);
  awaiting_.erase(j);  // erases every entry of j
  for (auto it = defer_.begin(); it != defer_.end();) {
    it = it->from == j ? defer_.erase(it) : std::next(it);
  }
  if (const int r = nbr_rank(j); r >= 0) {
    assign_known_use(j, ChannelSet(spectrum_size()));
    ChannelSet& pg = pending_grants_[static_cast<std::size_t>(r)];
    const ChannelSet granted = pg;
    for (ChannelId c = granted.first(); c != kNoChannel;
         c = granted.next_after(c)) {
      set_claim(pg, c, false);
    }
  }
  // A grant, status, or reply j issued before crashing is void. Resolve
  // any open phase exactly as its timeout would; a parked request only
  // needs the resume check now that j's awaiting entries are gone.
  if (req_.has_value()) {
    if (req_->phase == Phase::kWaitQuiet) {
      resume_if_quiet();
    } else {
      disarm_timer();
      on_phase_timeout();
    }
  }
}

void AdaptiveNode::fill_resync_reply(net::Message& m,
                                     net::SetPayload& sets) const {
  (void)sets;
  m.mode = mode_ == 0 ? 0 : 1;
}

void AdaptiveNode::apply_resync_reply(const net::Message& msg,
                                      const net::SetPayload& sets) {
  assign_known_use(msg.from, sets.use);
  if (msg.mode != 0) update_set_.insert(msg.from);
}

void AdaptiveNode::on_resync_done() {
  // Re-enter the mode machinery with the freshly learned region state;
  // announces the switch to borrowing if the region is already congested.
  check_mode();
}

void AdaptiveNode::on_message(const net::Message& msg) {
  if (handle_resync(msg)) return;
  clock_.witness(msg.ts);
  switch (msg.kind) {
    case net::MsgKind::kRequest:
      handle_request(msg);
      break;
    case net::MsgKind::kResponse:
      handle_response(msg);
      break;
    case net::MsgKind::kChangeMode:
      handle_change_mode(msg);
      break;
    case net::MsgKind::kAcquisition:
      handle_acquisition(msg);
      break;
    case net::MsgKind::kRelease:
      handle_release(msg);
      break;
    // Allocated-set transfers belong to the advanced schemes, handoffs to
    // the runner, and RESYNC rounds were consumed by handle_resync above.
    case net::MsgKind::kTransfer:
    case net::MsgKind::kHandoff:
    case net::MsgKind::kResyncReq:
    case net::MsgKind::kResyncReply:
      break;
  }
}

}  // namespace dca::core
