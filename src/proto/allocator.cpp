#include "proto/allocator.hpp"

#include <cassert>

#include "traffic/mobility.hpp"

namespace dca::proto {

std::string outcome_name(Outcome o) {
  switch (o) {
    case Outcome::kAcquiredLocal: return "acquired-local";
    case Outcome::kAcquiredUpdate: return "acquired-update";
    case Outcome::kAcquiredSearch: return "acquired-search";
    case Outcome::kBlockedNoChannel: return "blocked-no-channel";
    case Outcome::kBlockedStarved: return "blocked-starved";
    case Outcome::kBlockedTimeout: return "blocked-timeout";
    case Outcome::kBlockedDown: return "blocked-down";
  }
  return "?";
}

AllocatorNode::AllocatorNode(const NodeContext& ctx)
    : use_(ctx.plan->n_channels()),
      clock_(ctx.id),
      id_(ctx.id),
      grid_(ctx.grid),
      plan_(ctx.plan),
      env_(ctx.env),
      request_timeout_(ctx.request_timeout),
      handoff_guard_(ctx.handoff_guard) {
  assert(grid_ != nullptr && plan_ != nullptr && env_ != nullptr);
  assert(grid_->valid(id_));
}

void AllocatorNode::request_channel(std::uint64_t serial) {
  if (busy_) {
    queue_.push_back(serial);
    return;
  }
  busy_ = true;
  begin_request(serial);
}

void AllocatorNode::begin_request(std::uint64_t serial) {
  current_serial_ = serial;
  // Guard channels: a new call (mobility serials encode (call, hop); hop 0
  // is the call's first leg) needs more than handoff_guard_ believed-free
  // channels, so the last few stay for handoffs. -1 never gates.
  if (handoff_guard_ >= 0 && traffic::mobility::hop_of(serial) == 0 &&
      admission_free_count() <= handoff_guard_) {
    complete_blocked(serial, Outcome::kBlockedNoChannel, 0);
    return;
  }
  start_request(serial);
}

void AllocatorNode::release_channel(cell::ChannelId ch, std::uint64_t serial) {
  assert(use_.contains(ch));
  use_.erase(ch);
  env_->notify_released(id_, ch);
  on_release(ch, serial);
}

void AllocatorNode::complete_acquired(std::uint64_t serial, cell::ChannelId ch,
                                      Outcome how, int attempts) {
  assert(busy_);
  assert(use_.contains(ch) && "subclass must insert into Use before completing");
  env_->notify_acquired(id_, serial, ch, how, attempts);
  advance();
}

void AllocatorNode::complete_blocked(std::uint64_t serial, Outcome why, int attempts) {
  assert(busy_);
  env_->notify_blocked(id_, serial, why, attempts);
  advance();
}

void AllocatorNode::advance() {
  busy_ = false;
  if (queue_.empty()) return;
  const std::uint64_t next = queue_.front();
  queue_.pop_front();
  busy_ = true;
  // Note: a synchronous completion chain recurses here; depth is bounded by
  // the queue length, which only builds while message exchanges are in
  // flight (local acquisitions never queue behind each other).
  begin_request(next);
}

void AllocatorNode::send_to_interference(net::Message msg) {
  msg.from = id_;
  env_->broadcast(msg, interference());
}

void AllocatorNode::disarm_timer() {
  ++timer_gen_;  // invalidates any in-flight firing
  if (timer_ == sim::kInvalidEventId) return;
  env_->cancel_scheduled(timer_);
  timer_ = sim::kInvalidEventId;
}

// -- crash-recovery --------------------------------------------------------

std::vector<std::uint64_t> AllocatorNode::crash_reset() {
  std::vector<std::uint64_t> torn;
  if (busy_) torn.push_back(current_serial_);
  torn.insert(torn.end(), queue_.begin(), queue_.end());
  queue_.clear();
  busy_ = false;
  use_.clear();
  disarm_timer();
  disarm_resync_timer();
  resyncing_ = false;
  on_crash();
  return torn;
}

void AllocatorNode::begin_resync() {
  assert(!busy_ && queue_.empty() && "restart must find the node idle");
  const std::size_t n = nbr_count();
  resyncing_ = true;
  resync_rounds_ = 1;
  resync_waiting_.assign(n, 1);
  resync_missing_ = n;
  if (n == 0) {  // isolated cell: nothing to learn
    resync_done();
    return;
  }
  send_resync_requests();
  arm_resync_timer();
}

void AllocatorNode::send_resync_requests() {
  const auto nbrs = interference();
  for (std::size_t r = 0; r < nbrs.size(); ++r) {
    if (resync_waiting_[r] == 0) continue;
    net::Message m;
    m.kind = net::MsgKind::kResyncReq;
    m.from = id_;
    m.to = nbrs[r];
    env_->send(std::move(m));
  }
}

void AllocatorNode::arm_resync_timer() {
  if (request_timeout_ <= 0) return;
  const std::uint64_t gen = ++resync_timer_gen_;
  auto cb = [this, gen]() {
    if (gen != resync_timer_gen_ || !resyncing_) return;
    resync_timer_ = sim::kInvalidEventId;
    // A neighbour that was itself down discarded our request outright (no
    // transport retry reaches a dead process), so the protocol re-sends
    // every timeout until each neighbour has answered.
    ++resync_rounds_;
    send_resync_requests();
    arm_resync_timer();
  };
  static_assert(sim::TimerFn::fits_inline<decltype(cb)>(),
                "resync timer closure must fit TimerFn's inline buffer");
  resync_timer_ =
      env_->schedule_in(request_timeout_, sim::TimerFn(std::move(cb)));
}

void AllocatorNode::disarm_resync_timer() {
  ++resync_timer_gen_;
  if (resync_timer_ == sim::kInvalidEventId) return;
  env_->cancel_scheduled(resync_timer_);
  resync_timer_ = sim::kInvalidEventId;
}

void AllocatorNode::resync_done() {
  resyncing_ = false;
  disarm_resync_timer();
  on_resync_done();
  env_->notify_resynced(id_, resync_rounds_);
}

bool AllocatorNode::handle_resync(const net::Message& msg) {
  if (msg.kind == net::MsgKind::kResyncReq) {
    // The peer lost all state, including anything it ever promised or
    // deferred for us — make our beliefs about it conservative and void
    // any open round that counted its pre-crash replies. Replying with
    // the *current* Use set (after the abort) is what makes the exchange
    // safe: nothing this node acquires after this reply can rest on a
    // grant the peer no longer remembers.
    on_peer_restart(msg.from);
    net::Message m;
    m.kind = net::MsgKind::kResyncReply;
    m.from = id_;
    m.to = msg.from;
    net::SetPayload sets{use_, {}};
    fill_resync_reply(m, sets);
    env_->send(m, std::move(sets));
    return true;
  }
  if (msg.kind == net::MsgKind::kResyncReply) {
    if (!resyncing_) return true;  // reply to a wave we already closed
    const int r = nbr_rank(msg.from);
    if (r >= 0 && resync_waiting_[static_cast<std::size_t>(r)] != 0) {
      resync_waiting_[static_cast<std::size_t>(r)] = 0;
      --resync_missing_;
      apply_resync_reply(msg, env_->payload(msg));
      if (resync_missing_ == 0) resync_done();
    }
    return true;
  }
  return false;
}

void AllocatorNode::trace_timeout(std::uint64_t serial, int phase_tag) {
  sim::TraceEvent e;
  e.kind = sim::TraceKind::kTimeout;
  e.t = env_->now();
  e.cell = static_cast<std::int32_t>(id_);
  e.serial = serial;
  e.a = phase_tag;
  env_->record(e);
}

}  // namespace dca::proto
