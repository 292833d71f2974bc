#include "proto/search_round.hpp"

#include <algorithm>
#include <iterator>

namespace dca::proto {

SearchRound::SearchRound(const NodeContext& ctx, bool multiset)
    : env_(ctx.env),
      in_(ctx.grid->interference(ctx.id)),
      self_(ctx.id),
      multiset_(multiset) {}

void SearchRound::ask() const {
  net::Message req;
  req.kind = net::MsgKind::kRequest;
  req.req_type = net::ReqType::kSearch;
  req.serial = serial_;
  req.ts = ts_;
  req.from = self_;
  env_->broadcast(req, in_);
}

void SearchRound::answer(cell::CellId to, std::uint64_t serial,
                         net::SetPayload sets) {
  net::Message resp;
  resp.kind = net::MsgKind::kResponse;
  resp.res_type = net::ResType::kSearchReply;
  resp.serial = serial;
  resp.from = self_;
  resp.to = to;
  env_->send(resp, std::move(sets));
  // Having authorized `to` to pick anything outside the sets we sent, we
  // must not select a channel of our own until `to` announces its pick.
  if (multiset_ || std::find(waiting_.begin(), waiting_.end(), to) == waiting_.end())
    waiting_.push_back(to);
}

void SearchRound::on_announcement(const net::Message& acq) {
  const auto it = std::find(waiting_.begin(), waiting_.end(), acq.from);
  if (it != waiting_.end()) {
    *it = waiting_.back();
    waiting_.pop_back();
    return;
  }
  // We never answered this searcher: it aborted while its request sat in
  // our DeferQ. Answering it now would wait on a decision already made.
  for (auto d = defer_.begin(); d != defer_.end();) {
    d = (d->type == net::ReqType::kSearch && d->from == acq.from &&
         d->serial == acq.serial)
            ? defer_.erase(d)
            : std::next(d);
  }
}

void SearchRound::announce(cell::ChannelId r) const {
  net::Message acq;
  acq.kind = net::MsgKind::kAcquisition;
  acq.acq_type = net::AcqType::kSearch;
  acq.serial = serial_;
  acq.channel = r;
  acq.from = self_;
  env_->broadcast(acq, in_);
}

void SearchRound::reset() {
  open_ = false;
  waiting_.clear();
  defer_.clear();
}

void SearchRound::forget(cell::CellId j) {
  std::erase(waiting_, j);
  for (auto it = defer_.begin(); it != defer_.end();) {
    it = it->from == j ? defer_.erase(it) : std::next(it);
  }
}

void SearchRound::trace_start() const {
  sim::TraceEvent e;
  e.kind = sim::TraceKind::kSearchStart;
  e.t = env_->now();
  e.cell = static_cast<std::int32_t>(self_);
  e.serial = serial_;
  e.a = static_cast<std::int64_t>(ts_.count);
  e.b = static_cast<std::int64_t>(ts_.node);
  env_->record(e);
}

void SearchRound::trace_decide(cell::ChannelId r, bool timed_out) const {
  sim::TraceEvent e;
  e.kind = sim::TraceKind::kSearchDecide;
  e.t = env_->now();
  e.cell = static_cast<std::int32_t>(self_);
  e.channel = static_cast<std::int32_t>(r);
  e.serial = serial_;
  e.a = r != cell::kNoChannel ? 1 : 0;
  e.b = timed_out ? 1 : 0;
  env_->record(e);
}

}  // namespace dca::proto
