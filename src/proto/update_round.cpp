#include "proto/update_round.hpp"

namespace dca::proto {

UpdateRound::UpdateRound(const NodeContext& ctx)
    : env_(ctx.env), in_(ctx.grid->interference(ctx.id)), self_(ctx.id) {}

void UpdateRound::begin(std::uint64_t serial, cell::ChannelId ch,
                        net::Timestamp ts, int round) {
  open_ = true;
  serial_ = serial;
  channel_ = ch;
  ts_ = ts;
  round_ = round;
  answers_ = 0;
  rejected_ = false;
  conditional_ = false;
  yielded_ = false;
  granters_.clear();
}

void UpdateRound::ask_region(std::uint64_t serial, cell::ChannelId ch,
                             net::Timestamp ts, int round) {
  begin(serial, ch, ts, round);
  region_ = true;
  expected_ = static_cast<std::uint32_t>(in_.size());
  env_->broadcast(request(), in_);
}

void UpdateRound::ask(std::uint64_t serial, cell::ChannelId ch,
                      net::Timestamp ts, int round,
                      std::span<const cell::CellId> targets) {
  begin(serial, ch, ts, round);
  region_ = false;
  targets_.assign(targets.begin(), targets.end());
  expected_ = static_cast<std::uint32_t>(targets_.size());
  net::Message req = request();
  for (const cell::CellId p : targets_) {
    req.to = p;
    env_->send(req);
  }
}

net::Message UpdateRound::request() const {
  net::Message req;
  req.kind = net::MsgKind::kRequest;
  req.req_type = net::ReqType::kUpdate;
  req.serial = serial_;
  req.channel = channel_;
  req.ts = ts_;
  req.wave = static_cast<std::uint64_t>(round_);
  req.from = self_;
  return req;
}

net::Message UpdateRound::release() const {
  net::Message rel;
  rel.kind = net::MsgKind::kRelease;
  rel.serial = serial_;
  rel.channel = channel_;
  rel.from = self_;
  return rel;
}

void UpdateRound::fail() {
  open_ = false;
  net::Message rel = release();
  for (const cell::CellId j : granters_) {
    rel.to = j;
    env_->send(rel);
  }
  granters_.clear();
}

void UpdateRound::abort() {
  open_ = false;
  granters_.clear();
  net::Message rel = release();
  if (region_) {
    env_->broadcast(rel, in_);
    return;
  }
  for (const cell::CellId p : targets_) {
    rel.to = p;
    env_->send(rel);
  }
}

void UpdateRound::respond(cell::CellId to, std::uint64_t serial,
                          std::uint64_t wave, cell::ChannelId ch,
                          net::ResType type) const {
  net::Message resp;
  resp.kind = net::MsgKind::kResponse;
  resp.res_type = type;
  resp.serial = serial;
  resp.wave = wave;
  resp.channel = ch;
  resp.from = self_;
  resp.to = to;
  env_->send(resp);
}

}  // namespace dca::proto
