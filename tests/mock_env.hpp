// A scripted NodeEnv for message-level protocol unit tests.
//
// Unlike the full World (which runs a simulator and delivers messages with
// latency), MockEnv lets a test drive ONE node directly: inject any
// message, inspect exactly what the node sent, advance virtual time by
// hand, and observe completion callbacks. This pins the per-figure
// behaviours of the paper's pseudo-code (defer vs reply, grant vs reject,
// who gets ACQUISITION, ...) without the noise of a whole system.
#pragma once

#include <cstdint>
#include <deque>
#include <vector>

#include "proto/allocator.hpp"
#include "sim/random.hpp"

namespace dca::testutil {

class MockEnv final : public proto::NodeEnv {
 public:
  struct Completion {
    cell::CellId cellId = cell::kNoCell;
    std::uint64_t serial = 0;
    cell::ChannelId channel = cell::kNoChannel;
    proto::Outcome outcome = proto::Outcome::kBlockedNoChannel;
    int attempts = 0;
  };

  explicit MockEnv(sim::Duration latency = sim::milliseconds(5))
      : latency_(latency), rng_(1) {}

  // -- NodeEnv ------------------------------------------------------------
  [[nodiscard]] sim::SimTime now() const override { return now_; }
  void send(net::Message msg) override { sent_.push_back(std::move(msg)); }
  void send(net::Message msg, net::SetPayload sets) override {
    sent_.push_back(with_sets(msg, std::move(sets)));
  }
  [[nodiscard]] const net::SetPayload& payload(
      const net::Message& msg) const override {
    return payloads_.at(msg.sets);
  }
  [[nodiscard]] sim::Duration latency_bound() const override { return latency_; }
  void notify_acquired(cell::CellId cellId, std::uint64_t serial,
                       cell::ChannelId ch, proto::Outcome how, int attempts) override {
    completions_.push_back({cellId, serial, ch, how, attempts});
  }
  void notify_blocked(cell::CellId cellId, std::uint64_t serial, proto::Outcome why,
                      int attempts) override {
    completions_.push_back({cellId, serial, cell::kNoChannel, why, attempts});
  }
  void notify_released(cell::CellId cellId, cell::ChannelId ch) override {
    released_.emplace_back(cellId, ch);
  }
  void notify_reassigned(cell::CellId cellId, cell::ChannelId from_ch,
                         cell::ChannelId to_ch) override {
    reassigned_.push_back({cellId, from_ch, to_ch});
  }
  sim::RngStream& rng(cell::CellId) override { return rng_; }

  // -- scripting ------------------------------------------------------------
  void advance(sim::Duration dt) { now_ += dt; }

  /// `msg` carrying `sets`, the way a World delivers a message sent with
  /// them: payload() answers for it from here on (clear() keeps payloads,
  /// so a sent message a test copied out stays readable).
  [[nodiscard]] net::Message with_sets(net::Message msg, net::SetPayload sets) {
    msg.sets = static_cast<net::SetHandle>(payloads_.size());
    payloads_.push_back(std::move(sets));
    return msg;
  }

  /// All messages the node sent since the last clear().
  [[nodiscard]] const std::vector<net::Message>& sent() const noexcept {
    return sent_;
  }
  /// Messages of one kind, preserving order.
  [[nodiscard]] std::vector<net::Message> sent_of(net::MsgKind kind) const {
    std::vector<net::Message> out;
    for (const auto& m : sent_)
      if (m.kind == kind) out.push_back(m);
    return out;
  }
  [[nodiscard]] const std::vector<Completion>& completions() const noexcept {
    return completions_;
  }
  [[nodiscard]] const std::vector<std::pair<cell::CellId, cell::ChannelId>>&
  released() const noexcept {
    return released_;
  }
  struct Reassignment {
    cell::CellId cellId = cell::kNoCell;
    cell::ChannelId from_ch = cell::kNoChannel;
    cell::ChannelId to_ch = cell::kNoChannel;
  };
  [[nodiscard]] const std::vector<Reassignment>& reassigned() const noexcept {
    return reassigned_;
  }
  void clear() {
    sent_.clear();
    completions_.clear();
    released_.clear();
    reassigned_.clear();
  }

 private:
  sim::SimTime now_ = 0;
  sim::Duration latency_;
  sim::RngStream rng_;
  std::vector<net::Message> sent_;
  // A deque, so a payload() reference survives the node sending more.
  std::deque<net::SetPayload> payloads_;
  std::vector<Completion> completions_;
  std::vector<std::pair<cell::CellId, cell::ChannelId>> released_;
  std::vector<Reassignment> reassigned_;
};

// -- message factories (j -> node) ------------------------------------------

inline net::Message mk_search_request(cell::CellId from, cell::CellId to,
                                      net::Timestamp ts, std::uint64_t serial) {
  net::Message m;
  m.kind = net::MsgKind::kRequest;
  m.req_type = net::ReqType::kSearch;
  m.from = from;
  m.to = to;
  m.ts = ts;
  m.serial = serial;
  return m;
}

inline net::Message mk_update_request(cell::CellId from, cell::CellId to,
                                      cell::ChannelId r, net::Timestamp ts,
                                      std::uint64_t serial) {
  net::Message m;
  m.kind = net::MsgKind::kRequest;
  m.req_type = net::ReqType::kUpdate;
  m.channel = r;
  m.from = from;
  m.to = to;
  m.ts = ts;
  m.serial = serial;
  return m;
}

inline net::Message mk_response(cell::CellId from, cell::CellId to,
                                net::ResType type, cell::ChannelId r,
                                std::uint64_t serial, std::uint64_t wave = 0) {
  net::Message m;
  m.kind = net::MsgKind::kResponse;
  m.res_type = type;
  m.channel = r;
  m.from = from;
  m.to = to;
  m.serial = serial;
  m.wave = wave;
  return m;
}

/// Echo a grant/reject for an outgoing update REQUEST, the way a real
/// responder would: same serial, same channel, same round (wave) tag.
inline net::Message mk_echo_response(const net::Message& request,
                                     cell::CellId from, net::ResType type) {
  net::Message m;
  m.kind = net::MsgKind::kResponse;
  m.res_type = type;
  m.channel = request.channel;
  m.from = from;
  m.to = request.from;
  m.serial = request.serial;
  m.wave = request.wave;
  return m;
}

/// A search or status reply carrying `use`, stored in `env` (the
/// environment of the node it is injected into).
inline net::Message mk_use_reply(MockEnv& env, cell::CellId from, cell::CellId to,
                                 net::ResType type, const cell::ChannelSet& use,
                                 std::uint64_t serial, std::uint64_t wave = 0) {
  net::Message m;
  m.kind = net::MsgKind::kResponse;
  m.res_type = type;
  m.from = from;
  m.to = to;
  m.serial = serial;
  m.wave = wave;
  return env.with_sets(m, {use, {}});
}

inline net::Message mk_change_mode(cell::CellId from, cell::CellId to, int mode,
                                   std::uint64_t wave = 1) {
  net::Message m;
  m.kind = net::MsgKind::kChangeMode;
  m.mode = static_cast<std::int8_t>(mode);
  m.from = from;
  m.to = to;
  m.wave = wave;
  return m;
}

inline net::Message mk_acquisition(cell::CellId from, cell::CellId to,
                                   net::AcqType type, cell::ChannelId r,
                                   std::uint64_t serial = 0) {
  net::Message m;
  m.kind = net::MsgKind::kAcquisition;
  m.acq_type = type;
  m.channel = r;
  m.from = from;
  m.to = to;
  m.serial = serial;
  return m;
}

inline net::Message mk_release(cell::CellId from, cell::CellId to,
                               cell::ChannelId r, std::uint64_t serial = 0) {
  net::Message m;
  m.kind = net::MsgKind::kRelease;
  m.channel = r;
  m.from = from;
  m.to = to;
  m.serial = serial;
  return m;
}

}  // namespace dca::testutil
