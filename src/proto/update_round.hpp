// The update round (Dong & Lai's basic update; the adaptive scheme's
// mode 2): a request for ONE channel, granted only by unanimous consent.
// Basic update, advanced update and the adaptive scheme each hold one as a
// plain member.
//
// The requester sends REQUEST(kUpdate, ch) to its targets — every
// interference neighbour (one broadcast), or advanced update's NP(c, ch),
// the primary owners of ch in the region (a unicast list) — and folds
// their answers: GRANT, REJECT, or advanced update's CONDITIONAL GRANT
// (the arbiter promised ch to a younger request; it counts as a failure).
// Each request carries its round number as the wave tag and every answer
// echoes it, so a straggler from an earlier, timed-out round of the same
// request is never counted into the current one.
//
// A round ends one of three ways:
//   * every target granted: the channel is the requester's (close);
//   * some target refused: RELEASE(ch) goes back to each granter (fail);
//   * the round's timer fired, or a target restarted cold: RELEASE(ch)
//     goes to EVERY target asked (abort) — grants may still be in flight,
//     and per-link FIFO orders the REQUEST before the RELEASE, so no
//     pending grant or promise leaks.
//
// What the round leaves to its scheme: the timestamp (basic and advanced
// update tick one per round, the adaptive scheme keeps its request's),
// the arbiter rules (respond is the one answer builder they share), and
// what follows a round (an announcement or none; a retry cap, or alpha
// rounds and then a search).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "proto/allocator.hpp"

namespace dca::proto {

class UpdateRound {
 public:
  explicit UpdateRound(const NodeContext& ctx);

  [[nodiscard]] bool open() const noexcept { return open_; }
  /// The open (or last) round's request serial, channel, timestamp and
  /// 1-based round number.
  [[nodiscard]] std::uint64_t serial() const noexcept { return serial_; }
  [[nodiscard]] cell::ChannelId channel() const noexcept { return channel_; }
  [[nodiscard]] const net::Timestamp& ts() const noexcept { return ts_; }
  [[nodiscard]] int round() const noexcept { return round_; }

  /// Opens round `round` of request `serial` for channel `ch`, stamped
  /// `ts`, and asks every interference neighbour (one broadcast).
  void ask_region(std::uint64_t serial, cell::ChannelId ch, net::Timestamp ts,
                  int round);
  /// The same, asking only `targets`, one unicast each in order.
  void ask(std::uint64_t serial, cell::ChannelId ch, net::Timestamp ts,
           int round, std::span<const cell::CellId> targets);

  /// Folds a RESPONSE into the open round. Returns true when it was the
  /// round's last outstanding answer; answers to another request or an
  /// earlier round are ignored.
  bool fold(const net::Message& resp) {
    if (!open_ || resp.serial != serial_ ||
        resp.wave != static_cast<std::uint64_t>(round_)) {
      return false;
    }
    ++answers_;
    switch (resp.res_type) {
      case net::ResType::kGrant:
        granters_.push_back(resp.from);
        break;
      case net::ResType::kConditionalGrant:
        conditional_ = true;
        break;
      default:
        rejected_ = true;
        break;
    }
    return all_answered();
  }
  /// Every target has answered (at once true for a round with no target).
  [[nodiscard]] bool all_answered() const noexcept {
    return answers_ == expected_;
  }

  /// Basic update's tie rule: this node granted `channel()` to an older
  /// request, so the round must fail whatever the answers say.
  void yield() noexcept { yielded_ = true; }
  [[nodiscard]] bool yielded() const noexcept { return yielded_; }
  [[nodiscard]] bool rejected() const noexcept { return rejected_; }
  [[nodiscard]] bool conditional() const noexcept { return conditional_; }
  [[nodiscard]] bool granted() const noexcept {
    return !rejected_ && !conditional_ && !yielded_;
  }

  /// Ends the round with its grants standing (success).
  void close() noexcept { open_ = false; }
  /// Ends a refused round: RELEASE(channel) to each granter.
  void fail();
  /// Ends the round early: RELEASE(channel) to every target asked.
  void abort();
  /// This node crashed: the round is gone.
  void reset() noexcept {
    open_ = false;
    granters_.clear();
  }

  /// An arbiter's answer to round `wave` of request `serial` from `to`.
  void respond(cell::CellId to, std::uint64_t serial, std::uint64_t wave,
               cell::ChannelId ch, net::ResType type) const;

 private:
  void begin(std::uint64_t serial, cell::ChannelId ch, net::Timestamp ts,
             int round);
  [[nodiscard]] net::Message request() const;
  [[nodiscard]] net::Message release() const;

  NodeEnv* env_;
  std::span<const cell::CellId> in_;
  std::uint64_t serial_ = 0;
  net::Timestamp ts_;
  std::vector<cell::CellId> targets_;   // unicast targets (region_ false)
  std::vector<cell::CellId> granters_;  // who granted this round
  cell::CellId self_;
  cell::ChannelId channel_ = cell::kNoChannel;
  int round_ = 0;
  std::uint32_t expected_ = 0;
  std::uint32_t answers_ = 0;
  bool open_ = false;
  bool region_ = true;  // targets are all of IN_i (else targets_)
  bool rejected_ = false;
  bool conditional_ = false;
  bool yielded_ = false;
};

}  // namespace dca::proto
