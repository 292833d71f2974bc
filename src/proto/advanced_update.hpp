// The advanced update scheme (Dong & Lai, OSU TR-48 1996), as the paper
// characterizes it in Section 5/6 and Fig. 11.
//
// Like basic update, every acquisition/release is broadcast to the whole
// interference region (the 2N term in Table 1). Unlike basic update, a
// *borrow* request for channel r is sent only to NP(c, r) — the cells in
// IN_c for which r is a primary channel (n_p of them, typically 2–3) —
// which is where the message savings come from. A cell acquires one of its
// own primary channels without any handshake at all (acquisition time 0
// for the ξ₁ fraction in Table 1).
//
// Each primary owner p arbitrates its channel: p grants r if, to its
// knowledge, r is free in its own interference region; while a grant is
// outstanding ("promised"), a second request for r receives
//  * REJECT            if the new request is younger than the promise,
//  * CONDITIONAL GRANT if the new request is older (it has priority but p
//    has already promised r away).
// A requester succeeds only on unanimous *unconditional* grants; a
// conditional grant counts as failure. This is exactly the unfairness the
// paper's Fig. 11 exhibits: when a younger request's messages overtake an
// older one's, the primaries promise the channel to the younger request
// and the older one — despite its priority — fails. The check
// `Experiments.Fig11AdvancedUpdateDropsTheOlderRequest` reproduces the
// scenario verbatim.
#pragma once

#include <cstdint>
#include <optional>
#include <unordered_map>
#include <vector>

#include "proto/allocator.hpp"

namespace dca::proto {

class AdvancedUpdateNode final : public AllocatorNode {
 public:
  AdvancedUpdateNode(const NodeContext& ctx, int max_attempts);

  void on_message(const net::Message& msg) override;

  /// Timestamp-inversion instrumentation for the Fig. 11 experiment:
  /// number of borrow attempts that failed only because of a conditional
  /// grant (i.e. the requester had priority but the channel was promised
  /// to a younger request).
  [[nodiscard]] std::uint64_t conditional_failures() const noexcept {
    return conditional_failures_;
  }

  [[nodiscard]] cell::ChannelSet interfered() const;

  /// True iff borrowing a channel of colour `color` is *arbitration-safe*
  /// for this cell: for every potentially conflicting cell c'' in IN_c,
  /// some primary of that colour lies in IN_c ∩ IN_{c''} (or c'' is itself
  /// such a primary), so the primaries we ask collectively observe every
  /// conflict. On interior cells of a cluster-7 plan this always holds;
  /// near grid boundaries some colours are not safely borrowable and are
  /// excluded from the candidate set (see DESIGN.md faithfulness notes).
  [[nodiscard]] bool color_borrowable(int color) const {
    return borrowable_colors_[static_cast<std::size_t>(color)];
  }

 protected:
  void start_request(std::uint64_t serial) override;
  void on_release(cell::ChannelId ch, std::uint64_t serial) override;
  void on_crash() override;
  void on_peer_restart(cell::CellId j) override;
  void apply_resync_reply(const net::Message& m,
                          const net::SetPayload& sets) override;
  [[nodiscard]] int admission_free_count() const override {
    cell::ChannelSet freeSet = cell::ChannelSet::all(spectrum_size());
    freeSet -= use_;
    freeSet -= interfered();
    return freeSet.size();
  }

 private:
  struct Attempt {
    std::uint64_t serial = 0;
    cell::ChannelId channel = cell::kNoChannel;
    net::Timestamp ts;
    int expected = 0;   // |NP(c, r)|
    int responses = 0;
    bool rejected = false;
    bool conditional = false;  // saw a conditional grant
    int round = 1;
    std::vector<cell::CellId> targets;  // NP(c, r), kept for abort cleanup
  };
  /// An outstanding promise of one of our primary channels.
  struct Promise {
    cell::CellId to = cell::kNoCell;
    net::Timestamp ts;  // timestamp of the promised request
  };

  void compute_borrowable_colors();
  void try_attempt(std::uint64_t serial, int round);
  void handle_request(const net::Message& msg);
  void handle_response(const net::Message& msg);
  void conclude_attempt();
  void abort_attempt();
  void send_response(cell::CellId to, std::uint64_t serial, std::uint64_t wave,
                     cell::ChannelId r, net::ResType type);
  /// True if channel r is believed free in our whole interference region.
  [[nodiscard]] bool believed_free(cell::ChannelId r) const;

  int max_attempts_;
  std::optional<Attempt> attempt_;
  std::vector<cell::ChannelSet> known_use_;                 // U_j by nbr_rank
  std::unordered_map<cell::ChannelId, Promise> promises_;   // our primaries only
  std::vector<cell::CellId> granters_;
  std::vector<bool> borrowable_colors_;  // by colour class
  std::uint64_t conditional_failures_ = 0;
};

}  // namespace dca::proto
