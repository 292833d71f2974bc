// The paper's adaptive distributed dynamic channel allocation scheme
// (Sections 3.1–3.5, Figs. 2–10), as an event-driven state machine.
//
// Mode variable (paper's mode_i):
//   0 — local mode: requests are served from the primary set with zero
//       latency and no handshake; ACQUISITION/RELEASE notifications go
//       only to neighbours currently in borrowing mode (UpdateS_i).
//   1 — borrowing mode, no request in flight.
//   2 — borrowing mode, an update-style borrow round in flight.
//   3 — borrowing mode, a search round in flight.
//
// Mode 0 <-> 1 transitions are driven by check_mode(): the NFC linear
// predictor against hysteresis thresholds θ_l < θ_h, announced to the
// interference region with CHANGE_MODE so neighbours maintain UpdateS.
//
// A request is served as (Fig. 2):
//   local mode:  free primary? take it instantly. Otherwise switch to
//                borrowing, collect fresh Use-set statuses from IN_i, retry.
//   borrowing:   free primary? take it instantly. Otherwise up to α
//                update-style borrow rounds (mode 2, a proto::UpdateRound)
//                — pick a lender with Best() (fewest borrowing
//                neighbours), ask ALL of IN_i for the chosen channel,
//                unanimous grants required. After α failed rounds (or no
//                viable lender/channel), one search round (mode 3, a
//                proto::SearchRound) that finds a free channel whenever
//                one exists, else the call drops.
//
// The rounds themselves — messages, defer/waiting discipline, aborts —
// are described once, in proto/update_round.hpp and proto/search_round.hpp.
// This node supplies one timestamp per request (not per round), defers
// only while its search is open, and parks a request BEFORE any round
// while a searcher it answered is undecided (kWaitQuiet): no LOCAL
// (zero-message) acquisition may race that searcher's pick.
//
// Deviations from the paper's figures (all argued in DESIGN.md §2):
//   * I_i is derived from per-neighbour known-use sets plus
//     pending-grant sets, so status snapshots cannot erase a grant whose
//     confirmation is still in flight (note 5);
//   * the waiting/pending gate applies to local acquisitions in borrowing
//     mode too, closing a race the paper's Fig. 2 leaves open (its
//     Theorem 1 argument assumes it);
//   * a *borrowed* channel's end-of-call RELEASE always goes to the whole
//     interference region (Section 3.5 prose) even if the node has since
//     returned to local mode (Fig. 9 would leak the channel forever);
//   * Fig. 4's mode-2 reject rule follows the Section 2.2 prose by default
//     (same-channel conflicts only); `strict_fig4` restores the figure.
#pragma once

#include <cstdint>
#include <optional>
#include <unordered_set>
#include <vector>

#include "core/nfc.hpp"
#include "core/params.hpp"
#include "proto/allocator.hpp"
#include "proto/search_round.hpp"
#include "proto/update_round.hpp"

namespace dca::core {

class AdaptiveNode final : public proto::AllocatorNode {
 public:
  AdaptiveNode(const proto::NodeContext& ctx, const AdaptiveParams& params);

  void on_message(const net::Message& msg) override;

  [[nodiscard]] int mode() const override { return mode_; }
  [[nodiscard]] bool is_borrowing() const override { return mode_ != 0; }
  [[nodiscard]] bool is_searching() const override { return search_.open(); }

  // -- introspection (tests / metrics) ---------------------------------
  /// waiting_i: answered searchers whose decisions are outstanding.
  [[nodiscard]] int waiting() const noexcept { return search_.waiting_count(); }
  [[nodiscard]] const std::unordered_set<cell::CellId>& update_subscribers() const {
    return update_set_;
  }
  [[nodiscard]] std::size_t deferq_size() const noexcept { return search_.deferred(); }
  [[nodiscard]] const NfcTracker& nfc() const noexcept { return nfc_; }
  [[nodiscard]] const cell::ChannelSet& interfered() const noexcept {
    return interfered_cache_;
  }
  [[nodiscard]] int free_primary_count() const;
  /// Mode-switch counters (ablation metrics).
  [[nodiscard]] std::uint64_t switches_to_borrowing() const noexcept {
    return to_borrowing_;
  }
  [[nodiscard]] std::uint64_t switches_to_local() const noexcept { return to_local_; }
  /// Borrowed->primary call migrations performed (repack extension).
  [[nodiscard]] std::uint64_t repacks() const noexcept { return repacks_; }

 protected:
  void start_request(std::uint64_t serial) override;
  void on_release(cell::ChannelId ch, std::uint64_t serial) override;
  void on_crash() override;
  void on_peer_restart(cell::CellId j) override;
  void fill_resync_reply(net::Message& m,
                         net::SetPayload& sets) const override;
  void apply_resync_reply(const net::Message& m,
                          const net::SetPayload& sets) override;
  void on_resync_done() override;
  [[nodiscard]] int admission_free_count() const override {
    return free_primary_count();
  }

 private:
  enum class Phase : std::uint8_t {
    kWaitQuiet,    // parked until waiting_ == 0
    kWaitStatus,   // mode switch announced; collecting Use-set statuses
    kUpdateRound,  // REQUEST(update, r) outstanding to all of IN_i
    kSearchRound,  // REQUEST(search) outstanding to all of IN_i
  };

  struct Request {
    std::uint64_t serial = 0;
    net::Timestamp ts;  // fixed for the request's lifetime (paper's ts_i)
    Phase phase = Phase::kWaitQuiet;
    int rounds = 0;  // borrow-update attempts so far (paper's rounds / m)
    // Status-wave bookkeeping (kWaitStatus):
    std::uint64_t wave = 0;
    int statuses = 0;
  };

  // -- Fig. 2: the request state machine --------------------------------
  void proceed();
  void begin_update_round(cell::ChannelId ch);
  void begin_search_round();
  void conclude_update_round();
  void conclude_search_round(cell::ChannelId r);
  void on_phase_timeout();

  // -- Fig. 3: acquire() + request completion ----------------------------
  void finish_request(cell::ChannelId r, int prev_mode, proto::Outcome how);

  // -- Fig. 4: Receive_Request -----------------------------------------
  void handle_update_request(const net::Message& msg);
  void handle_search_request(const net::Message& msg);
  /// Fig. 3's DeferQ drain: answers one request our search held back.
  void answer_deferred(const proto::SearchRound::Deferred& d);

  // -- Figs. 5, 7, 8: other receive events ------------------------------
  void handle_change_mode(const net::Message& msg);
  void handle_response(const net::Message& msg);
  void handle_acquisition(const net::Message& msg);
  void handle_release(const net::Message& msg);

  // -- Fig. 6: check_mode() ----------------------------------------------
  void check_mode();

  // -- Fig. 10: Best() ----------------------------------------------------
  [[nodiscard]] cell::CellId best_lender() const;
  /// Channel to request from `lender`: prefers the lender's primaries.
  [[nodiscard]] cell::ChannelId pick_borrow_channel(cell::CellId lender) const;

  // -- extension: dynamic channel reassignment ----------------------------
  void maybe_repack();

  // -- incremental interference cache ------------------------------------
  // interfered() is the hottest query in the scheme (free_primary() runs
  // on every local acquisition and inside check_mode()); recomputing the
  // union over IN_i each time is O(|IN_i| * words). Instead we maintain a
  // per-channel claim counter over both known_use_ and pending_grants_ of
  // interference neighbours, and keep the union bitset current on every
  // mutation: a channel enters the cache on its 0->1 claim and leaves on
  // 1->0. All writes to known_use_/pending_grants_ MUST go through these
  // wrappers so the cache never drifts from the vectors it mirrors.
  void bump_claim(cell::ChannelId ch, int delta);
  /// Puts ch in or out of one of the sets, bumping the claim on a change.
  void set_claim(cell::ChannelSet& s, cell::ChannelId ch, bool on);
  /// ch in U_j per `use`, then in j's pending grants per `grant`, with one
  /// rank lookup; a no-op for non-neighbours.
  void set_use_and_grant(cell::CellId j, cell::ChannelId ch, bool use,
                         bool grant);
  void assign_known_use(cell::CellId j, const cell::ChannelSet& nu);

  // -- helpers ------------------------------------------------------------
  /// Grants (or, for a channel in Use_i, rejects) update request `serial`
  /// round `wave` from `to`; a grant enters I_i as a pending grant.
  void answer_update(cell::CellId to, std::uint64_t serial, std::uint64_t wave,
                     cell::ChannelId r, bool reject);
  void resume_if_quiet();
  [[nodiscard]] cell::ChannelId free_primary() const;
  [[nodiscard]] sim::Duration round_trip() const { return 2 * env().latency_bound(); }

  AdaptiveParams params_;
  int mode_ = 0;
  NfcTracker nfc_;
  std::optional<Request> req_;
  proto::UpdateRound update_;                              // mode 2
  // Mode 3, with DeferQ_i and waiting_i (one entry per outstanding reply;
  // a searcher can appear at most once in practice).
  proto::SearchRound search_;
  std::unordered_set<cell::CellId> update_set_;            // UpdateS_i
  std::vector<cell::ChannelSet> known_use_;                // U_j by nbr_rank
  std::vector<cell::ChannelSet> pending_grants_;           // by nbr_rank
  // Cache state (see wrappers above). Writes about non-neighbours
  // (harmless, and possible via broadcast paths) are dropped by the
  // wrappers — interfered() only ever unioned over interference().
  // Claims per channel are bounded by 2 * |IN_i| (known_use +
  // pending_grants per neighbour), far below 2^16.
  std::vector<std::uint16_t> claim_count_;                 // by channel
  cell::ChannelSet interfered_cache_;
  cell::ChannelSet borrowed_;                              // non-primary holdings
  std::uint64_t change_wave_ = 0;
  std::uint64_t to_borrowing_ = 0;
  std::uint64_t to_local_ = 0;
  std::uint64_t repacks_ = 0;
};

}  // namespace dca::core
