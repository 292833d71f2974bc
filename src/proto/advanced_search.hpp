// The advanced search scheme with allocated channel sets (Prakash,
// Shivaratri & Singhal, PODC'95) — the paper's reference [8], which its
// Section 6 compares the adaptive scheme against.
//
// Core idea: channel *allocation* is decoupled from channel *use*. Each
// cell owns an allocated set, grown on demand from a cold start; a call is
// served instantly from any allocated-but-idle channel, and the channel
// STAYS allocated when the call ends — so a transient hot spot keeps
// serving follow-up calls at zero cost from channels it already pulled in.
// (A full static pre-allocation would be self-defeating here: under a
// cluster plan the primaries of an interior region cover the whole
// spectrum, leaving nothing unallocated to grab and no unique owner to
// transfer from.)
//
// When the allocated set is exhausted, the cell runs a search over its
// interference region (replies carry each neighbour's allocated and busy
// sets, timestamp-sequentialized exactly like the basic search):
//   1. if some channel is unallocated everywhere in the region, allocate
//      it (announce to the region) and use it;
//   2. otherwise pick a channel r that is idle at every neighbour holding
//      it, and negotiate a transfer with ALL owners (a channel may be
//      allocated to several mutually non-interfering cells of the region):
//         TRANSFER(r) -> each owner;  owner: AGREE (reserves r) or DENY;
//         c: on unanimous agreement KEEP(r) (owners deallocate and
//         announce), otherwise ABORT to the owners that agreed.
//      Several rounds may be needed if owners refuse — the extra message
//      legs the paper's Section 6 criticizes; the adaptive scheme performs
//      the equivalent in one borrowing round.
//   3. if neither exists, the call drops.
//
// Safety: the allocated sets of interfering cells are disjoint (checked by
// tests); use ⊆ allocated, so co-channel interference reduces to allocated
// exclusivity. Concurrent allocations are sequentialized by the search
// deferral/waiting mechanism (the searching state spans the transfer
// negotiation, and the decision announcement closes it); transfers are
// serialized at the owner via reservation.
#pragma once

#include <cstdint>
#include <optional>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "proto/allocator.hpp"
#include "sim/fifo.hpp"

namespace dca::proto {

class AdvancedSearchNode final : public AllocatorNode {
 public:
  /// `max_transfer_rounds`: owners to try before giving up on a request.
  AdvancedSearchNode(const NodeContext& ctx, int max_transfer_rounds);

  void on_message(const net::Message& msg) override;

  [[nodiscard]] bool is_searching() const override { return search_.has_value(); }
  /// A cell holding any allocated channels is a "borrower" in spirit
  /// (it pulled spectrum out of the common pool); used for N_borrow.
  [[nodiscard]] bool is_borrowing() const override { return !allocated_.empty(); }

  // -- introspection -----------------------------------------------------
  [[nodiscard]] const cell::ChannelSet& allocated() const noexcept {
    return allocated_;
  }
  [[nodiscard]] cell::ChannelSet region_allocated() const;
  [[nodiscard]] std::uint64_t transfers_in() const noexcept { return transfers_in_; }
  [[nodiscard]] std::uint64_t transfers_out() const noexcept {
    return transfers_out_;
  }
  [[nodiscard]] std::uint64_t transfer_denials() const noexcept {
    return transfer_denials_;
  }

 protected:
  void start_request(std::uint64_t serial) override;
  void on_release(cell::ChannelId ch, std::uint64_t serial) override;
  void on_crash() override;
  void on_peer_restart(cell::CellId j) override;
  void fill_resync_reply(net::Message& m,
                         net::SetPayload& sets) const override;
  void apply_resync_reply(const net::Message& m,
                          const net::SetPayload& sets) override;
  /// Instantly servable channels plus spectrum unallocated anywhere in the
  /// region (obtainable by a step-1 allocation without a transfer).
  [[nodiscard]] int admission_free_count() const override {
    cell::ChannelSet avail = allocated_;
    avail -= use_;
    avail -= offered_;
    avail |= region_allocated().complement();
    return avail.size();
  }

 private:
  struct Search {
    std::uint64_t serial = 0;
    net::Timestamp ts;
    int responses = 0;
    bool info_complete = false;
    // Transfer negotiation state:
    std::vector<std::pair<cell::ChannelId, std::vector<cell::CellId>>> candidates;
    std::size_t next_candidate = 0;
    int rounds = 0;  // transfer attempts so far
    cell::ChannelId pending_channel = cell::kNoChannel;
    std::vector<cell::CellId> pending_owners;
    std::vector<cell::CellId> agreed;
    int owner_responses = 0;
    bool denied = false;
  };
  struct Deferred {
    cell::CellId from = cell::kNoCell;
    std::uint64_t serial = 0;
  };

  void handle_request(const net::Message& msg);
  void handle_response(const net::Message& msg);
  void handle_acquisition(const net::Message& msg);
  void handle_release(const net::Message& msg);
  void handle_transfer(const net::Message& msg);
  void reply_sets(cell::CellId to, std::uint64_t serial);
  void maybe_select();
  void select_or_transfer();
  void try_next_transfer();
  void finish_with(cell::ChannelId r, Outcome how, bool timed_out = false);
  void abort_search();
  void send_transfer(cell::CellId to, std::uint64_t serial, cell::ChannelId r,
                     net::TransferOp op);

  int max_transfer_rounds_;
  cell::ChannelSet allocated_;                      // our allocated set
  cell::ChannelSet offered_;                        // reserved for a requester
  std::unordered_map<cell::ChannelId, cell::CellId> offered_to_;
  std::vector<cell::ChannelSet> known_allocated_;   // by nbr_rank
  std::vector<cell::ChannelSet> known_busy_;        // by nbr_rank
  std::optional<Search> search_;
  std::unordered_set<cell::CellId> await_decision_;
  sim::Fifo<Deferred> defer_;
  std::uint64_t transfers_in_ = 0;
  std::uint64_t transfers_out_ = 0;
  std::uint64_t transfer_denials_ = 0;
};

}  // namespace dca::proto
