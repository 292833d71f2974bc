// The basic update scheme (Dong & Lai, ICDCS'97), as summarized in
// Section 2.2 of the paper.
//
// Every node continuously mirrors the channel usage of its interference
// region: each acquisition and release is broadcast to all neighbours in
// the region. To acquire, a node picks a channel it believes free, asks
// every neighbour for permission, and proceeds only on unanimous grants —
// one proto::UpdateRound (update_round.hpp) per attempt.
// Conflicting concurrent requests for the same channel are arbitrated by
// timestamp: the younger requester grants the older one and aborts its own
// attempt. A rejected (or aborted) requester releases the grants it did
// collect and retries with another channel — potentially forever under
// heavy load (Table 3's ∞); the simulator bounds retries with
// `max_attempts` and reports the overflow as starvation.
//
// State kept per neighbour j: U_j (what we believe j uses, maintained by
// ACQUISITION/RELEASE broadcasts) and the set of channels we have granted
// to j but not yet seen confirmed/released (pending grants). The paper's
// I_i is derived as the union of both — see DESIGN.md, faithfulness
// note 5, for why grants must survive snapshot updates.
#pragma once

#include <cstdint>
#include <vector>

#include "proto/allocator.hpp"
#include "proto/channel_pick.hpp"
#include "proto/update_round.hpp"

namespace dca::proto {

class BasicUpdateNode final : public AllocatorNode {
 public:
  /// `max_attempts`: retry bound before a request is declared starved.
  /// `pick`: how the attempt channel is chosen among believed-free ones.
  BasicUpdateNode(const NodeContext& ctx, int max_attempts,
                  ChannelPick pick = ChannelPick::kRandom);

  void on_message(const net::Message& msg) override;

  [[nodiscard]] bool has_pending_attempt() const noexcept {
    return update_.open();
  }

  /// What this node believes is used around it (∪ U_j ∪ pending grants).
  [[nodiscard]] cell::ChannelSet interfered() const;

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
  void try_attempt(std::uint64_t serial, int round);
  void handle_request(const net::Message& msg);
  void conclude_attempt();
  void abort_attempt();
  /// After a failed round: the next one, or `why` at the retry cap.
  void retry_or_block(std::uint64_t serial, int round, Outcome why);

  int max_attempts_;
  ChannelPick pick_;
  cell::ChannelId pick_cursor_ = cell::kNoChannel;
  UpdateRound update_;
  std::vector<cell::ChannelSet> known_use_;       // U_j, indexed by nbr_rank
  std::vector<cell::ChannelSet> pending_grants_;  // granted to j, unconfirmed (by nbr_rank)
};

}  // namespace dca::proto
