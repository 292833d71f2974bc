// The basic search scheme (Dong & Lai, ICDCS'97), as summarized in
// Section 2.2 of the paper.
//
// A node needing a channel queries every cell in its interference region;
// each replies with its set of used channels; the requester picks any
// channel absent from all replies. Concurrent searches in overlapping
// regions are sequentialized by Lamport timestamps:
//
//  * a node that is itself mid-search DEFERS its reply to any request
//    carrying a HIGHER timestamp until its own search completes;
//  * a node replies immediately to a LOWER-timestamped request, but must
//    then wait for that searcher's decision announcement before making its
//    own selection (otherwise both could pick the same channel). This is
//    the `waiting` mechanism the adaptive scheme's search mode inherits.
//
// The decision announcement is an ACQUISITION broadcast (sent even on
// failure, with kNoChannel, so waiters unblock). Note on accounting: the
// paper's Table 1 charges basic search 2N (request + response only); our
// measured count includes the announcement (≈3N). The table generators
// report both views (see DESIGN.md, faithfulness note 6).
//
// Searches gather fresh information each time; no persistent per-neighbour
// state is kept and call termination sends no messages.
#pragma once

#include <cstdint>
#include <optional>
#include <unordered_map>
#include <unordered_set>

#include "proto/allocator.hpp"
#include "sim/fifo.hpp"

namespace dca::proto {

class BasicSearchNode final : public AllocatorNode {
 public:
  explicit BasicSearchNode(const NodeContext& ctx) : AllocatorNode(ctx) {}

  void on_message(const net::Message& msg) override;

  /// A search-scheme node is "searching" while its query is outstanding.
  [[nodiscard]] bool is_searching() const override { return search_.has_value(); }

 protected:
  void start_request(std::uint64_t serial) override;
  void on_release(cell::ChannelId ch, std::uint64_t serial) override;
  void on_crash() override;
  void on_peer_restart(cell::CellId j) override;

 private:
  struct Search {
    std::uint64_t serial = 0;
    net::Timestamp ts;
    int responses = 0;              // replies received so far
    cell::ChannelSet busy;          // union of Use sets seen (replies + announcements)
  };
  struct Deferred {
    cell::CellId from = cell::kNoCell;
    std::uint64_t serial = 0;
  };

  void handle_request(const net::Message& msg);
  void handle_response(const net::Message& msg);
  void handle_acquisition(const net::Message& msg);
  void reply_use_set(cell::CellId to, std::uint64_t serial);
  void maybe_finalize();
  void finalize();
  void abort_search();

  std::optional<Search> search_;
  // Searchers we answered whose decision announcement is still pending
  // (the adaptive scheme's waiting_i, kept as a set for debuggability).
  std::unordered_set<cell::CellId> await_decision_;
  sim::Fifo<Deferred> defer_;
};

}  // namespace dca::proto
