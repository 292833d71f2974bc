// The basic search scheme (Dong & Lai, ICDCS'97), as summarized in
// Section 2.2 of the paper.
//
// A node needing a channel queries every cell in its interference region;
// each replies with its set of used channels; the requester picks any
// channel absent from all replies. The query, its timestamp ordering
// against concurrent searches, and the decision announcement are one
// proto::SearchRound (search_round.hpp); this node adds only the Use-set
// replies and the gate that holds its selection until every searcher it
// answered has announced.
//
// Note on accounting: the paper's Table 1 charges basic search 2N
// (request + response only); our measured count includes the announcement
// (≈3N). The table generators report both views (see DESIGN.md,
// faithfulness note 6).
//
// Searches gather fresh information each time; no persistent per-neighbour
// state is kept and call termination sends no messages.
#pragma once

#include <cstdint>

#include "proto/allocator.hpp"
#include "proto/search_round.hpp"

namespace dca::proto {

class BasicSearchNode final : public AllocatorNode {
 public:
  explicit BasicSearchNode(const NodeContext& ctx)
      : AllocatorNode(ctx), search_(ctx, false), busy_(spectrum_size()) {}

  void on_message(const net::Message& msg) override;

  /// A search-scheme node is "searching" while its query is outstanding.
  [[nodiscard]] bool is_searching() const override { return search_.open(); }

 protected:
  void start_request(std::uint64_t serial) override;
  void on_release(cell::ChannelId ch, std::uint64_t serial) override;
  void on_crash() override;
  void on_peer_restart(cell::CellId j) override;

 private:
  void handle_response(const net::Message& msg);
  void handle_acquisition(const net::Message& msg);
  void maybe_finalize();
  /// Decides the open search on `r` (kNoChannel: none free, or aborted).
  void conclude(cell::ChannelId r, bool timed_out);
  void abort_search();

  SearchRound search_;
  cell::ChannelSet busy_;  // union of Use sets seen by the open search
};

}  // namespace dca::proto
