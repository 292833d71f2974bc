// The search round (Dong & Lai's basic search; the adaptive scheme's
// mode 3): one Lamport-stamped query of the whole interference region,
// plus the state that keeps concurrent searches in overlapping regions
// from picking the same channel. Basic search, advanced search and the
// adaptive scheme each hold one as a plain member.
//
// Sequentialization (Section 2.2 of the paper):
//
//  * while its own search is open, a node DEFERS every request carrying a
//    younger timestamp (defer_if_older) and answers it at its decision;
//  * it answers an older search at once (answer), but then WAITS for that
//    searcher's decision before making a selection of its own — otherwise
//    both could pick the same channel. The waiting set holds the searchers
//    answered whose ACQUISITION(kSearch) is still outstanding;
//  * the decision is announced to the whole region as ACQUISITION(kSearch),
//    sent even on failure (with kNoChannel) so every waiter unblocks, and
//    the deferred requests are answered right after it (decide).
//
// An aborted searcher announces too, so an announcement from a searcher we
// deferred but never answered drops its stale DeferQ entry: answering it
// later would put it in the waiting set with no announcement ever coming.
//
// What the round leaves to its scheme: what a reply carries (the Use set,
// or Use plus the allocated set), how a reply is folded, when the decision
// is taken (the baselines gate it on waiting(); the adaptive scheme parks
// before the round instead), and what a deferred update request gets.
#pragma once

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "proto/allocator.hpp"
#include "sim/fifo.hpp"

namespace dca::proto {

class SearchRound {
 public:
  /// A request held back by the open (older) search: a search request, or
  /// in the adaptive scheme an update request too.
  struct Deferred {
    net::ReqType type = net::ReqType::kSearch;
    cell::CellId from = cell::kNoCell;
    cell::ChannelId channel = cell::kNoChannel;  // update requests only
    std::uint64_t serial = 0;
    std::uint64_t wave = 0;  // update requester's round tag, echoed back
  };

  /// `multiset`: a searcher answered twice is awaited twice (the adaptive
  /// scheme's waiting_i counter); otherwise once.
  SearchRound(const NodeContext& ctx, bool multiset);

  // -- the open search -------------------------------------------------------

  [[nodiscard]] bool open() const noexcept { return open_; }
  /// The open (or last) search's request serial and timestamp.
  [[nodiscard]] std::uint64_t serial() const noexcept { return serial_; }
  [[nodiscard]] const net::Timestamp& ts() const noexcept { return ts_; }
  /// Every interference neighbour has replied to the open search.
  [[nodiscard]] bool all_replied() const noexcept { return replies_ == in_.size(); }

  /// Opens a search for request `serial` stamped `ts`: records its start,
  /// runs `arm` (the scheme arms its round timer), then sends
  /// REQUEST(kSearch) to every interference neighbour.
  template <typename Arm>
  void start(std::uint64_t serial, net::Timestamp ts, Arm&& arm) {
    open_ = true;
    serial_ = serial;
    ts_ = ts;
    replies_ = 0;
    trace_start();
    std::forward<Arm>(arm)();
    ask();
  }

  /// Counts a RESPONSE(kSearchReply); false (not counted) unless it
  /// answers the open search. The scheme folds the payload itself.
  bool count_reply(const net::Message& reply) {
    if (!open_ || reply.serial != serial_) return false;
    ++replies_;
    return true;
  }

  // -- other nodes' requests ---------------------------------------------------

  /// Defers `req` (a REQUEST of either type) when the open search is older
  /// than it; true if deferred.
  bool defer_if_older(const net::Message& req) {
    if (!open_ || !(ts_ < req.ts)) return false;
    defer_.push_back(Deferred{req.req_type, req.from, req.channel, req.serial,
                              req.wave});
    return true;
  }

  /// Sends `to` the reply to its search `serial`, carrying `sets`, and
  /// waits for its decision.
  void answer(cell::CellId to, std::uint64_t serial, net::SetPayload sets);

  /// True while some answered searcher's decision is outstanding.
  [[nodiscard]] bool waiting() const noexcept { return !waiting_.empty(); }
  [[nodiscard]] int waiting_count() const noexcept {
    return static_cast<int>(waiting_.size());
  }
  [[nodiscard]] std::size_t deferred() const noexcept { return defer_.size(); }

  /// An ACQUISITION(kSearch): its sender decided. Ends one wait on it, or
  /// drops its stale DeferQ entry when it aborted before we answered.
  void on_announcement(const net::Message& acq);

  // -- the decision ------------------------------------------------------------

  /// Closes the open search on channel `r` (kNoChannel: failed or
  /// aborted): announces r to the whole region, then hands every deferred
  /// request, oldest first, to `answer_deferred(const Deferred&)`.
  template <typename Answer>
  void decide(cell::ChannelId r, Answer&& answer_deferred) {
    open_ = false;
    announce(r);
    while (!defer_.empty()) {
      const Deferred d = defer_.front();
      defer_.pop_front();
      answer_deferred(d);
    }
  }

  /// Records the search's conclusion in the trace (call while serial()
  /// still names it).
  void trace_decide(cell::ChannelId r, bool timed_out) const;

  // -- crash recovery ----------------------------------------------------------

  /// This node crashed: every piece of round state is volatile.
  void reset();
  /// Neighbour `j` restarted cold: it forgot the search we were awaiting
  /// and every reply it owed us. The scheme aborts its open search itself.
  void forget(cell::CellId j);

 private:
  void trace_start() const;
  void ask() const;
  void announce(cell::ChannelId r) const;

  NodeEnv* env_;
  std::span<const cell::CellId> in_;
  std::uint64_t serial_ = 0;
  net::Timestamp ts_;
  // Searchers answered whose announcement is outstanding (waiting_i); a
  // handful at most, so a flat vector beats any set.
  std::vector<cell::CellId> waiting_;
  sim::Fifo<Deferred> defer_;  // DeferQ_i
  cell::CellId self_;
  std::uint32_t replies_ = 0;
  bool multiset_;
  bool open_ = false;
};

}  // namespace dca::proto
