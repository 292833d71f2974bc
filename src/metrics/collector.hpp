// Per-call records and experiment-level aggregation.
//
// The collector opens a record when a call requests a channel, bills every
// control message carrying that request's serial to it (via the network
// observer hook), and closes the record at the accept/drop decision. The
// aggregate view computes exactly the quantities the paper's Section 5
// analysis is parameterized by:
//
//   ξ₁, ξ₂, ξ₃  — fractions of acquisitions that were local / borrowed via
//                 update / obtained via search,
//   m           — mean update-mode attempts among borrow acquisitions,
//   N_borrow    — mean number of borrowing-mode interference neighbours
//                 sampled at acquisition instants,
//   N_search    — mean number of simultaneous searches in the
//                 neighbourhood sampled at search-acquisition instants,
// plus the evaluation outputs: block/drop probability, acquisition time
// (reported in units of T), and control messages per call.
#pragma once

#include <array>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "cell/grid.hpp"
#include "metrics/summary.hpp"
#include "net/message.hpp"
#include "proto/allocator.hpp"
#include "sim/types.hpp"
#include "traffic/call.hpp"

namespace dca::metrics {

struct CallRecord {
  std::uint64_t serial = 0;
  traffic::CallId call = 0;
  cell::CellId cellId = cell::kNoCell;
  bool is_handoff = false;
  sim::SimTime t_request = 0;
  sim::SimTime t_decision = 0;
  proto::Outcome outcome = proto::Outcome::kBlockedNoChannel;
  int attempts = 0;  // paper's m for this call (update rounds used)
  int borrowing_neighbors = 0;   // sampled at decision
  int searching_neighbors = 0;   // sampled at decision
  std::array<std::uint32_t, net::kNumMsgKinds> messages{};

  [[nodiscard]] std::uint32_t total_messages() const noexcept {
    std::uint32_t s = 0;
    for (const auto m : messages) s += m;
    return s;
  }
  [[nodiscard]] sim::Duration delay() const noexcept { return t_decision - t_request; }
};

/// Aggregated results over one simulation run.
struct Aggregate {
  std::uint64_t offered = 0;       // channel requests issued
  std::uint64_t acquired = 0;
  std::uint64_t blocked = 0;       // no channel available
  std::uint64_t starved = 0;       // update retry cap exhausted
  std::uint64_t timed_out = 0;     // protocol round aborted by timeout
  std::uint64_t downed = 0;        // arrival cell crashed or resyncing
  std::uint64_t handoff_offered = 0;   // requests that were handoffs
  std::uint64_t handoff_failures = 0;  // ... of which failed (forced term.)

  double xi1 = 0.0, xi2 = 0.0, xi3 = 0.0;
  double mean_update_attempts = 0.0;  // m over ξ₂ acquisitions
  Summary attempts;                   // attempts over ALL closed requests
  double mean_borrowing_neighbors = 0.0;   // N_borrow
  double mean_searching_neighbors = 0.0;   // N_search

  Summary delay_us;           // acquisition delay, microseconds, acquired calls
  Summary delay_in_T;         // acquisition delay in units of T
  Summary messages_per_call;  // attributed messages per closed request
  Summary messages_acquired;  // ... among acquired only

  [[nodiscard]] double drop_rate() const noexcept {
    return offered == 0
               ? 0.0
               : static_cast<double>(blocked + starved + timed_out + downed) /
                     static_cast<double>(offered);
  }
};

/// Incremental accumulator behind aggregate_records. Records are folded
/// one at a time in canonical order, so a streaming engine can retire
/// closed records window by window instead of buffering the full run.
///
/// The message-count Summaries are split out of add_core() because a
/// record's message tally is NOT final at its decision instant — the
/// end-of-call RELEASE (and any retried control leg) bills later. The
/// streaming engine therefore folds add_core() at window barriers, keeps
/// per-serial tallies, and replays add_messages() in fold order at run
/// end. Each Summary's accumulation state depends only on its own add()
/// sequence, so deferring one pair of Summaries past the others is still
/// bit-identical to the buffered single pass.
class AggregateBuilder {
 public:
  explicit AggregateBuilder(sim::Duration T, sim::SimTime warmup = 0)
      : T_(T), warmup_(warmup) {}

  /// True iff `outcome` granted a channel (vs blocked/starved/timed out).
  [[nodiscard]] static bool acquired_outcome(proto::Outcome outcome) noexcept {
    return outcome == proto::Outcome::kAcquiredLocal ||
           outcome == proto::Outcome::kAcquiredUpdate ||
           outcome == proto::Outcome::kAcquiredSearch;
  }

  /// Folds every statistic except messages_per_call / messages_acquired.
  /// Returns false when the record fell inside warmup (discarded); the
  /// caller must mirror that admission decision for add_messages().
  bool add_core(const CallRecord& r);

  /// Folds one admitted record's final message total. Must be called in
  /// the same record order as add_core(), acquired = whether the record's
  /// outcome acquired a channel.
  void add_messages(std::uint32_t total, bool acquired);

  /// Buffered path: both halves at once.
  void add(const CallRecord& r) {
    if (add_core(r)) add_messages(r.total_messages(), acquired_outcome(r.outcome));
  }

  /// Finalizes the derived ratios and returns the aggregate.
  [[nodiscard]] Aggregate finish() const;

 private:
  sim::Duration T_;
  sim::SimTime warmup_;
  Aggregate a_;
  std::uint64_t n_local_ = 0, n_update_ = 0, n_search_ = 0;
  double sum_attempts_update_ = 0.0;
  double sum_borrowing_ = 0.0;
  double sum_searching_ = 0.0;
  std::uint64_t n_search_samples_ = 0;
};

/// Aggregates a sequence of closed call records. This is the single
/// source of truth for Aggregate: Collector::aggregate delegates here, and
/// the engine folds its merged shards through the same AggregateBuilder,
/// so a multi-shard run reduces through the *same* code (and the same
/// floating-point accumulation order) as a one-shard run.
/// `T` is the latency bound for delay_in_T; records with t_request <
/// `warmup` are discarded.
[[nodiscard]] Aggregate aggregate_records(const std::vector<CallRecord>& records,
                                          sim::Duration T,
                                          sim::SimTime warmup = 0);

class Collector {
 public:
  /// Opens the record for an issued request.
  void open(std::uint64_t serial, traffic::CallId call, cell::CellId cellId,
            sim::SimTime now, bool is_handoff);

  /// Network observer: bills the message to its serial (if open).
  void on_message(const net::Message& msg);

  /// Bills one message of `kind` to `serial` if this collector holds its
  /// record (open, or closed while not streaming); returns false, billing
  /// nothing, otherwise. Exactly one shard's collector opens a given
  /// serial, so the engine routes a bill no local record takes to the
  /// other shards at merge time.
  bool bill(std::uint64_t serial, net::MsgKind kind);

  /// Closes the record at the decision instant. `borrowing_neighbors` /
  /// `searching_neighbors` are environment samples taken by the runner.
  void close(std::uint64_t serial, sim::SimTime now, proto::Outcome outcome,
             int attempts, int borrowing_neighbors, int searching_neighbors);

  /// Messages whose serial was 0 or unknown (not billable to any call).
  [[nodiscard]] std::uint64_t unattributed_messages() const noexcept {
    return unattributed_;
  }

  [[nodiscard]] const std::vector<CallRecord>& records() const noexcept {
    return closed_;
  }
  /// Mutable access for post-run enrichment (the engine fills the
  /// deferred N_borrow / N_search neighbour samples in place).
  [[nodiscard]] std::vector<CallRecord>& mutable_records() noexcept {
    return closed_;
  }
  [[nodiscard]] std::size_t open_count() const noexcept { return open_.size(); }

  /// Streaming mode: the owner drains closed records periodically, so the
  /// serial -> closed-slot index (useless once records leave the
  /// collector, ~48 bytes/call) is not maintained. Late bills must then be
  /// routed by the owner's own tallies, never through bill().
  void set_streaming(bool on) noexcept { streaming_ = on; }
  [[nodiscard]] bool streaming() const noexcept { return streaming_; }

  /// Removes and returns the prefix of closed records with t_decision <
  /// `frontier`. Records close in non-decreasing decision order per
  /// collector, so this is a prefix splice. Streaming mode only.
  [[nodiscard]] std::vector<CallRecord> drain_closed_before(sim::SimTime frontier);

  /// Aggregates closed records; `T` is the latency bound for delay_in_T and
  /// `warmup` discards records whose request instant precedes it.
  [[nodiscard]] Aggregate aggregate(sim::Duration T, sim::SimTime warmup = 0) const;

 private:
  std::unordered_map<std::uint64_t, CallRecord> open_;
  std::vector<CallRecord> closed_;
  std::unordered_map<std::uint64_t, std::size_t> closed_index_;  // serial -> slot
  std::uint64_t unattributed_ = 0;
  bool streaming_ = false;
};

}  // namespace dca::metrics
