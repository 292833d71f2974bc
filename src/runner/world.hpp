// The World: one fully assembled simulated cellular system — grid, reuse
// plan, transport, one allocator node per cell, metrics, call lifecycle
// management and the safety invariant checker — executed on the sharded
// deterministic kernel (sim/shard.hpp). It is the simulator's only engine:
// run_profile drives it with a Poisson load, and tests, Fig. 11 and the
// examples script it call by call.
//
// Cells are partitioned across shards by config.partition. Every piece of
// mutable run state lives on exactly one shard and is only touched by
// events that shard executes:
//
//   owner = cell c          node, node RNG, crash state, ground-truth
//                           ChannelSet, pending/active calls, per-cell
//                           metric records (request cell = c)
//   owner = link (a, b)     the transport's sender side on shard_of(a),
//                           its receiver side on shard_of(b)
//   per shard               collector, trace buffer, usage integral,
//                           violation and availability counters
//
// Cross-shard effects travel exclusively as message deliveries (delay >=
// the latency floor), satisfying the kernel's lookahead contract. Results
// merge exactly: integer counters and int64 usage integrals sum; each
// shard's call records and trace events are in (time, cell) order, and a
// k-way merge by (time, cell) reproduces the canonical global order, since
// same-(time, cell) entries always come from one shard in execution order.
// Cross-shard metric reads (the paper's N_borrow / N_search neighbour
// samples) are reconstructed from per-cell flag-change timelines instead of
// sampled live. The outcome is bit-identical for any shard and thread
// count (docs/ARCHITECTURE.md gives the argument).
//
// Theorem 1 (no co-channel use within the reuse distance) is checked at
// every acquisition against the ground truth of the acquiring cell's shard;
// the conformance checker's reuse-distance pass over the merged trace
// covers the whole region.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <unordered_map>
#include <utility>
#include <vector>

#include "cell/grid.hpp"
#include "cell/reuse.hpp"
#include "metrics/availability.hpp"
#include "metrics/collector.hpp"
#include "net/latency.hpp"
#include "net/link_table.hpp"
#include "net/transport.hpp"
#include "proto/allocator.hpp"
#include "radio/noise.hpp"
#include "runner/experiment.hpp"
#include "runner/flag_timeline.hpp"
#include "runner/scenario.hpp"
#include "sim/random.hpp"
#include "sim/shard.hpp"
#include "sim/trace.hpp"
#include "traffic/arrivals.hpp"
#include "traffic/call.hpp"
#include "traffic/profile.hpp"

namespace dca::runner {

class ConformanceChecker;

class World {
 public:
  /// Builds the world. `load` (optional, must outlive the world) offers
  /// Poisson arrivals until config.duration; without it calls come only
  /// from submit_call. `latency_override` (optional) replaces the scenario
  /// latency model (the Fig. 11 scripted scenario uses one). The config
  /// must pass validate_scenario.
  World(const ScenarioConfig& config, Scheme scheme,
        const traffic::LoadProfile* load = nullptr,
        std::unique_ptr<net::LatencyModel> latency_override = nullptr);
  ~World();

  World(const World&) = delete;
  World& operator=(const World&) = delete;

  /// Attaches a structured-trace sink. Call before running; the events
  /// reach it in canonical (t, cell) order from result() (or, with
  /// stream_metrics, at the window folds).
  void set_recorder(sim::TraceRecorder* rec);

  /// Human-readable per-message log (single-threaded runs only).
  void set_message_log(sim::TraceLog* log) { transport_->set_log(log); }

  // -- scripted stepping ---------------------------------------------------

  /// Offers one call at now(), bypassing the Poisson source: opens its
  /// metrics record and submits the channel request to spec.cell's MSS.
  /// spec.id is the caller's choice and must not collide with another
  /// call's (generated calls use 1..offered).
  void submit_call(const traffic::CallSpec& spec);

  /// Executes every event at or before `deadline`; every shard clock then
  /// reads `deadline`.
  void run_until(sim::SimTime deadline) { kernel_.run_until(deadline); }

  /// Drains all events; every shard clock then reads the instant of the
  /// last one.
  void run_to_quiescence();

  /// Virtual time between runs (the latest shard clock).
  [[nodiscard]] sim::SimTime now() const { return kernel_.max_now(); }

  /// Runs the configured horizon, then drains: in-flight handshakes and
  /// held calls complete, which also exercises the Theorem 2 check — a
  /// stuck request would leave the world non-quiescent.
  void run();

  /// Merges the shards into the run's results; call once, after running.
  /// Also finalizes the records collector() exposes (foreign message
  /// bills and the deferred neighbour samples applied).
  [[nodiscard]] RunResult result();

  // -- accessors -----------------------------------------------------------
  [[nodiscard]] const cell::HexGrid& grid() const noexcept { return grid_; }
  [[nodiscard]] const cell::ReusePlan& plan() const noexcept { return plan_; }
  [[nodiscard]] proto::AllocatorNode& node(cell::CellId c) {
    return *nodes_[static_cast<std::size_t>(c)];
  }
  [[nodiscard]] const proto::AllocatorNode& node(cell::CellId c) const {
    return *nodes_[static_cast<std::size_t>(c)];
  }
  /// Call records of the cells on shard 0 — every record at the default
  /// shards = 1, which is what the scripted API runs. Message bills are
  /// complete for one shard at any time; neighbour samples are filled by
  /// result().
  [[nodiscard]] const metrics::Collector& collector() const noexcept {
    return states_.front().collector;
  }
  [[nodiscard]] sim::Duration latency_bound() const {
    return latency_->max_one_way();
  }

  /// Protocol messages sent so far, in total and by kind.
  [[nodiscard]] std::uint64_t total_sent() const {
    return transport_->total_sent();
  }
  [[nodiscard]] std::uint64_t sent_of(net::MsgKind k) const {
    return transport_->sent_of(k);
  }

  /// Theorem 1 violations observed (must stay 0).
  [[nodiscard]] std::uint64_t interference_violations() const;
  /// Intra-cell channel reassignments performed (repacking extension).
  [[nodiscard]] std::uint64_t reassignments() const;
  /// Calls currently holding a channel.
  [[nodiscard]] std::size_t active_calls() const;
  /// Ground-truth usage of a cell (for tests: must equal node(c).in_use()).
  [[nodiscard]] const cell::ChannelSet& ground_truth_use(cell::CellId c) const {
    return truth_[static_cast<std::size_t>(c)];
  }
  /// No open request, queued request or resync anywhere (Theorem 2 style
  /// end-of-run check).
  [[nodiscard]] bool quiescent() const;

 private:
  /// Per-shard NodeEnv. Nodes of shard s all share one env; `current` is set
  /// to the owning cell of the event being executed, which is how
  /// schedule_in / cancel_scheduled attribute timers without widening the
  /// NodeEnv interface.
  class ShardEnv final : public proto::NodeEnv {
   public:
    World* world = nullptr;
    int shard = 0;
    cell::CellId current = cell::kNoCell;

    [[nodiscard]] sim::SimTime now() const override;
    void send(net::Message msg) override;
    [[nodiscard]] sim::Duration latency_bound() const override;
    void notify_acquired(cell::CellId cellId, std::uint64_t serial,
                         cell::ChannelId ch, proto::Outcome how,
                         int attempts) override;
    void notify_blocked(cell::CellId cellId, std::uint64_t serial,
                        proto::Outcome why, int attempts) override;
    void notify_released(cell::CellId cellId, cell::ChannelId ch) override;
    void notify_reassigned(cell::CellId cellId, cell::ChannelId from_ch,
                           cell::ChannelId to_ch) override;
    void notify_resynced(cell::CellId cellId, int rounds) override;
    sim::RngStream& rng(cell::CellId cellId) override;
    sim::EventId schedule_in(sim::Duration delay, sim::TimerFn fn) override;
    void cancel_scheduled(sim::EventId id) override;
    void record(const sim::TraceEvent& ev) override;
    [[nodiscard]] bool channel_usable(cell::CellId cellId,
                                      cell::ChannelId ch) const override;
  };

  struct PendingCall {
    traffic::CallId call = 0;
    sim::Duration remaining = 0;  // holding time still owed at grant
    bool is_handoff = false;
  };
  struct ActiveCall {
    cell::CellId cellId = cell::kNoCell;
    cell::ChannelId channel = cell::kNoChannel;
    sim::SimTime ends = 0;  // absolute completion time of the whole call
  };

  /// All run state owned by one shard. Only events executing on that shard
  /// touch it, so workers never contend; alignas keeps neighbouring shards
  /// off each other's cache lines.
  struct alignas(64) ShardState {
    ShardEnv env;
    metrics::Collector collector;  // records whose request cell is local
    // Bills for serials this shard's collector does not hold (a migrated
    // call's record lives where its handoff landed), applied at result().
    std::vector<std::pair<std::uint64_t, net::MsgKind>> foreign_bills;
    // Streaming-mode attribution: total attributed messages per serial,
    // summed across shards at run end — generated calls' first legs in a
    // dense vector by serial - 1, every other serial in the map.
    std::vector<std::uint32_t> msg_tally_base;
    std::unordered_map<std::uint64_t, std::uint32_t> msg_tally_other;
    std::unordered_map<std::uint64_t, PendingCall> pending;
    std::unordered_map<std::uint64_t, ActiveCall> active;
    std::uint64_t violations = 0;
    std::uint64_t reassignments = 0;
    metrics::Availability avail;
    // Time-weighted usage integral in exact channel-microseconds; the
    // per-shard int64 partial sums merge by addition.
    std::int64_t usage_integral = 0;
    std::int64_t channels_in_use = 0;
    sim::SimTime last_usage_change = 0;
    std::vector<sim::TraceEvent> trace;
  };

  [[nodiscard]] ShardState& state_of(cell::CellId c) {
    return states_[static_cast<std::size_t>(kernel_.shard_of(c))];
  }
  [[nodiscard]] sim::SimTime now_of(cell::CellId c) const {
    return kernel_.now(kernel_.shard_of(c));
  }

  /// Schedules a cell-local event; it runs with `owner` as the current
  /// cell and records the owner's mode flags afterwards.
  template <typename F>
  sim::EventId schedule_local(cell::CellId owner, std::uint8_t klass,
                              sim::SimTime when, F&& fn);
  void flag_check(cell::CellId c);
  /// Buffers a trace event on the shard of its cell (which is the shard
  /// executing it), when a recorder is attached.
  void emit(const sim::TraceEvent& e);

  // Traffic.
  void schedule_next_arrival(cell::CellId c);
  void open_call(cell::CellId c, std::uint64_t serial, traffic::CallId call,
                 sim::Duration holding, bool is_handoff);
  void net_send(net::Message msg);
  void dispatch_to_node(const net::Message& msg);
  void handoff_arrival(const net::Message& msg);

  // Fault timelines.
  void schedule_pause_cycle(cell::CellId c, sim::SimTime from_time);
  void schedule_crash_cycle(cell::CellId c, sim::SimTime from_time);
  void crash_cell(cell::CellId c);
  void restart_cell(cell::CellId c);
  [[nodiscard]] bool down_now(cell::CellId c) const {
    return (crashes_on_ && crashed_[static_cast<std::size_t>(c)] != 0) ||
           nodes_[static_cast<std::size_t>(c)]->resyncing();
  }

  // Call lifecycle (NodeEnv backends).
  void notify_acquired(cell::CellId cellId, std::uint64_t serial,
                       cell::ChannelId ch, proto::Outcome how, int attempts);
  void notify_blocked(cell::CellId cellId, std::uint64_t serial,
                      proto::Outcome why, int attempts);
  void notify_released(cell::CellId cellId, cell::ChannelId ch);
  void notify_reassigned(cell::CellId cellId, cell::ChannelId from_ch,
                         cell::ChannelId to_ch);
  void notify_resynced(cell::CellId cellId, int rounds);
  /// Theorem-1 check of `cellId` taking `ch` (fresh, or moved from
  /// `from_ch` by a reassignment), against same-shard interference
  /// neighbours (cross-shard ground truth is mid-window foreign state; the
  /// merged-trace conformance pass covers it).
  void check_reuse(cell::CellId cellId, cell::ChannelId ch,
                   cell::ChannelId from_ch);
  void end_call(std::uint64_t serial, cell::CellId cellId);
  void accumulate_usage(ShardState& st, sim::SimTime t);
  void trace_call_event(sim::TraceKind kind, cell::CellId cellId,
                        cell::ChannelId ch, std::uint64_t serial,
                        std::int64_t a = 0);
  void trace_handoff(sim::TraceKind kind, cell::CellId cellId,
                     cell::CellId peer, std::uint64_t serial, std::int64_t hop,
                     sim::SimTime ends);

  // Streaming consumption (config_.stream_metrics): invoked by the kernel
  // at window barriers; folds everything that became final before
  // `frontier` into the incremental aggregate and releases its memory.
  void on_window(sim::SimTime frontier);
  void fold_to(sim::SimTime frontier);
  /// Buffered consumption: bills, samples and folds every shard's records.
  [[nodiscard]] metrics::Aggregate aggregate_buffered();
  void emit_trace(std::vector<sim::TraceEvent> events);

  ScenarioConfig config_;
  Scheme scheme_;
  sim::TraceRecorder* trace_ = nullptr;
  cell::HexGrid grid_;
  cell::ReusePlan plan_;
  // Shared dense link index, read-only during the run. Declared before the
  // latency model, which may keep a pointer to it after bind_links.
  net::LinkTable links_;
  std::unique_ptr<net::LatencyModel> latency_;
  radio::NoiseField noise_;
  sim::ShardedKernel kernel_;
  std::unique_ptr<net::Transport> transport_;
  std::vector<ShardState> states_;
  // Shared by every node; must outlive nodes_ (declared before it).
  std::unique_ptr<const proto::AllocationPolicy> policy_;
  std::vector<std::unique_ptr<proto::AllocatorNode>> nodes_;
  // Per-cell protocol streams, derived on first use: derivation is a pure
  // function of (seed, cell), so lazy == eager, draw for draw.
  std::vector<std::unique_ptr<sim::RngStream>> node_rng_;
  std::vector<sim::RngStream> pause_rng_;
  std::vector<sim::RngStream> crash_rng_;
  std::vector<cell::ChannelSet> truth_;

  // Poisson load: every cell's candidate chain, consumed one pending event
  // per cell.
  traffic::ArrivalPlan arrivals_;

  // Crash-recovery state; each cell's entries are only touched by events
  // that cell owns (and readers on its shard).
  bool crashes_on_ = false;
  std::vector<std::uint8_t> crashed_;     // currently off the air
  std::vector<sim::SimTime> down_since_;  // crash instant, per cell
  std::vector<sim::SimTime> restart_at_;  // last restart instant, per cell

  // Flag timelines for deferred neighbour sampling (flag_timeline.hpp).
  FlagTimelines flags_;

  // -- streaming-mode state (config_.stream_metrics) ---------------------
  std::optional<metrics::AggregateBuilder> builder_;
  // Admitted records in fold order: (serial, acquired). The deferred
  // message Summaries replay over this at run end once the per-serial
  // tallies are final — 9 bytes/call instead of a ~120-byte CallRecord.
  std::vector<std::pair<std::uint64_t, bool>> fold_order_;
  sim::SimTime next_fold_ = 0;
  // In-engine conformance replay over the drained trace prefixes (the
  // streamed trace may be spilled or discarded by the recorder's sink).
  std::unique_ptr<ConformanceChecker> conform_;
};

}  // namespace dca::runner
