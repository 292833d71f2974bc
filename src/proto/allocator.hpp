// The channel-allocator node framework.
//
// Every allocation scheme (FCA, basic search, basic update, advanced
// update, and the paper's adaptive scheme) is an AllocatorNode subclass:
// an event-driven state machine owning the per-cell protocol state. The
// paper's pseudo-code is written with blocking `wait UNTIL` primitives;
// here each wait becomes an explicit pending-operation record advanced by
// on_message().
//
// Concurrency discipline: an MSS serves ONE local channel request at a
// time; requests that arrive while an acquisition is in flight queue FIFO
// in the base class. (In local/fixed modes an acquisition completes
// synchronously, so the queue only ever builds while a node is exchanging
// messages.)
//
// The node talks to the rest of the simulated world only through NodeEnv:
// virtual time, message send, and request-outcome notifications. That
// boundary is what lets tests drive a node deterministically without the
// full runner.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "cell/grid.hpp"
#include "cell/reuse.hpp"
#include "cell/spectrum.hpp"
#include "net/message.hpp"
#include "net/timestamp.hpp"
#include "sim/event_store.hpp"
#include "sim/fifo.hpp"
#include "sim/random.hpp"
#include "sim/trace.hpp"
#include "sim/types.hpp"

namespace dca::proto {

/// How a channel request ended.
enum class Outcome : std::uint8_t {
  kAcquiredLocal = 0,   // satisfied from the primary set, zero latency
  kAcquiredUpdate = 1,  // borrowed via an update-style handshake
  kAcquiredSearch = 2,  // obtained via a search-style exhaustive query
  kBlockedNoChannel = 3,  // no interference-free channel existed
  kBlockedStarved = 4,    // update-scheme retry cap exhausted (starvation)
  kBlockedTimeout = 5,    // a protocol round timed out (lossy/stalled peers)
  kBlockedDown = 6,       // serving MSS crashed (or is resyncing after one)
};

[[nodiscard]] inline bool is_acquired(Outcome o) noexcept {
  return o == Outcome::kAcquiredLocal || o == Outcome::kAcquiredUpdate ||
         o == Outcome::kAcquiredSearch;
}

[[nodiscard]] std::string outcome_name(Outcome o);

/// Services the world provides to a node.
class NodeEnv {
 public:
  virtual ~NodeEnv() = default;

  [[nodiscard]] virtual sim::SimTime now() const = 0;

  /// Sends a control message (delivered after the network latency).
  virtual void send(net::Message msg) = 0;

  /// Sends a control message carrying set operands: the environment
  /// stores `sets` and puts its handle in msg.sets (whatever the node left
  /// there is overwritten). Unicast only — no broadcast carries a set.
  virtual void send(net::Message msg, net::SetPayload sets) = 0;

  /// The set operands of `msg`, a message being delivered that was sent
  /// with them (msg.sets != kNoSets). Valid until on_message returns: the
  /// runner frees the payload once the message is dispatched, so a node
  /// copies out whatever it keeps.
  [[nodiscard]] virtual const net::SetPayload& payload(
      const net::Message& msg) const = 0;

  /// Sends one copy of `msg` to each cell of `to` — the sender's
  /// interference neighbourhood, in its order; msg.to is ignored. The
  /// default is one send() per copy; the World sends the fan-out in one
  /// call.
  virtual void broadcast(const net::Message& msg,
                         std::span<const cell::CellId> to) {
    for (const cell::CellId j : to) {
      net::Message copy = msg;
      copy.to = j;
      send(std::move(copy));
    }
  }

  /// The latency bound T (paper notation).
  [[nodiscard]] virtual sim::Duration latency_bound() const = 0;

  /// Request `serial` at `cellId` obtained channel `ch`.
  /// `attempts` = borrow attempts consumed (the paper's m; 0 for local).
  virtual void notify_acquired(cell::CellId cellId, std::uint64_t serial,
                               cell::ChannelId ch, Outcome how, int attempts) = 0;

  /// Request `serial` at `cellId` failed.
  virtual void notify_blocked(cell::CellId cellId, std::uint64_t serial, Outcome why,
                              int attempts) = 0;

  /// Channel `ch` is no longer used at `cellId` (invariant bookkeeping).
  virtual void notify_released(cell::CellId cellId, cell::ChannelId ch) = 0;

  /// The call currently carried on `from_ch` at `cellId` switches to
  /// `to_ch` (intra-cell channel reassignment, Cox & Reudink style). The
  /// environment re-checks the interference invariant for `to_ch` and
  /// re-keys its call bookkeeping. Precondition: exactly one active call
  /// uses `from_ch` at `cellId`.
  virtual void notify_reassigned(cell::CellId cellId, cell::ChannelId from_ch,
                                 cell::ChannelId to_ch) = 0;

  /// Per-node RNG substream (used for randomized channel picks).
  virtual sim::RngStream& rng(cell::CellId cellId) = 0;

  // -- optional services (default no-ops keep lightweight test envs valid)

  /// Schedules `fn` after `delay` simulated microseconds (protocol
  /// timers). The callable is a sim::TimerFn — a small inline-only
  /// closure, so crossing this virtual boundary never allocates.
  /// Environments without a scheduler may keep the default, which
  /// silently drops the request — the generation counter in
  /// AllocatorNode::arm_timer keeps that safe.
  virtual sim::EventId schedule_in(sim::Duration delay, sim::TimerFn fn) {
    (void)delay;
    (void)fn;
    return sim::kInvalidEventId;
  }

  /// Cancels a timer returned by schedule_in (no-op by default).
  virtual void cancel_scheduled(sim::EventId id) { (void)id; }

  /// Structured conformance-trace sink. Default: discard.
  virtual void record(const sim::TraceEvent& ev) { (void)ev; }

  /// A restarted node finished its cold-state resync after `rounds`
  /// request waves and is ready to re-admit traffic. Default: ignore
  /// (environments without the crash fault model never see it).
  virtual void notify_resynced(cell::CellId cellId, int rounds) {
    (void)cellId;
    (void)rounds;
  }
};

/// Immutable wiring shared by all nodes of a world.
struct NodeContext {
  cell::CellId id = cell::kNoCell;
  const cell::HexGrid* grid = nullptr;
  const cell::ReusePlan* plan = nullptr;
  NodeEnv* env = nullptr;
  /// How long a node waits on the replies of one protocol round before
  /// aborting the round. 0 disables every timer (safe only on lossless
  /// links), which keeps the fault-free message trajectories bit for bit.
  sim::Duration request_timeout = 0;
  /// Guard channels (scenario key `handoff_guard`): a new call is blocked
  /// while the node believes at most this many channels are free; handoff
  /// legs always pass. -1 = no gate.
  int handoff_guard = -1;
};

class AllocatorNode {
 public:
  explicit AllocatorNode(const NodeContext& ctx);
  virtual ~AllocatorNode() = default;

  AllocatorNode(const AllocatorNode&) = delete;
  AllocatorNode& operator=(const AllocatorNode&) = delete;

  [[nodiscard]] cell::CellId id() const noexcept { return id_; }

  /// Channels currently carrying calls in this cell (the paper's Use_i).
  [[nodiscard]] const cell::ChannelSet& in_use() const noexcept { return use_; }

  /// Submits a channel request (one per call). The outcome is reported via
  /// NodeEnv::notify_acquired / notify_blocked, possibly synchronously.
  void request_channel(std::uint64_t serial);

  /// A call using `ch` in this cell ended; runs the scheme's release
  /// protocol. `serial` is the acquisition the release is billed to (0 =
  /// unattributed). Precondition: ch ∈ in_use().
  void release_channel(cell::ChannelId ch, std::uint64_t serial = 0);

  /// Delivers one protocol message addressed to this node.
  virtual void on_message(const net::Message& msg) = 0;

  /// Scheme-specific mode for metrics (adaptive: paper's mode_i; others 0).
  [[nodiscard]] virtual int mode() const { return 0; }

  /// True when the node considers itself in a borrowing-type state
  /// (drives the paper's N_borrow statistic; always false for baselines
  /// without the notion).
  [[nodiscard]] virtual bool is_borrowing() const { return false; }

  /// True while the node has a search-style query outstanding (drives the
  /// paper's N_search statistic).
  [[nodiscard]] virtual bool is_searching() const { return false; }

  /// True while a channel request is being served (including queued ones).
  [[nodiscard]] bool busy() const noexcept { return busy_; }

  /// Number of locally queued (not yet started) requests.
  [[nodiscard]] std::size_t queued() const noexcept { return queue_.size(); }

  // -- crash-recovery fault model ------------------------------------------

  /// The MSS process died: every piece of volatile protocol state is lost.
  /// Returns the serials of the in-flight plus queued requests (in service
  /// order) so the environment can close them as blocked; the environment
  /// tears down the live calls itself (no release protocol runs — the
  /// neighbours learn about the freed channels through the resync and the
  /// ordinary announcements that follow).
  ///
  /// The Lamport clock deliberately survives the crash: ticking on from
  /// the pre-crash value keeps every post-restart timestamp ahead of
  /// anything neighbours already witnessed from this node, which the
  /// search-order discipline depends on.
  std::vector<std::uint64_t> crash_reset();

  /// The MSS restarted cold. Sends kResyncReq to every interference
  /// neighbour and keeps re-sending every request_timeout until each has
  /// answered with a kResyncReply state snapshot; until then resyncing()
  /// is true and the environment must not admit traffic here. Completion
  /// is reported through NodeEnv::notify_resynced.
  void begin_resync();

  /// True between begin_resync() and the last neighbour's state reply.
  [[nodiscard]] bool resyncing() const noexcept { return resyncing_; }

 protected:
  /// Begins serving one request. Subclasses must eventually call
  /// complete_acquired() or complete_blocked() with the same serial.
  virtual void start_request(std::uint64_t serial) = 0;

  /// The node's view of how many channels a fresh request could use right
  /// now — the estimate the guard-channel gate compares against. Only
  /// consulted for new calls when handoff_guard >= 0, so ungated runs
  /// never compute it. The base default is the loosest sensible bound;
  /// schemes that track remote state override it with their actual
  /// believed-free count.
  [[nodiscard]] virtual int admission_free_count() const {
    return spectrum_size() - use_.size();
  }

  /// Scheme-specific release protocol (messaging); base handles Use_i and
  /// world notification before invoking this.
  virtual void on_release(cell::ChannelId ch, std::uint64_t serial) = 0;

  // -- crash-recovery hooks (defaults suit stateless schemes like FCA) -----

  /// Wipe every scheme-owned piece of volatile state (open rounds, known
  /// neighbour sets, deferred work). Called by crash_reset() after the
  /// base state is gone; must not send messages.
  virtual void on_crash() {}

  /// Interference neighbour `j` restarted cold (its kResyncReq arrived).
  /// Implementations must (a) drop every belief about j — known use sets,
  /// pending grants/promises/offers towards j, deferred work from j — and
  /// (b) abort any open protocol round through the scheme's existing
  /// timeout path: a reply j sent before crashing is void (j no longer
  /// remembers the grant), so a round that counted it must not conclude.
  /// Treating "peer restarted" exactly like "round timed out" is what
  /// closes the stale-grant race.
  virtual void on_peer_restart(cell::CellId j) { (void)j; }

  /// Add scheme-specific state to an outgoing kResyncReply (sets.use is
  /// already this node's Use set).
  virtual void fill_resync_reply(net::Message& m, net::SetPayload& sets) const {
    (void)m;
    (void)sets;
  }

  /// Absorb a neighbour's kResyncReply state snapshot (its header and its
  /// set operands) during resync.
  virtual void apply_resync_reply(const net::Message& m,
                                  const net::SetPayload& sets) {
    (void)m;
    (void)sets;
  }

  /// All neighbours answered; runs before NodeEnv::notify_resynced (e.g.
  /// the adaptive scheme re-evaluates its mode here).
  virtual void on_resync_done() {}

  /// Intercepts kResyncReq / kResyncReply. Every scheme's on_message must
  /// call this first and return when it handles the message.
  bool handle_resync(const net::Message& msg);

  // -- completion helpers (advance the local FIFO) -------------------------
  void complete_acquired(std::uint64_t serial, cell::ChannelId ch, Outcome how,
                         int attempts);
  void complete_blocked(std::uint64_t serial, Outcome why, int attempts);

  // -- conveniences ---------------------------------------------------------
  [[nodiscard]] std::span<const cell::CellId> interference() const {
    return grid_->interference(id_);
  }

  /// Dense rank of `j` in this node's interference list (0..|IN_i|-1), or
  /// -1 when j is not an interference neighbour. The schemes' per-
  /// neighbour bookkeeping vectors (U_j, pending grants, allocated sets)
  /// are rank-indexed so a node's footprint scales with |IN_i| instead of
  /// the whole grid — the difference between O(cells * |IN|) and the
  /// O(cells^2) that made metro-scale grids unrunnable. |IN_i| is a couple
  /// of dozen cells at most, so the linear scan beats any map.
  [[nodiscard]] int nbr_rank(cell::CellId j) const {
    const auto nbrs = grid_->interference(id_);
    for (std::size_t r = 0; r < nbrs.size(); ++r) {
      if (nbrs[r] == j) return static_cast<int>(r);
    }
    return -1;
  }
  [[nodiscard]] std::size_t nbr_count() const {
    return grid_->interference(id_).size();
  }
  [[nodiscard]] int spectrum_size() const noexcept { return plan_->n_channels(); }
  [[nodiscard]] const cell::ChannelSet& primary() const { return plan_->primary(id_); }
  [[nodiscard]] NodeEnv& env() const noexcept { return *env_; }
  [[nodiscard]] const cell::HexGrid& grid() const noexcept { return *grid_; }
  [[nodiscard]] const cell::ReusePlan& plan() const noexcept { return *plan_; }

  /// Sends `msg` (with from/to filled in) to every cell in IN_i.
  void send_to_interference(net::Message msg);

  // -- protocol timer (fault hardening) ------------------------------------

  [[nodiscard]] sim::Duration request_timeout() const noexcept {
    return request_timeout_;
  }

  /// Arms the node's single protocol timer, replacing any armed one. The
  /// callback runs only if this arming is still the latest when it fires
  /// (a generation counter absorbs lazily-cancelled events and
  /// environments that cannot cancel). No-op when timeouts are disabled.
  /// The wrapped callback must fit TimerFn's inline buffer — every timer
  /// in-tree is a [this]-capture, so arming never allocates.
  template <typename F>
  void arm_timer(sim::Duration delay, F&& fn) {
    if (request_timeout_ <= 0) return;
    disarm_timer();
    const std::uint64_t gen = timer_gen_;
    auto cb = [this, gen, f = std::forward<F>(fn)]() mutable {
      if (gen != timer_gen_) return;  // superseded or disarmed meanwhile
      timer_ = sim::kInvalidEventId;
      ++timer_gen_;
      f();
    };
    static_assert(sim::TimerFn::fits_inline<decltype(cb)>(),
                  "protocol timer closure must fit TimerFn's inline buffer; "
                  "grow sim::kTimerFnCapacity if a scheme's timer capture grew");
    timer_ = env_->schedule_in(delay, sim::TimerFn(std::move(cb)));
  }
  void disarm_timer();

  // -- conformance trace emission ------------------------------------------

  void trace_timeout(std::uint64_t serial, int phase_tag);

  cell::ChannelSet use_;        // Use_i
  net::LamportClock clock_;     // request timestamping

 private:
  void advance();
  /// Runs the guard-channel gate, then start_request or an immediate
  /// block. The single entry point for serving a request (fresh or
  /// dequeued), so gated and ungated paths stay aligned across schemes.
  void begin_request(std::uint64_t serial);

  // Resync round machinery. The resync exchange needs its own timer slot:
  // scheme code re-arms the single protocol timer freely, and a node can
  // be answering protocol traffic while still waiting on resync replies.
  void send_resync_requests();
  void arm_resync_timer();
  void disarm_resync_timer();
  void resync_done();

  cell::CellId id_;
  const cell::HexGrid* grid_;
  const cell::ReusePlan* plan_;
  NodeEnv* env_;
  sim::Duration request_timeout_;
  int handoff_guard_;
  bool busy_ = false;
  std::uint64_t current_serial_ = 0;  // the serial begin_request is serving
  sim::Fifo<std::uint64_t> queue_;
  sim::EventId timer_ = sim::kInvalidEventId;
  std::uint64_t timer_gen_ = 0;

  bool resyncing_ = false;
  int resync_rounds_ = 0;                     // request waves sent so far
  std::vector<std::uint8_t> resync_waiting_;  // by neighbour rank
  std::size_t resync_missing_ = 0;
  sim::EventId resync_timer_ = sim::kInvalidEventId;
  std::uint64_t resync_timer_gen_ = 0;
};

}  // namespace dca::proto
