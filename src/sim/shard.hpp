// Shard-aware deterministically-parallel discrete-event kernel.
//
// The simulator's only event engine. Breaking timestamp ties by insertion
// order would give a total order that exists only on a single thread, so
// this kernel partitions events across shards (cells are mapped to shards;
// every event is owned by exactly one cell) and orders them by a
// *canonical event key*
//
//     (when, owner cell, class, sub, seq)
//
// that is a pure function of the scenario, never of execution interleaving.
// Shards therefore execute their own queues independently inside a
// conservative synchronization window and still produce bit-identical
// results for any shard count and any thread count.
//
// Conservative window: all cross-shard interactions are message deliveries
// carrying at least L, the minimum latency floor over the links that cross
// shards (the lookahead — shard-internal links never enter an outbox, so
// only the cross-shard link floors constrain the window; jittered links
// contribute their deterministic lower bound, and fault jitter only adds
// delay). A window spans [W, W + L); an event executing at t >= W can only
// create cross-shard work at t + d >= W + L, i.e. strictly beyond the
// window, so the shards never need to see each other's state mid-window. Cross-shard
// events travel through per-(source, destination) outboxes that are merged
// into the owning shard's queue at the window barrier; merge order is
// irrelevant because the queue orders by canonical key.
//
// Threading: N worker threads claim shards off an atomic counter each
// window and meet at a single std::barrier per window (outboxes are double
// buffered, so draining window k's mail overlaps with writing window
// k+1's). The thread count affects wall-clock only, never results.
#pragma once

#include <atomic>
#include <barrier>
#include <cassert>
#include <compare>
#include <cstdint>
#include <functional>
#include <vector>

#include "sim/event_store.hpp"
#include "sim/small_fn.hpp"
#include "sim/types.hpp"

namespace dca::sim {

// Canonical event classes, ordered by when each kind of event is created
// relative to the instant it fires (see docs/ARCHITECTURE.md "The
// canonical-key contract"):
//   * control (pause/resume timelines) is scheduled far ahead of anything
//     else that could share its instant;
//   * protocol/transport timers are always armed before any same-instant
//     message delivery is scheduled (a delivery is created at most one
//     latency before it fires; timers at least one timeout before);
//   * deliveries tie with each other constantly (fixed latency puts every
//     broadcast fan-out on the same instant) and order by source cell then
//     per-link sequence — exactly the order the sends were issued in.
inline constexpr std::uint8_t kClassControl = 0;
inline constexpr std::uint8_t kClassArrival = 1;
inline constexpr std::uint8_t kClassProgress = 2;
inline constexpr std::uint8_t kClassTimer = 3;
inline constexpr std::uint8_t kClassDelivery = 4;

/// Strict total order over events; member declaration order IS the sort
/// order. `sub` disambiguates within a class (deliveries: source cell),
/// `seq` within (owner, class, sub) (deliveries: per-link send counter;
/// local classes: the owner cell's scheduling counter).
struct EventKey {
  SimTime when = 0;
  std::int32_t owner = 0;  // owning cell; maps to a shard
  std::uint8_t klass = kClassControl;
  std::int32_t sub = 0;
  std::uint64_t seq = 0;

  friend constexpr auto operator<=>(const EventKey&, const EventKey&) = default;
};

/// One shard's pending-event set, ordered by canonical key, on the
/// slab/generation storage of event_store.hpp: POD heap entries, pooled
/// callbacks, O(1) generation-bump cancellation.
class ShardQueue {
 public:
  using Action = EventFn;

  /// Schedules a callable under a canonical key; raw closures land
  /// directly in the slab slot (no intermediate EventFn).
  template <typename F>
  EventId schedule(const EventKey& key, F&& action) {
    const std::uint32_t slot = slab_.acquire(std::forward<F>(action));
    const std::uint32_t gen = slab_.gen(slot);
    heap_.push(Entry{key, slot, gen});
    ++live_;
    return detail::make_event_id(slot, gen);
  }

  void cancel(EventId id) {
    if (id == kInvalidEventId) return;
    const std::uint32_t slot = detail::event_slot(id);
    if (!slab_.live(slot, detail::event_gen(id))) return;
    slab_.discard(slot);
    --live_;
    ++stale_;
    if (stale_ > live_ + detail::kHeapCompactSlack) compact();
  }

  [[nodiscard]] bool empty() const noexcept { return live_ == 0; }
  [[nodiscard]] std::size_t size() const noexcept { return live_; }

  /// Key of the earliest live event. Precondition: !empty().
  [[nodiscard]] const EventKey& next_key() {
    purge();
    return heap_.top().key;
  }

  struct Fired {
    EventKey key;
    Action action;
  };
  Fired pop() {
    purge();
    const Entry top = heap_.top();
    heap_.pop_top();
    --live_;
    return Fired{top.key, slab_.release(top.slot)};
  }

  // Introspection for tests: pooled slots and heap entries (live + stale).
  [[nodiscard]] std::size_t pool_capacity() const noexcept {
    return slab_.capacity();
  }
  [[nodiscard]] std::size_t heap_entries() const noexcept {
    return heap_.size();
  }

 private:
  struct Entry {
    EventKey key;
    std::uint32_t slot;
    std::uint32_t gen;
  };
  struct EarlierEntry {
    [[nodiscard]] bool operator()(const Entry& a, const Entry& b) const noexcept {
      return a.key < b.key;
    }
  };

  void purge() {
    while (!heap_.empty() &&
           !slab_.live(heap_.top().slot, heap_.top().gen)) {
      heap_.pop_top();
      --stale_;
    }
  }

  void compact() {
    heap_.remove_if(
        [this](const Entry& e) { return !slab_.live(e.slot, e.gen); });
    stale_ = 0;
  }

  detail::EventSlab slab_;
  detail::QuadHeap<Entry, EarlierEntry> heap_;
  std::size_t live_ = 0;
  std::size_t stale_ = 0;
};

class ShardedKernel {
 public:
  using Action = EventFn;

  /// `lookahead` must be a lower bound on the delay of every cross-shard
  /// event (the network's minimum one-way latency); it must be positive.
  /// `n_threads` <= 0 selects one thread per shard.
  /// This constructor uses the striped `cell % n_shards` partition.
  ShardedKernel(int n_cells, int n_shards, Duration lookahead, int n_threads);

  /// Same, with an explicit cell -> shard map. `partition` must have one
  /// entry per cell, every value in [0, n_shards). Determinism does not
  /// depend on the partition (the canonical EventKey order does not mention
  /// shards), so any map yields bit-identical results; the map only
  /// changes which events cross shard boundaries.
  ShardedKernel(std::vector<int> partition, int n_shards, Duration lookahead,
                int n_threads);

  ShardedKernel(const ShardedKernel&) = delete;
  ShardedKernel& operator=(const ShardedKernel&) = delete;

  [[nodiscard]] int n_cells() const noexcept {
    return static_cast<int>(partition_.size());
  }
  [[nodiscard]] int n_shards() const noexcept { return n_shards_; }
  [[nodiscard]] int n_threads() const noexcept { return n_threads_; }
  [[nodiscard]] int shard_of(std::int32_t cellId) const noexcept {
    return partition_[static_cast<std::size_t>(cellId)];
  }

  /// Virtual time of one shard (the `when` of its last executed event,
  /// or the run_until deadline if that is later).
  [[nodiscard]] SimTime now(int shard) const {
    return shards_[static_cast<std::size_t>(shard)].now;
  }
  /// Latest shard clock — the instant of the last event executed anywhere.
  [[nodiscard]] SimTime max_now() const;

  /// Schedules an event into the queue of key.owner's shard. Callable
  /// during setup (single-threaded, before run) or from inside an
  /// executing event. Cross-shard scheduling while running requires
  /// key.when to land beyond the current window (the lookahead contract);
  /// violating it aborts. Returns a cancellation handle for same-shard
  /// events, kInvalidEventId for cross-shard ones (deliveries are never
  /// cancelled). The same-shard fast path stores the closure straight
  /// into the owning queue's slab; only the cross-shard mailbox path
  /// materializes an EventFn (the outbox must hold a concrete type).
  template <typename F>
  EventId schedule(const EventKey& key, F&& action) {
    const int dest = shard_of(key.owner);
    if (!running_ || tls_current_shard_ == dest) {
      return shards_[static_cast<std::size_t>(dest)].queue.schedule(
          key, std::forward<F>(action));
    }
    return schedule_remote(key, Action(std::forward<F>(action)), dest);
  }

  /// Schedules a cell-local event (any class but kClassDelivery, whose
  /// `sub`/`seq` name a link) keyed by the owner's own scheduling counter:
  /// same-(when, owner, class) events fire in the order they were
  /// scheduled. Every local event of a cell draws from the one counter,
  /// whoever schedules it, so callers sharing a cell share its tie order.
  template <typename F>
  EventId schedule_local(std::int32_t owner, std::uint8_t klass, SimTime when,
                         F&& action) {
    EventKey key;
    key.when = when;
    key.owner = owner;
    key.klass = klass;
    key.seq = ++local_seq_[static_cast<std::size_t>(owner)];
    return schedule(key, std::forward<F>(action));
  }

  /// Cancels a same-shard event by its owner cell and handle.
  void cancel(std::int32_t owner, EventId id);

  /// Installs a callback invoked at every window barrier with the
  /// completed window's cap F: every event with when < F has executed,
  /// everything still pending fires at >= F. Runs on exactly one worker
  /// while the others are parked at the barrier, so it may safely touch
  /// any simulation state (the streaming engine folds metrics here). Must
  /// not throw and should early-out cheaply — there is one barrier per
  /// lookahead interval, i.e. easily 10^5 calls per long run.
  void set_window_hook(std::function<void(SimTime)> hook) {
    window_hook_ = std::move(hook);
  }

  /// Pin worker threads to distinct allowed CPUs for the next run_until
  /// (worker i -> i-th CPU of the process affinity mask, round-robin).
  /// Results are identical either way; this only stabilizes wall-clock.
  /// No-op on platforms without affinity syscalls.
  void set_pin_threads(bool pin) noexcept { pin_threads_ = pin; }
  [[nodiscard]] bool pin_threads() const noexcept { return pin_threads_; }

  /// Executes every event with when <= deadline (windowed, in parallel),
  /// then advances all shard clocks to the deadline.
  void run_until(SimTime deadline);

  /// Drains every queue completely.
  void run_to_quiescence() { run_until(kTimeNever); }

  /// Total events executed across all shards.
  [[nodiscard]] std::uint64_t executed() const;

  /// Total live pending events across all shards.
  [[nodiscard]] std::size_t pending() const;

 private:
  struct OutboxEntry {
    EventKey key;
    Action action;
  };
  // Cache-line separation: each shard's queue/clock is written by whichever
  // worker claimed it, one claim per window.
  struct alignas(64) Shard {
    ShardQueue queue;
    SimTime now = kTimeZero;
    std::uint64_t executed = 0;
  };

  EventId schedule_remote(const EventKey& key, Action action, int dest);
  void drain_and_execute(int s);
  void window_barrier_completion();
  [[nodiscard]] bool running() const noexcept { return running_; }

  // Which shard the calling thread is currently executing events for; -1
  // outside the worker execution phase (setup, teardown). Lets schedule()
  // distinguish "same-shard insert" from "cross-shard mailbox" without
  // passing the context through every callback.
  static thread_local int tls_current_shard_;

  int n_shards_;
  int n_threads_;
  Duration lookahead_;
  std::vector<int> partition_;  // cell -> shard
  // Per-cell local-event counters; a cell's entry is only touched by
  // events of its own shard (or during single-threaded set-up).
  std::vector<std::uint64_t> local_seq_;
  std::vector<Shard> shards_;
  // outbox_[parity][src * n_shards + dst]; writers fill parity_, readers
  // drain 1 - parity_. The barrier completion flips parity.
  std::vector<std::vector<OutboxEntry>> outbox_[2];
  int parity_ = 0;

  std::function<void(SimTime)> window_hook_;
  bool pin_threads_ = false;

  bool running_ = false;     // inside run_until's worker phase
  SimTime deadline_ = kTimeNever;
  SimTime window_cap_ = kTimeZero;  // events with key.when < cap execute
  bool stop_ = false;
  std::atomic<int> claim_{0};
};

}  // namespace dca::sim
