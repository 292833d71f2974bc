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

#include <algorithm>
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

/// One shard's pending-event set, ordered by canonical key: a calendar
/// queue on the slab/generation storage of event_store.hpp. Every entry
/// lives in exactly one of three regions, by the 64 µs time bucket of its
/// `when` relative to the queue's origin bucket:
///
///   * run  — the origin bucket itself, sorted by key once when the ring
///     hands it over and drained from the back; an event scheduled into
///     it while it drains is inserted at its sorted position;
///   * ring — buckets strictly inside (origin, origin + 256), unsorted;
///   * far heap — everything else: beyond the ring's span, behind the
///     origin, or beyond the span when it was scheduled.
///
/// Every ring entry is in a later bucket than every run entry, so the
/// earliest event is the smaller of the run's back and the heap's top.
/// The ring is opened (origin moved to its first occupied bucket) only
/// when the run is empty and the heap's top is not in an earlier bucket;
/// when the heap's top is earlier, the origin moves up to its bucket, so
/// what that event schedules a latency ahead lands in the ring again.
/// Storage never influences order: pops follow the canonical key exactly.
class ShardQueue {
 public:
  using Action = EventFn;

  /// Schedules a callable under a canonical key; raw closures land
  /// directly in the slab slot (no intermediate EventFn).
  template <typename F>
  EventId schedule(const EventKey& key, F&& action) {
    const std::uint32_t slot = slab_.acquire(std::forward<F>(action));
    const std::uint32_t gen = slab_.gen(slot);
    const Entry e{key, slot, gen};
    const std::int64_t bucket = bucket_of(key.when);
    const std::int64_t ahead = bucket - origin_;
    if (ahead == 0) {
      insert_run(e);
    } else if (ahead > 0 && ahead < Ring::kBuckets) {
      ring_.push(bucket, e);
    } else {
      far_.push(e);
    }
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
    if (stale_ > live_ + detail::kCompactSlack) compact();
  }

  [[nodiscard]] bool empty() const noexcept { return live_ == 0; }
  [[nodiscard]] std::size_t size() const noexcept { return live_; }

  /// Key of the earliest live event. Precondition: !empty().
  [[nodiscard]] const EventKey& next_key() {
    return settle() ? run_.back().key : far_.top().key;
  }

  struct Fired {
    EventKey key;
    Action action;
  };

  /// Pops the earliest live event into `out` when it fires before `cap`,
  /// settling the queue once; returns false, popping nothing, otherwise.
  bool pop_before(SimTime cap, Fired& out) {
    if (live_ == 0) return false;
    const bool from_run = settle();
    const Entry e = from_run ? run_.back() : far_.top();
    if (e.key.when >= cap) return false;
    if (from_run) {
      run_.pop_back();
    } else {
      far_.pop_top();
    }
    --live_;
    out.key = e.key;
    slab_.release_into(e.slot, out.action);
    return true;
  }

  /// Pops the earliest live event. Precondition: !empty().
  Fired pop() {
    Fired out;
    (void)pop_before(kTimeNever, out);
    return out;
  }

  // Introspection for tests: pooled callback slots, and entries (live +
  // stale) held by the run, the ring and the far heap together.
  [[nodiscard]] std::size_t pool_capacity() const noexcept {
    return slab_.capacity();
  }
  [[nodiscard]] std::size_t queued_entries() const noexcept {
    return run_.size() + ring_.size() + far_.size();
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
  using Ring = detail::BucketRing<Entry>;

  [[nodiscard]] static std::int64_t bucket_of(SimTime when) noexcept {
    return when >> Ring::kShift;
  }
  [[nodiscard]] bool live(const Entry& e) const noexcept {
    return slab_.live(e.slot, e.gen);
  }

  // run_ is sorted latest-first; keys are unique.
  void insert_run(const Entry& e) {
    const auto at = std::partition_point(
        run_.begin(), run_.end(),
        [&e](const Entry& x) { return e.key < x.key; });
    run_.insert(at, e);
  }

  // Brings the earliest live event to the run's back (returns true) or
  // the far heap's top (false), dropping stale entries that surface
  // first. Precondition: !empty().
  bool settle() {
    for (;;) {
      if (run_.empty()) open_next();
      const bool from_run =
          !run_.empty() && (far_.empty() || run_.back().key < far_.top().key);
      if (live(from_run ? run_.back() : far_.top())) return from_run;
      if (from_run) {
        run_.pop_back();
      } else {
        far_.pop_top();
      }
      --stale_;
    }
  }

  // With the run empty: opens the ring's first occupied bucket as the new
  // run, unless the far heap's top lies in an earlier bucket; then the
  // origin moves up to that bucket instead (never back: the ring's span
  // hangs off it).
  void open_next() {
    if (!ring_.empty()) {
      const std::int64_t next = ring_.first_after(origin_);
      if (far_.empty() || bucket_of(far_.top().key.when) >= next) {
        origin_ = next;
        ring_.take(next, run_);
        std::sort(run_.begin(), run_.end(),
                  [](const Entry& a, const Entry& b) { return b.key < a.key; });
        return;
      }
    }
    origin_ = std::max(origin_, bucket_of(far_.top().key.when));
  }

  void compact() {
    const auto dead = [this](const Entry& e) { return !live(e); };
    std::erase_if(run_, dead);
    ring_.remove_if(dead);
    far_.remove_if(dead);
    stale_ = 0;
  }

  detail::EventSlab slab_;
  std::vector<Entry> run_;
  Ring ring_;
  detail::QuadHeap<Entry, EarlierEntry> far_;
  std::int64_t origin_ = 0;  // bucket of the run
  std::size_t live_ = 0;
  std::size_t stale_ = 0;
};

class ShardedKernel {
 public:
  using Action = EventFn;

  /// `partition` is the cell -> shard map: one entry per cell, every value
  /// in [0, n_shards). Determinism does not depend on the partition (the
  /// canonical EventKey order does not mention shards), so any map yields
  /// bit-identical results; the map only changes which events cross shard
  /// boundaries. `lookahead` must be a lower bound on the delay of every
  /// cross-shard event (the network's minimum one-way latency); it must be
  /// positive. `n_threads` <= 0 selects one thread per shard.
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
