// Property tests for the slab/generation event store behind ShardQueue:
// a randomized interleaving of schedule/cancel/pop, with keys aimed at
// every region of the calendar queue (the draining bucket, behind it, the
// ring, its last bucket and one past it, the far future), is checked
// against a naive reference model (a vector ordered by stable (when, seq)
// sort), and a cancellation-stress run asserts the pool and the queued
// entries stay O(live) under sustained cancel traffic (the lazy-deletion
// compaction bound).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <random>
#include <utility>
#include <vector>

#include "sim/shard.hpp"
#include "sim/types.hpp"

namespace dca::sim {
namespace {

/// A ShardQueue holding one cell's local events: keyed (when, scheduling
/// order), the order the kernel's schedule_local gives them.
class TimedQueue {
 public:
  template <typename F>
  EventId schedule(SimTime when, F&& fn) {
    return q_.schedule(EventKey{when, 0, kClassTimer, 0, ++seq_},
                       std::forward<F>(fn));
  }
  void cancel(EventId id) { q_.cancel(id); }
  [[nodiscard]] bool empty() const { return q_.empty(); }
  [[nodiscard]] std::size_t size() const { return q_.size(); }
  [[nodiscard]] SimTime next_time() {
    return q_.empty() ? kTimeNever : q_.next_key().when;
  }
  ShardQueue::Fired pop() { return q_.pop(); }
  [[nodiscard]] std::size_t pool_capacity() const { return q_.pool_capacity(); }
  [[nodiscard]] std::size_t queued_entries() const {
    return q_.queued_entries();
  }

 private:
  ShardQueue q_;
  std::uint64_t seq_ = 0;
};

// Reference model: every schedule appends one record; pops pick the
// earliest live record by the same strict total order the queue promises,
// i.e. a stable sort by `when` (seq is append order, so min_element with
// strict < on (when, seq) is exactly "stable sort, take first").
struct ModelEvent {
  SimTime when = 0;
  std::uint64_t seq = 0;
  int token = 0;
  bool live = false;
};

class Model {
 public:
  std::size_t schedule(SimTime when, int token) {
    events_.push_back({when, next_seq_++, token, true});
    return events_.size() - 1;
  }

  void cancel(std::size_t idx) { events_[idx].live = false; }

  [[nodiscard]] bool empty() const {
    return std::none_of(events_.begin(), events_.end(),
                        [](const ModelEvent& e) { return e.live; });
  }

  [[nodiscard]] std::size_t live_count() const {
    return static_cast<std::size_t>(
        std::count_if(events_.begin(), events_.end(),
                      [](const ModelEvent& e) { return e.live; }));
  }

  [[nodiscard]] SimTime next_time() const {
    const ModelEvent* best = earliest();
    return best ? best->when : kTimeNever;
  }

  // Pops the earliest live event and returns its token.
  int pop() {
    ModelEvent* best = earliest();
    best->live = false;
    return best->token;
  }

 private:
  [[nodiscard]] ModelEvent* earliest() {
    ModelEvent* best = nullptr;
    for (ModelEvent& e : events_) {
      if (!e.live) continue;
      if (!best || e.when < best->when ||
          (e.when == best->when && e.seq < best->seq)) {
        best = &e;
      }
    }
    return best;
  }
  [[nodiscard]] const ModelEvent* earliest() const {
    return const_cast<Model*>(this)->earliest();
  }

  std::vector<ModelEvent> events_;
  std::uint64_t next_seq_ = 0;
};

// Bucket width and ring span of the calendar queue, in µs.
constexpr SimTime kBucket = SimTime{1} << detail::BucketRing<int>::kShift;
constexpr SimTime kSpan = kBucket * detail::BucketRing<int>::kBuckets;

TEST(EventStoreProperty, RandomInterleavingMatchesReferenceModel) {
  std::mt19937_64 rng(0xDCA5EEDull);
  std::uniform_int_distribution<int> op_dist(0, 19);
  std::uniform_int_distribution<int> region_dist(0, 6);
  std::uniform_int_distribution<SimTime> in_bucket(0, kBucket - 1);

  TimedQueue q;
  Model model;
  std::vector<int> fired_q;
  std::vector<int> fired_model;
  // Live handles, paired with the model index they correspond to.
  std::vector<std::pair<EventId, std::size_t>> handles;
  std::vector<SimTime> used_times{0};
  int next_token = 0;
  // Latest `when` popped so far. Events behind it fire next and leave it
  // (and the queue's origin, which follows it) where it is.
  SimTime now = 0;

  // A time in one of the queue's regions, relative to the bucket of `now`.
  const auto draw_when = [&]() -> SimTime {
    const SimTime base = now - (now & (kBucket - 1));
    switch (region_dist(rng)) {
      case 0:  // the draining bucket, at or after now
        return now + in_bucket(rng) % (base + kBucket - now);
      case 1:  // behind the current bucket
        return base - 1 - in_bucket(rng) * 20;
      case 2:  // inside the ring
        return base + std::uniform_int_distribution<SimTime>(kBucket, kSpan - 1)(rng);
      case 3:  // the ring's last bucket
        return base + kSpan - kBucket + in_bucket(rng);
      case 4:  // one bucket past the ring
        return base + kSpan + in_bucket(rng);
      case 5:  // the far future
        return base + std::uniform_int_distribution<SimTime>(kSpan, 50 * kSpan)(rng);
      default:  // an exact tie with an earlier schedule
        return used_times[std::uniform_int_distribution<std::size_t>(
            0, used_times.size() - 1)(rng)];
    }
  };

  // Schedules `when` on both sides. A third of the events schedule a
  // zero-delay child from inside their own callback when they fire.
  std::function<void(SimTime)> add = [&](SimTime when) {
    const int token = next_token++;
    const bool spawns = token % 3 == 0;
    used_times.push_back(when);
    const EventId id = q.schedule(when, [token, when, spawns, &fired_q, &add] {
      fired_q.push_back(token);
      if (spawns) add(when);
    });
    handles.emplace_back(id, model.schedule(when, token));
  };

  for (int step = 0; step < 20000; ++step) {
    const int op = op_dist(rng);
    if (op < 8) {  // schedule
      add(draw_when());
    } else if (op < 11 && !handles.empty()) {  // cancel a random event
      std::uniform_int_distribution<std::size_t> pick(0, handles.size() - 1);
      const std::size_t i = pick(rng);
      const EventId cancelled = handles[i].first;
      q.cancel(cancelled);
      model.cancel(handles[i].second);
      handles.erase(handles.begin() + static_cast<std::ptrdiff_t>(i));
      // Double-cancel must be a harmless no-op.
      if (step % 3 == 0) q.cancel(cancelled);
    } else if (!q.empty()) {  // pop
      ASSERT_EQ(q.next_time(), model.next_time());
      auto fired = q.pop();
      now = std::max(now, fired.key.when);
      fired_model.push_back(model.pop());
      fired.action();
    }
    ASSERT_EQ(q.size(), model.live_count());
    ASSERT_EQ(q.empty(), model.empty());
  }

  // Drain: every remaining live event fires in model order.
  while (!q.empty()) {
    ASSERT_EQ(q.next_time(), model.next_time());
    auto fired = q.pop();
    fired_model.push_back(model.pop());
    fired.action();
  }
  EXPECT_TRUE(model.empty());
  EXPECT_EQ(fired_q, fired_model);
}

TEST(EventStoreProperty, OnePastTheRingWaitsBehindNearerEvents) {
  // The bucket one span past the current one shares its ring slot; it
  // must wait in the far heap, not be taken for the current bucket.
  TimedQueue q;
  std::vector<SimTime> fired;
  const auto note = [&](SimTime t) { return [t, &fired] { fired.push_back(t); }; };
  q.schedule(0, note(0));
  q.pop().action();
  q.schedule(kSpan + 10, note(kSpan + 10));
  EXPECT_EQ(q.next_time(), kSpan + 10);
  q.schedule(100, note(100));
  q.schedule(kSpan - 1, note(kSpan - 1));
  while (!q.empty()) q.pop().action();
  EXPECT_EQ(fired, (std::vector<SimTime>{0, 100, kSpan - 1, kSpan + 10}));
}

TEST(EventStoreProperty, HandlesFromFiredEventsAreInert) {
  TimedQueue q;
  int fired = 0;
  const EventId a = q.schedule(10, [&] { ++fired; });
  const EventId b = q.schedule(20, [&] { ++fired; });
  q.pop().action();  // fires a
  q.cancel(a);       // stale handle: must not disturb b
  EXPECT_EQ(q.size(), 1u);
  EXPECT_EQ(q.next_time(), 20);
  q.cancel(b);
  q.cancel(b);  // double cancel
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(fired, 1);
}

TEST(EventStoreStress, PoolAndHeapStayBoundedUnderCancelChurn) {
  TimedQueue q;
  std::mt19937_64 rng(99);
  // Waves land in the draining bucket, the ring and the far heap alike.
  std::uniform_int_distribution<int> region_dist(0, 2);
  std::uniform_int_distribution<SimTime> run_dist(0, kBucket - 1);
  std::uniform_int_distribution<SimTime> ring_dist(kBucket, kSpan - 1);
  std::uniform_int_distribution<SimTime> far_dist(kSpan, 1'000'000);
  const auto draw_when = [&]() -> SimTime {
    switch (region_dist(rng)) {
      case 0:
        return run_dist(rng);
      case 1:
        return ring_dist(rng);
      default:
        return far_dist(rng);
    }
  };

  constexpr std::size_t kWaves = 2000;
  constexpr std::size_t kPerWave = 64;
  std::size_t max_pool = 0;
  std::size_t max_queued = 0;

  std::vector<EventId> ids;
  for (std::size_t wave = 0; wave < kWaves; ++wave) {
    ids.clear();
    for (std::size_t i = 0; i < kPerWave; ++i) {
      ids.push_back(q.schedule(draw_when(), [] {}));
    }
    // Cancel every event of the wave: 128k schedules, 128k cancels total.
    for (const EventId id : ids) q.cancel(id);
    max_pool = std::max(max_pool, q.pool_capacity());
    max_queued = std::max(max_queued, q.queued_entries());
  }
  EXPECT_TRUE(q.empty());

  // The pool recycles slots through its free list: capacity is bounded by
  // the peak live count rounded up to a slab chunk, not by the 128k events
  // that ever existed.
  EXPECT_LE(max_pool, 512u);
  // Lazy deletion keeps stale entries in the run, the ring and the far
  // heap together bounded by live + slack, so the queue never accumulates
  // the full cancel history either.
  EXPECT_LE(max_queued, 2 * kPerWave + detail::kCompactSlack + 1);

  // After churn the queue still works: order and callbacks intact.
  std::vector<int> order;
  q.schedule(30, [&] { order.push_back(3); });
  q.schedule(10, [&] { order.push_back(1); });
  q.schedule(20, [&] { order.push_back(2); });
  while (!q.empty()) q.pop().action();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

}  // namespace
}  // namespace dca::sim
