// Property tests for the slab/generation event store behind ShardQueue:
// a randomized interleaving of schedule/cancel/pop is checked against a
// naive reference model (a vector ordered by stable (when, seq) sort),
// and a cancellation-stress run asserts the pool and heap stay O(live)
// under sustained cancel traffic (the lazy-deletion compaction bound).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
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
  [[nodiscard]] std::size_t heap_entries() const { return q_.heap_entries(); }

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

TEST(EventStoreProperty, RandomInterleavingMatchesReferenceModel) {
  std::mt19937_64 rng(0xDCA5EEDull);
  std::uniform_int_distribution<SimTime> when_dist(0, 500);
  std::uniform_int_distribution<int> op_dist(0, 9);

  TimedQueue q;
  Model model;
  std::vector<int> fired_q;
  std::vector<int> fired_model;
  // Live handles, paired with the model index they correspond to.
  std::vector<std::pair<EventId, std::size_t>> handles;
  int next_token = 0;

  for (int step = 0; step < 20000; ++step) {
    const int op = op_dist(rng);
    if (op < 5) {  // schedule
      const SimTime when = when_dist(rng);
      const int token = next_token++;
      const EventId id =
          q.schedule(when, [token, &fired_q] { fired_q.push_back(token); });
      handles.emplace_back(id, model.schedule(when, token));
    } else if (op < 7 && !handles.empty()) {  // cancel a random live event
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
      fired.action();
      fired_model.push_back(model.pop());
    }
    ASSERT_EQ(q.size(), model.live_count());
    ASSERT_EQ(q.empty(), model.empty());
  }

  // Drain: every remaining live event fires in model order.
  while (!q.empty()) {
    ASSERT_EQ(q.next_time(), model.next_time());
    q.pop().action();
    fired_model.push_back(model.pop());
  }
  EXPECT_TRUE(model.empty());
  EXPECT_EQ(fired_q, fired_model);
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
  std::uniform_int_distribution<SimTime> when_dist(0, 1'000'000);

  constexpr std::size_t kWaves = 2000;
  constexpr std::size_t kPerWave = 64;
  std::size_t max_pool = 0;
  std::size_t max_heap = 0;

  std::vector<EventId> ids;
  for (std::size_t wave = 0; wave < kWaves; ++wave) {
    ids.clear();
    for (std::size_t i = 0; i < kPerWave; ++i) {
      ids.push_back(q.schedule(when_dist(rng), [] {}));
    }
    // Cancel every event of the wave: 128k schedules, 128k cancels total.
    for (const EventId id : ids) q.cancel(id);
    max_pool = std::max(max_pool, q.pool_capacity());
    max_heap = std::max(max_heap, q.heap_entries());
  }
  EXPECT_TRUE(q.empty());

  // The pool recycles slots through its free list: capacity is bounded by
  // the peak live count rounded up to a slab chunk, not by the 128k events
  // that ever existed.
  EXPECT_LE(max_pool, 512u);
  // Lazy deletion keeps stale heap entries bounded by live + slack, so the
  // heap never accumulates the full cancel history either.
  EXPECT_LE(max_heap, 2 * kPerWave + detail::kHeapCompactSlack + 1);

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
