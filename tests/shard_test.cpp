// Unit tests of the sharded deterministically-parallel kernel: canonical
// key ordering, per-shard queues, the conservative window, and thread
// invariance of a cross-shard workload.
#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "sim/shard.hpp"
#include "sim/types.hpp"

namespace dca::sim {
namespace {

TEST(EventKey, OrdersByFieldsInDeclarationOrder) {
  const EventKey base{100, 5, kClassTimer, 2, 7};
  EXPECT_EQ(base, base);

  EventKey later = base;
  later.when = 101;
  EXPECT_LT(base, later);

  EventKey higher_owner = base;
  higher_owner.owner = 6;
  EXPECT_LT(base, higher_owner);

  EventKey higher_class = base;
  higher_class.klass = kClassDelivery;
  EXPECT_LT(base, higher_class);

  EventKey higher_sub = base;
  higher_sub.sub = 3;
  EXPECT_LT(base, higher_sub);

  EventKey higher_seq = base;
  higher_seq.seq = 8;
  EXPECT_LT(base, higher_seq);

  // when dominates everything below it.
  EventKey early_but_big{99, 100, kClassDelivery, 100, 100};
  EXPECT_LT(early_but_big, base);
}

TEST(EventKey, ClassConstantsEncodeTheLegacyTieBreak) {
  // Control < arrival < progress < timer < delivery — the order in which
  // same-instant events of each kind are created (see the header
  // comment).
  EXPECT_LT(kClassControl, kClassArrival);
  EXPECT_LT(kClassArrival, kClassProgress);
  EXPECT_LT(kClassProgress, kClassTimer);
  EXPECT_LT(kClassTimer, kClassDelivery);
}

TEST(ShardQueue, PopsInCanonicalOrderRegardlessOfInsertion) {
  ShardQueue q;
  std::vector<int> fired;
  // Insert out of order; keys demand 1, 2, 3.
  (void)q.schedule(EventKey{20, 0, kClassTimer, 0, 1}, [&] { fired.push_back(2); });
  (void)q.schedule(EventKey{30, 0, kClassTimer, 0, 2}, [&] { fired.push_back(3); });
  (void)q.schedule(EventKey{10, 0, kClassTimer, 0, 3}, [&] { fired.push_back(1); });
  while (!q.empty()) {
    auto f = q.pop();
    f.action();
  }
  EXPECT_EQ(fired, (std::vector<int>{1, 2, 3}));
}

TEST(ShardQueue, CancelPreventsExecutionAndLateCancelIsNoop) {
  ShardQueue q;
  int fired = 0;
  const EventId a = q.schedule(EventKey{10, 0, kClassTimer, 0, 1}, [&] { ++fired; });
  const EventId b = q.schedule(EventKey{20, 0, kClassTimer, 0, 2}, [&] { fired += 10; });
  q.cancel(a);
  EXPECT_EQ(q.size(), 1u);
  auto f = q.pop();
  EXPECT_EQ(f.key.when, 20);
  f.action();
  EXPECT_EQ(fired, 10);
  q.cancel(b);  // already popped: must be a no-op
  q.cancel(kInvalidEventId);
  EXPECT_TRUE(q.empty());
}

TEST(ShardQueue, CancelledHeadIsSkippedByNextKey) {
  ShardQueue q;
  const EventId id = q.schedule(EventKey{5, 0, kClassTimer, 0, 1}, [] {});
  (void)q.schedule(EventKey{9, 0, kClassTimer, 0, 2}, [] {});
  q.cancel(id);
  EXPECT_EQ(q.next_key().when, 9);
}

TEST(ShardQueue, CancelAfterFireDoesNotCorruptLiveCount) {
  // Cancelling a handle that already fired must not touch the live count:
  // empty() would otherwise report true while a real event is pending.
  ShardQueue q;
  const EventId fired = q.schedule(EventKey{1, 0, kClassTimer, 0, 1}, [] {});
  q.pop().action();  // `fired` is gone
  bool ran = false;
  (void)q.schedule(EventKey{2, 0, kClassTimer, 0, 2}, [&] { ran = true; });
  q.cancel(fired);  // stale handle: must be a true no-op
  EXPECT_FALSE(q.empty());
  EXPECT_EQ(q.size(), 1u);
  q.pop().action();
  EXPECT_TRUE(ran);
  EXPECT_TRUE(q.empty());
}

TEST(ShardQueue, CancelTwiceAndCancelInvalidAreNoops) {
  ShardQueue q;
  const EventId id = q.schedule(EventKey{5, 0, kClassTimer, 0, 1}, [] {});
  q.cancel(id);
  q.cancel(id);
  q.cancel(kInvalidEventId);
  EXPECT_TRUE(q.empty());
}

TEST(ShardedKernel, SingleShardRunsInKeyOrderAndAdvancesToDeadline) {
  ShardedKernel k(/*n_cells=*/4, /*n_shards=*/1, /*lookahead=*/milliseconds(1),
                  /*n_threads=*/1);
  std::vector<std::pair<SimTime, int>> fired;
  for (int c = 3; c >= 0; --c) {
    (void)k.schedule(EventKey{seconds(1), c, kClassTimer, 0, 1},
                     [&fired, c, &k] { fired.emplace_back(k.now(0), c); });
  }
  k.run_until(seconds(2));
  ASSERT_EQ(fired.size(), 4u);
  for (int c = 0; c < 4; ++c) {
    EXPECT_EQ(fired[static_cast<std::size_t>(c)],
              (std::pair<SimTime, int>{seconds(1), c}));
  }
  EXPECT_EQ(k.now(0), seconds(2));  // clock advances to the deadline
  EXPECT_EQ(k.executed(), 4u);
  EXPECT_EQ(k.pending(), 0u);
}

TEST(ShardedKernel, EventsExactlyAtDeadlineFire) {
  ShardedKernel k(1, 1, milliseconds(1), 1);
  bool at = false, past = false;
  (void)k.schedule(EventKey{seconds(5), 0, kClassTimer, 0, 1}, [&] { at = true; });
  (void)k.schedule(EventKey{seconds(5) + 1, 0, kClassTimer, 0, 2},
                   [&] { past = true; });
  k.run_until(seconds(5));
  EXPECT_TRUE(at);
  EXPECT_FALSE(past);
  k.run_to_quiescence();
  EXPECT_TRUE(past);
}

TEST(ShardedKernel, SameShardCancelWorks) {
  ShardedKernel k(2, 2, milliseconds(1), 1);
  bool fired = false;
  const EventId id = k.schedule(EventKey{seconds(1), 0, kClassTimer, 0, 1},
                                [&] { fired = true; });
  ASSERT_NE(id, kInvalidEventId);
  k.cancel(0, id);
  k.run_to_quiescence();
  EXPECT_FALSE(fired);
  EXPECT_EQ(k.executed(), 0u);
}

// A deterministic cross-shard ping-pong: cells 0 and 1 live on different
// shards and mail each other one lookahead ahead. The per-shard execution
// logs must not depend on the worker thread count.
std::vector<std::vector<SimTime>> ping_pong(int n_threads) {
  const Duration L = milliseconds(2);
  ShardedKernel k(/*n_cells=*/2, /*n_shards=*/2, L, n_threads);
  std::vector<std::vector<SimTime>> log(2);

  // hops bounce 0 -> 1 -> 0 -> ... until the horizon.
  struct Bouncer {
    ShardedKernel* k;
    Duration L;
    std::vector<std::vector<SimTime>>* log;
    std::uint64_t seq = 0;

    void hop(std::int32_t owner, SimTime when) {
      (*log)[static_cast<std::size_t>(owner)].push_back(when);
      if (when >= seconds(1)) return;
      const std::int32_t next = 1 - owner;
      EventKey key{when + L, next, kClassDelivery, owner, ++seq};
      k->schedule(key, [this, next, at = when + L] { hop(next, at); });
    }
  };
  Bouncer b{&k, L, &log};
  (void)k.schedule(EventKey{L, 0, kClassDelivery, 1, 1},
                   [&b, L] { b.hop(0, L); });
  k.run_to_quiescence();
  return log;
}

TEST(ShardedKernel, CrossShardWorkloadIsThreadCountInvariant) {
  const auto one = ping_pong(1);
  const auto two = ping_pong(2);
  ASSERT_FALSE(one[0].empty());
  ASSERT_FALSE(one[1].empty());
  EXPECT_EQ(one, two);
}

TEST(ShardedKernel, RepeatedRunUntilDrainsLeftoverCrossShardMail) {
  // Mail scheduled near the end of one run_until must survive into the
  // next call (it sits in the double-buffered outbox between runs).
  const Duration L = milliseconds(1);
  ShardedKernel k(2, 2, L, 1);
  int delivered = 0;
  (void)k.schedule(EventKey{seconds(1), 0, kClassTimer, 0, 1}, [&] {
    k.schedule(EventKey{seconds(1) + L, 1, kClassDelivery, 0, 1},
               [&] { ++delivered; });
  });
  k.run_until(seconds(1));  // sender fires; delivery is beyond the deadline
  EXPECT_EQ(delivered, 0);
  k.run_to_quiescence();
  EXPECT_EQ(delivered, 1);
  EXPECT_EQ(k.executed(), 2u);
}

}  // namespace
}  // namespace dca::sim
