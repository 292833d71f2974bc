// Unit tests for the discrete-event kernel: event ordering, cancellation,
// clock semantics, RNG stream independence, and the trace log.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <limits>
#include <numeric>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "sim/fifo.hpp"
#include "sim/log.hpp"
#include "sim/random.hpp"
#include "sim/shard.hpp"
#include "sim/types.hpp"

namespace dca::sim {
namespace {

TEST(Types, DurationConstructors) {
  EXPECT_EQ(microseconds(7), 7);
  EXPECT_EQ(milliseconds(3), 3000);
  EXPECT_EQ(seconds(2), 2'000'000);
  EXPECT_EQ(minutes(1), 60'000'000);
}

TEST(Types, FromSecondsTruncatesAndClamps) {
  EXPECT_EQ(from_seconds(1.5), 1'500'000);
  EXPECT_EQ(from_seconds(0.0), 0);
  EXPECT_EQ(from_seconds(-3.0), 0);
  EXPECT_DOUBLE_EQ(to_seconds(2'500'000), 2.5);
  EXPECT_DOUBLE_EQ(to_milliseconds(2'500), 2.5);
}

// -- the event kernel's clock semantics, on one shard -----------------------

/// One cell on one shard: the kernel as a plain sequential simulator.
ShardedKernel one_cell() { return ShardedKernel({0}, 1, milliseconds(1), 1); }

EventId at(ShardedKernel& k, SimTime when, EventFn fn) {
  return k.schedule_local(0, kClassTimer, when, std::move(fn));
}

TEST(Simulator, NowAdvancesToEventTime) {
  ShardedKernel k = one_cell();
  SimTime seen = -1;
  (void)at(k, 100, [&] { seen = k.now(0); });
  k.run_to_quiescence();
  EXPECT_EQ(seen, 100);
  EXPECT_EQ(k.now(0), 100);
}

TEST(Simulator, RunUntilStopsAtDeadlineAndAdvancesClock) {
  ShardedKernel k = one_cell();
  int fired = 0;
  for (SimTime t = 10; t <= 100; t += 10) (void)at(k, t, [&] { ++fired; });
  k.run_until(55);
  EXPECT_EQ(fired, 5);
  EXPECT_EQ(k.now(0), 55);  // clock moves to the deadline even with no event there
  k.run_to_quiescence();
  EXPECT_EQ(fired, 10);
}

TEST(Simulator, EventsAtDeadlineDoFire) {
  ShardedKernel k = one_cell();
  bool ran = false;
  (void)at(k, 70, [&] { ran = true; });
  k.run_until(70);
  EXPECT_TRUE(ran);
}

TEST(Simulator, EventsScheduleMoreEvents) {
  ShardedKernel k = one_cell();
  std::vector<SimTime> ticks;
  std::function<void()> chain = [&] {
    ticks.push_back(k.now(0));
    if (ticks.size() < 4) (void)at(k, k.now(0) + 10, [&] { chain(); });
  };
  (void)at(k, 10, [&] { chain(); });
  k.run_to_quiescence();
  EXPECT_EQ(ticks, (std::vector<SimTime>{10, 20, 30, 40}));
}

TEST(Simulator, ExecutedCountsEvents) {
  ShardedKernel k = one_cell();
  for (int i = 0; i < 7; ++i) (void)at(k, i, [] {});
  k.run_to_quiescence();
  EXPECT_EQ(k.executed(), 7u);
}

TEST(Simulator, SameInstantEventsFireInSchedulingOrder) {
  // schedule_local keys same-(when, owner, class) events by the owner's
  // own counter, whoever schedules them — including an event scheduled
  // mid-instant for the same instant, which runs after those queued.
  ShardedKernel k({0, 0}, 1, milliseconds(1), 1);
  std::vector<int> fired;
  (void)k.schedule_local(1, kClassTimer, 100, [&] { fired.push_back(1); });
  (void)k.schedule_local(1, kClassTimer, 100, [&] {
    fired.push_back(2);
    (void)k.schedule_local(1, kClassTimer, 100, [&] { fired.push_back(4); });
  });
  (void)k.schedule_local(1, kClassTimer, 100, [&] { fired.push_back(3); });
  // Another owner's counter is independent, and owner 0 orders first.
  (void)k.schedule_local(0, kClassTimer, 100, [&] { fired.push_back(0); });
  k.run_until(100);
  EXPECT_EQ(fired, (std::vector<int>{0, 1, 2, 3, 4}));
  EXPECT_EQ(k.now(0), 100);
}

TEST(Simulator, CancelOfAlreadyPoppedEventIsHarmless) {
  ShardedKernel k = one_cell();
  int fired = 0;
  const EventId a = at(k, 10, [&] { ++fired; });
  const EventId b = at(k, 20, [&] { ++fired; });
  k.run_until(15);
  EXPECT_EQ(fired, 1);
  k.cancel(0, a);  // already fired: must not corrupt the pending set
  EXPECT_EQ(k.pending(), 1u);
  k.cancel(0, a);  // and twice
  k.run_to_quiescence();
  EXPECT_EQ(fired, 2);
  k.cancel(0, b);  // after the whole queue drained
  EXPECT_EQ(k.pending(), 0u);
}

TEST(Rng, SameSeedSameSequence) {
  RngStream a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_DOUBLE_EQ(a.uniform(), b.uniform());
}

TEST(Rng, DerivedStreamsDiffer) {
  RngStream a = RngStream::derive(1, 0);
  RngStream b = RngStream::derive(1, 1);
  int equal = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.uniform_int(0, 1'000'000) == b.uniform_int(0, 1'000'000)) ++equal;
  }
  EXPECT_LT(equal, 3);
}

TEST(Rng, ExponentialMeanIsApproximatelyRight) {
  RngStream r(7);
  double sum = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += r.exponential_mean(5.0);
  EXPECT_NEAR(sum / n, 5.0, 0.2);
}

TEST(Rng, ExponentialGapIsPositive) {
  RngStream r(9);
  for (int i = 0; i < 1000; ++i) EXPECT_GE(r.exponential_gap(1e9), 1);
}

TEST(Rng, UniformIntCoversRangeInclusive) {
  RngStream r(11);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    const auto v = r.uniform_int(3, 5);
    EXPECT_GE(v, 3);
    EXPECT_LE(v, 5);
    saw_lo |= (v == 3);
    saw_hi |= (v == 5);
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, PickIndexInRange) {
  RngStream r(13);
  for (int i = 0; i < 500; ++i) EXPECT_LT(r.pick_index(7), 7u);
}

TEST(Rng, BernoulliExtremes) {
  RngStream r(17);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(r.bernoulli(0.0));
    EXPECT_TRUE(r.bernoulli(1.0));
  }
}

// -- RngStream against a plain std::mt19937_64 --------------------------------

enum class Method {
  kUniform,
  kUniformRange,
  kUniformInt,
  kUniformIntRejecting,
  kBernoulli,
  kExponentialMean,
  kExponentialGap,
  kPickIndex,
  kShuffle,
  kCount
};

/// Makes `n` draws with `method` from `s`, and from `ref` through the std
/// distribution the method names; true when every pair is identical.
bool same_draws(Method method, RngStream& s, std::mt19937_64& ref, std::size_t n) {
  // hi - lo = 2^63: Lemire's method rejects about every other word.
  constexpr std::int64_t kHalf = std::int64_t{1} << 62;
  bool same = true;
  if (method == Method::kShuffle) {  // n + 1 elements: n draws
    std::vector<std::size_t> got(n + 1), want(n + 1);
    std::iota(got.begin(), got.end(), std::size_t{0});
    std::iota(want.begin(), want.end(), std::size_t{0});
    s.shuffle(got);
    for (std::size_t i = want.size(); i > 1; --i) {
      std::swap(want[i - 1], want[std::uniform_int_distribution<std::size_t>(0, i - 1)(ref)]);
    }
    return got == want;
  }
  for (std::size_t j = 0; j < n; ++j) {
    switch (method) {
      case Method::kUniform:
        same &= s.uniform() == std::uniform_real_distribution<double>(0.0, 1.0)(ref);
        break;
      case Method::kUniformRange:
        same &= s.uniform(-3.5, 7.25) ==
                std::uniform_real_distribution<double>(-3.5, 7.25)(ref);
        break;
      case Method::kUniformInt:
        same &= s.uniform_int(-5, 1000) ==
                std::uniform_int_distribution<std::int64_t>(-5, 1000)(ref);
        break;
      case Method::kUniformIntRejecting:
        same &= s.uniform_int(-kHalf, kHalf) ==
                std::uniform_int_distribution<std::int64_t>(-kHalf, kHalf)(ref);
        break;
      case Method::kBernoulli:
        same &= s.bernoulli(0.3) == std::bernoulli_distribution(0.3)(ref);
        break;
      case Method::kExponentialMean:
        same &= s.exponential_mean(2.5) ==
                std::exponential_distribution<double>(1.0 / 2.5)(ref);
        break;
      case Method::kExponentialGap: {
        const Duration d =
            from_seconds(std::exponential_distribution<double>(40.0)(ref));
        same &= s.exponential_gap(40.0) == (d > 0 ? d : 1);
        break;
      }
      case Method::kPickIndex:
        same &= s.pick_index(7) == std::uniform_int_distribution<std::size_t>(0, 6)(ref);
        break;
      case Method::kShuffle:
      case Method::kCount:
        break;
    }
  }
  return same;
}

/// The next `n` raw 64-bit words of `s` match those of `ref`.
bool same_words(RngStream s, std::mt19937_64 ref, std::size_t n) {
  constexpr std::int64_t kMin = std::numeric_limits<std::int64_t>::min();
  constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();
  bool same = true;
  for (std::size_t j = 0; j < n; ++j) {
    same &= s.uniform_int(kMin, kMax) ==
            std::uniform_int_distribution<std::int64_t>(kMin, kMax)(ref);
  }
  return same;
}

TEST(Rng, MatchesStdMt19937_64) {
  // Streams serve their first four words before building the engine; draw
  // counts 0..7 land on both sides of that boundary, and the tail after
  // each copy crosses it from wherever the copy was taken.
  constexpr std::size_t kStreams = 100'000;
  constexpr std::size_t kDrawCounts = 8;
  constexpr auto kMethods = static_cast<std::size_t>(Method::kCount);
  for (std::size_t i = 0; i < kStreams; ++i) {
    const std::uint64_t seed = mix64(i / 64);
    const std::uint64_t label = i % 64;
    const auto method = static_cast<Method>(i % kMethods);
    const std::size_t n = i / kMethods % kDrawCounts;
    RngStream s = RngStream::derive(seed, label);
    std::mt19937_64 ref(mix64(mix64(seed) ^ mix64(label + 0x5851F42D4C957F2Dull)));
    ASSERT_TRUE(same_draws(method, s, ref, n))
        << "stream " << i << ", method " << static_cast<int>(method) << ", "
        << n << " draws";

    RngStream copied = s;
    RngStream moved = RngStream(s);
    RngStream assigned = RngStream::derive(seed, label + 1);
    (void)assigned.uniform_int(0, 1);
    assigned = s;
    RngStream move_assigned(0);
    move_assigned = std::move(copied);
    ASSERT_TRUE(same_words(s, ref, kDrawCounts)) << "stream " << i;
    ASSERT_TRUE(same_words(std::move(moved), ref, kDrawCounts)) << "stream " << i;
    ASSERT_TRUE(same_words(assigned, ref, kDrawCounts)) << "stream " << i;
    ASSERT_TRUE(same_words(move_assigned, ref, kDrawCounts)) << "stream " << i;
  }
}

TEST(Rng, StreamFitsOneCacheLine) {
  // The engine lives off-object until a stream draws its fifth word, so a
  // grid can hold one stream per cell or per link outright.
  EXPECT_LE(sizeof(RngStream), 64u);
}

TEST(Rng, CopiesContinueLikeTheOriginal) {
  // One copy taken while the stream still serves its first words, one
  // after the fifth draw built the engine: each goes on draw for draw like
  // the original, and drawing from a copy leaves the original alone.
  constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();
  for (std::uint64_t label = 0; label < 64; ++label) {
    RngStream s = RngStream::derive(99, label);
    std::mt19937_64 ref(mix64(mix64(99) ^ mix64(label + 0x5851F42D4C957F2Dull)));
    const auto next_ref = [&ref] {
      return std::uniform_int_distribution<std::int64_t>(0, kMax)(ref);
    };
    const std::size_t before = label % 4;
    for (std::size_t i = 0; i < before; ++i) ASSERT_EQ(s.uniform_int(0, kMax), next_ref());
    RngStream early = s;
    for (std::size_t i = before; i < 6; ++i) ASSERT_EQ(s.uniform_int(0, kMax), next_ref());
    RngStream late = s;
    std::vector<std::int64_t> tail;
    for (int i = 0; i < 20; ++i) tail.push_back(next_ref());

    for (std::size_t i = 0; i < 20; ++i) ASSERT_EQ(late.uniform_int(0, kMax), tail[i]);
    for (std::size_t i = 0; i < 20; ++i) ASSERT_EQ(s.uniform_int(0, kMax), tail[i]);
    RngStream early_ref = RngStream::derive(99, label);
    for (std::size_t i = 0; i < before; ++i) (void)early_ref.uniform_int(0, kMax);
    for (int i = 0; i < 30; ++i) {
      ASSERT_EQ(early.uniform_int(0, kMax), early_ref.uniform_int(0, kMax)) << i;
    }
  }
}

TEST(Fifo, KeepsFirstInFirstOutOrder) {
  Fifo<int> q;
  EXPECT_TRUE(q.empty());
  for (int i = 0; i < 10; ++i) q.push_back(i);
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(q.front(), i);
    q.pop_front();
  }
  for (int i = 10; i < 13; ++i) q.push_back(i);
  EXPECT_EQ(q.size(), 9u);
  EXPECT_EQ(q.back(), 12);
  std::vector<int> seen(q.begin(), q.end());
  std::vector<int> want(9);
  std::iota(want.begin(), want.end(), 4);
  EXPECT_EQ(seen, want);
  for (int i = 4; i < 13; ++i) {
    EXPECT_EQ(q[0], i);
    q.pop_front();
  }
  EXPECT_TRUE(q.empty());
}

TEST(Fifo, EraseInMidQueueKeepsTheRestInOrder) {
  Fifo<int> q;
  for (int i = 0; i < 12; ++i) q.push_back(i);
  q.pop_front();
  q.pop_front();
  for (auto it = q.begin(); it != q.end();) {
    it = *it % 3 == 0 ? q.erase(it) : std::next(it);
  }
  EXPECT_EQ(std::vector<int>(q.begin(), q.end()),
            (std::vector<int>{2, 4, 5, 7, 8, 10, 11}));
  for (auto it = q.begin(); it != q.end();) it = q.erase(it);
  EXPECT_TRUE(q.empty());
  q.push_back(7);
  EXPECT_EQ(q.front(), 7);
}

TEST(Fifo, DefaultHoldsNoStorage) {
  const Fifo<std::uint64_t> q;
  EXPECT_EQ(q.capacity(), 0u);
  EXPECT_EQ(q.size(), 0u);
}

TEST(Fifo, InterleavedPushPopKeepsCapacityBounded) {
  // A queue that holds 1 to 8 elements through 10^5 pushes and pops, and
  // so never empties, must not grow its storage with the traffic.
  Fifo<int> q;
  RngStream rng(5);
  int next_in = 0;
  int next_out = 0;
  std::size_t most = 0;
  for (int op = 0; op < 100'000; ++op) {
    if (q.size() < 8 && (q.size() < 2 || rng.bernoulli(0.5))) {
      q.push_back(next_in++);
    } else {
      ASSERT_EQ(q.front(), next_out++);
      q.pop_front();
    }
    most = std::max(most, q.capacity());
  }
  EXPECT_LE(most, 32u);
}

TEST(TraceLog, EmitsLinesWithTimestampPrefix) {
  TraceLog log;
  std::vector<std::string> lines;
  log.set_sink([&](std::string_view l) { lines.emplace_back(l); });
  log.emit(2'500'000, "a");
  log.emit(0, "b");
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_EQ(lines[0], "[2.500000] a");
  EXPECT_EQ(lines[1], "[0.000000] b");
}

TEST(TraceLog, FormatLineConcatenates) {
  EXPECT_EQ(format_line("x=", 3, " y=", 4.5), "x=3 y=4.5");
}

}  // namespace
}  // namespace dca::sim
