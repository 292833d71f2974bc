// Unit tests for the discrete-event kernel: event ordering, cancellation,
// clock semantics, RNG stream independence, and the trace log.
#include <gtest/gtest.h>

#include <functional>
#include <string>
#include <vector>

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
ShardedKernel one_cell() { return ShardedKernel(1, 1, milliseconds(1), 1); }

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
  ShardedKernel k(2, 1, milliseconds(1), 1);
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

TEST(TraceLog, DisabledByDefault) {
  TraceLog log;
  int lines = 0;
  log.set_sink([&](std::string_view) { ++lines; });
  log.emit(LogLevel::kInfo, 0, "hello");
  EXPECT_EQ(lines, 0);
}

TEST(TraceLog, EmitsAtOrBelowLevelWithTimestamp) {
  TraceLog log;
  std::vector<std::string> lines;
  log.set_sink([&](std::string_view l) { lines.emplace_back(l); });
  log.set_level(LogLevel::kDebug);
  log.emit(LogLevel::kInfo, 2'500'000, "a");
  log.emit(LogLevel::kDebug, 0, "b");
  log.emit(LogLevel::kTrace, 0, "c");  // above level: dropped
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_NE(lines[0].find("2.500000"), std::string::npos);
  EXPECT_NE(lines[0].find("a"), std::string::npos);
}

TEST(TraceLog, FormatLineConcatenates) {
  EXPECT_EQ(format_line("x=", 3, " y=", 4.5), "x=3 y=4.5");
}

}  // namespace
}  // namespace dca::sim
