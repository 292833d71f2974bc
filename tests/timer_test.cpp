// Protocol-timer semantics of AllocatorNode::arm_timer after the TimerFn
// conversion: the timer callback crosses NodeEnv::schedule_in as an
// inline-only sim::TimerFn (no std::function, no allocation), and a
// generation counter makes every cancellation path safe — including
// environments that cannot cancel at all, where superseded events still
// fire and must be absorbed.
#include <gtest/gtest.h>

#include <utility>

#include "cell/grid.hpp"
#include "cell/reuse.hpp"
#include "mock_env.hpp"
#include "proto/allocator.hpp"
#include "sim/shard.hpp"
#include "sim/small_fn.hpp"

namespace {

using namespace dca;

// A TimerFn must nest inside the kernel's EventFn when an environment
// forwards it to the kernel (ShardEnv::schedule_in relies on this).
static_assert(sim::EventFn::fits_inline<sim::TimerFn>(),
              "TimerFn must fit inside EventFn's inline buffer");

/// Kernel-backed NodeEnv for timer tests (one cell, one shard). `can_cancel` false models an
/// environment with lazy (or absent) cancellation: cancel_scheduled is
/// ignored and superseded events still fire, so only the node's
/// generation counter keeps stale callbacks quiet.
class TimerEnv final : public proto::NodeEnv {
 public:
  explicit TimerEnv(bool can_cancel) : can_cancel_(can_cancel), rng_(1) {}

  [[nodiscard]] sim::SimTime now() const override { return sim.now(0); }
  void send(net::Message) override {}
  void send(net::Message, net::SetPayload) override {}
  [[nodiscard]] const net::SetPayload& payload(
      const net::Message&) const override {
    return no_sets_;
  }
  [[nodiscard]] sim::Duration latency_bound() const override {
    return sim::milliseconds(5);
  }
  void notify_acquired(cell::CellId, std::uint64_t, cell::ChannelId,
                       proto::Outcome, int) override {}
  void notify_blocked(cell::CellId, std::uint64_t, proto::Outcome,
                      int) override {}
  void notify_released(cell::CellId, cell::ChannelId) override {}
  void notify_reassigned(cell::CellId, cell::ChannelId,
                         cell::ChannelId) override {}
  sim::RngStream& rng(cell::CellId) override { return rng_; }

  sim::EventId schedule_in(sim::Duration delay, sim::TimerFn fn) override {
    ++timers_scheduled;
    return sim.schedule_local(0, sim::kClassTimer,
                              sim.now(0) + (delay > 0 ? delay : 0), std::move(fn));
  }
  void cancel_scheduled(sim::EventId id) override {
    ++cancels_requested;
    if (can_cancel_) sim.cancel(0, id);
  }

  sim::ShardedKernel sim{/*partition=*/{0}, /*n_shards=*/1, sim::milliseconds(1),
                         /*n_threads=*/1};
  int timers_scheduled = 0;
  int cancels_requested = 0;

 private:
  bool can_cancel_;
  sim::RngStream rng_;
  net::SetPayload no_sets_;
};

/// Minimal node exposing the protected timer interface.
class TimerProbe final : public proto::AllocatorNode {
 public:
  using AllocatorNode::AllocatorNode;

  void arm(sim::Duration d) {
    arm_timer(d, [this] {
      ++fires;
      last_fire = env().now();
    });
  }
  /// First firing re-arms for `second` more microseconds.
  void arm_chained(sim::Duration first, sim::Duration second) {
    arm_timer(first, [this, second] {
      ++fires;
      last_fire = env().now();
      arm(second);
    });
  }
  void disarm() { disarm_timer(); }

  void on_message(const net::Message&) override {}

  int fires = 0;
  sim::SimTime last_fire = -1;

 protected:
  void start_request(std::uint64_t) override {}
  void on_release(cell::ChannelId, std::uint64_t) override {}
};

class TimerTest : public ::testing::Test {
 protected:
  TimerTest() : grid_(8, 8, 2), plan_(cell::ReusePlan::cluster(grid_, 21, 7)) {}

  TimerProbe make_probe(proto::NodeEnv& env,
                        sim::Duration timeout = sim::milliseconds(100)) {
    return TimerProbe(
        proto::NodeContext{0, &grid_, &plan_, &env, timeout});
  }

  cell::HexGrid grid_;
  cell::ReusePlan plan_;
};

TEST_F(TimerTest, FiresOnceAtDeadline) {
  TimerEnv env(/*can_cancel=*/true);
  TimerProbe node = make_probe(env);
  node.arm(1000);
  env.sim.run_to_quiescence();
  EXPECT_EQ(node.fires, 1);
  EXPECT_EQ(node.last_fire, 1000);
  env.sim.run_to_quiescence();  // nothing left to fire
  EXPECT_EQ(node.fires, 1);
}

TEST_F(TimerTest, DisarmBeforeFireSuppressesCallback) {
  TimerEnv env(/*can_cancel=*/true);
  TimerProbe node = make_probe(env);
  node.arm(1000);
  node.disarm();
  env.sim.run_to_quiescence();
  EXPECT_EQ(node.fires, 0);
  EXPECT_EQ(env.cancels_requested, 1);
}

TEST_F(TimerTest, RearmReplacesPendingDeadline) {
  TimerEnv env(/*can_cancel=*/true);
  TimerProbe node = make_probe(env);
  node.arm(1000);
  node.arm(5000);  // supersedes: single-timer discipline
  env.sim.run_to_quiescence();
  EXPECT_EQ(node.fires, 1);
  EXPECT_EQ(node.last_fire, 5000);
}

TEST_F(TimerTest, GenerationAbsorbsRearmWhenCancelIsNoOp) {
  // The environment cannot cancel, so the superseded event at t=1000
  // still executes — the generation check must discard it, leaving only
  // the second deadline to fire.
  TimerEnv env(/*can_cancel=*/false);
  TimerProbe node = make_probe(env);
  node.arm(1000);
  node.arm(3000);
  env.sim.run_to_quiescence();
  EXPECT_EQ(node.fires, 1);
  EXPECT_EQ(node.last_fire, 3000);
  EXPECT_EQ(env.timers_scheduled, 2);
}

TEST_F(TimerTest, RearmFromInsideTheFiringCallback) {
  // A callback that re-arms while its own firing is being consumed: the
  // in-flight generation bump must not suppress the new arming.
  TimerEnv env(/*can_cancel=*/true);
  TimerProbe node = make_probe(env);
  node.arm_chained(1000, 500);
  env.sim.run_to_quiescence();
  EXPECT_EQ(node.fires, 2);
  EXPECT_EQ(node.last_fire, 1500);
}

TEST_F(TimerTest, DisarmAfterFireIsStaleHandleSafe) {
  // Once the timer fired, its EventId is dead. A later disarm must not
  // try to cancel the stale handle, and a fresh arming must still work.
  TimerEnv env(/*can_cancel=*/true);
  TimerProbe node = make_probe(env);
  node.arm(1000);
  env.sim.run_to_quiescence();
  ASSERT_EQ(node.fires, 1);
  node.disarm();
  EXPECT_EQ(env.cancels_requested, 0);  // handle was already invalidated
  node.arm(2000);
  env.sim.run_to_quiescence();
  EXPECT_EQ(node.fires, 2);
  EXPECT_EQ(node.last_fire, 3000);
}

TEST_F(TimerTest, TimeoutsDisabledMeansNoTimer) {
  TimerEnv env(/*can_cancel=*/true);
  TimerProbe node = make_probe(env, /*timeout=*/0);
  node.arm(1000);
  env.sim.run_to_quiescence();
  EXPECT_EQ(node.fires, 0);
  EXPECT_EQ(env.timers_scheduled, 0);
}

TEST_F(TimerTest, DefaultEnvironmentDropsTimersSafely) {
  // MockEnv keeps NodeEnv's default schedule_in (returns kInvalidEventId):
  // arming is a silent no-op and disarming the never-scheduled timer is
  // harmless.
  testutil::MockEnv env;
  TimerProbe node = make_probe(env);
  node.arm(1000);
  node.disarm();
  node.arm(500);
  EXPECT_EQ(node.fires, 0);
}

}  // namespace
