// E-K1 — google-benchmark microbenchmarks of the simulation substrate:
// event-queue and kernel throughput, the transport's send paths, random
// streams, ChannelSet algebra, interference lookups, and end-to-end
// simulated-call throughput of the full world.
#include <benchmark/benchmark.h>

#include <functional>
#include <span>
#include <utility>
#include <vector>

#include "cell/grid.hpp"
#include "cell/reuse.hpp"
#include "cell/spectrum.hpp"
#include "net/fault.hpp"
#include "net/latency.hpp"
#include "net/link_table.hpp"
#include "net/transport.hpp"
#include "runner/experiment.hpp"
#include "sim/random.hpp"
#include "sim/shard.hpp"

namespace {

using namespace dca;

void BM_ShardQueueScheduleAndPop(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  sim::RngStream rng(1);
  for (auto _ : state) {
    sim::ShardQueue q;
    for (std::size_t i = 0; i < n; ++i) {
      (void)q.schedule(sim::EventKey{rng.uniform_int(0, 1'000'000), 0,
                                     sim::kClassTimer, 0, i},
                       [] {});
    }
    while (!q.empty()) benchmark::DoNotOptimize(q.pop().key.when);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_ShardQueueScheduleAndPop)->Arg(1024)->Arg(16384);

void BM_ShardQueueFanOut(benchmark::State& state) {
  // The protocol's shape: a backlog of ~2,300 far-off events (call ends,
  // seconds away), each of which, when it fires, is replaced by another
  // and broadcasts to an 18-cell interference region one 5 ms latency
  // ahead, all 18 deliveries at the same instant. One item is one pop.
  constexpr std::size_t kBacklog = 2300;
  constexpr std::int32_t kFanOut = 18;
  sim::RngStream rng(1);
  sim::ShardQueue q;
  std::uint64_t seq = 0;
  const auto schedule_far = [&](sim::SimTime now, std::int32_t owner) {
    (void)q.schedule(sim::EventKey{now + rng.uniform_int(1'000'000, 10'000'000),
                                   owner, sim::kClassTimer, 0, ++seq},
                     [] {});
  };
  for (std::size_t i = 0; i < kBacklog; ++i) {
    schedule_far(0, static_cast<std::int32_t>(i % 256));
  }
  for (auto _ : state) {
    const sim::EventKey key = q.pop().key;
    if (key.klass != sim::kClassTimer) continue;
    schedule_far(key.when, key.owner);
    for (std::int32_t d = 0; d < kFanOut; ++d) {
      (void)q.schedule(sim::EventKey{key.when + sim::milliseconds(5), d,
                                     sim::kClassDelivery, key.owner, ++seq},
                       [] {});
    }
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_ShardQueueFanOut);

void BM_KernelSelfSchedulingChain(benchmark::State& state) {
  // One cell on one shard: schedule_local, window barrier and dispatch per
  // event, with nothing else in the queue.
  for (auto _ : state) {
    sim::ShardedKernel k({0}, 1, sim::milliseconds(1), 1);
    int remaining = 10000;
    std::function<void()> tick = [&] {
      if (--remaining > 0) {
        (void)k.schedule_local(0, sim::kClassTimer, k.now(0) + 1, [&] { tick(); });
      }
    };
    (void)k.schedule_local(0, sim::kClassTimer, 1, [&] { tick(); });
    k.run_to_quiescence();
    benchmark::DoNotOptimize(k.now(0));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 10000);
}
BENCHMARK(BM_KernelSelfSchedulingChain);

/// The transport on a 16x16 grid (radius 2) over a one-shard kernel, with
/// a counting receiver in place of the nodes.
struct TransportRig {
  explicit TransportRig(net::FaultConfig f) : faults(std::move(f)) {
    transport.set_receiver([this](const net::Message&) { ++delivered; });
  }

  /// Sends one message from the centre cell to the next of its
  /// interference neighbours, round robin.
  void send_next() {
    msg.to = in[next++ % in.size()];
    transport.send(msg);
  }

  cell::HexGrid grid{16, 16, 2};
  net::LinkTable links{grid};
  net::Latency latency{links, sim::milliseconds(5), 0, 42};
  net::FaultConfig faults;
  sim::ShardedKernel kernel{
      std::vector<int>(static_cast<std::size_t>(grid.n_cells())), 1,
      sim::milliseconds(5), 1};
  net::Transport transport{kernel, links, latency, faults, 42};
  std::uint64_t delivered = 0;
  const cell::CellId center = grid.n_cells() / 2 + 8;
  const std::span<const cell::CellId> in = grid.interference(center);
  net::Message msg = [this] {
    net::Message m;
    m.from = center;
    return m;
  }();
  std::size_t next = 0;
};

void BM_TransportSendDeliver(benchmark::State& state) {
  // The fault-free transport hot path: LinkId resolution, FIFO-floor
  // probe, canonical delivery key, inline delivery closure, dispatch — no
  // reliable-transport framing. One item = one message end to end.
  TransportRig rig({});
  for (auto _ : state) {
    rig.send_next();
    rig.kernel.run_to_quiescence();
  }
  benchmark::DoNotOptimize(rig.delivered);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_TransportSendDeliver);

void BM_TransportSendAckRoundTrip(benchmark::State& state) {
  // Reliable transport engaged (jitter=1us, no drops/dups): one item =
  // data frame out, resequence, cumulative ack back, pending-window erase,
  // RTO cancel — the full send -> ack round trip on the ring buffers.
  net::FaultConfig fc;
  fc.jitter = 1;
  TransportRig rig(fc);
  for (auto _ : state) {
    rig.send_next();
    rig.kernel.run_to_quiescence();
  }
  benchmark::DoNotOptimize(rig.delivered);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_TransportSendAckRoundTrip);

void BM_TransportDupReorderCocktail(benchmark::State& state) {
  // Lossy-link cocktail (10% drop, 10% dup, 500us jitter): retransmit
  // timers, duplicate suppression, and out-of-order resequencing all hit
  // the per-link rings. Sends go in bursts so frames genuinely reorder.
  net::FaultConfig fc;
  fc.drop_prob = 0.10;
  fc.dup_prob = 0.10;
  fc.jitter = 500;
  TransportRig rig(fc);
  constexpr int kBurst = 16;
  for (auto _ : state) {
    for (int b = 0; b < kBurst; ++b) rig.send_next();
    rig.kernel.run_to_quiescence();
  }
  benchmark::DoNotOptimize(rig.delivered);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * kBurst);
}
BENCHMARK(BM_TransportDupReorderCocktail);

void BM_RngDeriveOneDraw(benchmark::State& state) {
  // The one-shot stream: derive, one exponential, drop (a call leg's dwell
  // time in traffic::mobility).
  std::uint64_t label = 0;
  for (auto _ : state) {
    sim::RngStream rng = sim::RngStream::derive(7, ++label);
    benchmark::DoNotOptimize(rng.exponential_mean(1.0));
  }
}
BENCHMARK(BM_RngDeriveOneDraw);

void BM_RngDeriveThousandDraws(benchmark::State& state) {
  // A long-lived stream: derive, then 1000 exponentials. One item is one
  // draw, so the per-item time is the steady draw cost plus a thousandth
  // of the set-up.
  constexpr std::int64_t kDraws = 1000;
  std::uint64_t label = 0;
  for (auto _ : state) {
    sim::RngStream rng = sim::RngStream::derive(7, ++label);
    double sum = 0.0;
    for (std::int64_t i = 0; i < kDraws; ++i) sum += rng.exponential_mean(1.0);
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * kDraws);
}
BENCHMARK(BM_RngDeriveThousandDraws);

void BM_ChannelSetAlgebra(benchmark::State& state) {
  cell::ChannelSet a(512), b(512);
  for (int i = 0; i < 512; i += 3) a.insert(i);
  for (int i = 0; i < 512; i += 5) b.insert(i);
  for (auto _ : state) {
    auto c = (a | b) - (a & b);
    benchmark::DoNotOptimize(c.size());
    benchmark::DoNotOptimize(c.first());
  }
}
BENCHMARK(BM_ChannelSetAlgebra);

void BM_ChannelSetIteration(benchmark::State& state) {
  cell::ChannelSet a(512);
  for (int i = 0; i < 512; i += 7) a.insert(i);
  for (auto _ : state) {
    int sum = 0;
    for (auto c = a.first(); c != cell::kNoChannel; c = a.next_after(c)) sum += c;
    benchmark::DoNotOptimize(sum);
  }
}
BENCHMARK(BM_ChannelSetIteration);

void BM_GridConstruction(benchmark::State& state) {
  const int side = static_cast<int>(state.range(0));
  for (auto _ : state) {
    cell::HexGrid g(side, side, 2);
    benchmark::DoNotOptimize(g.max_interference_degree());
  }
}
BENCHMARK(BM_GridConstruction)->Arg(8)->Arg(16)->Arg(32);

void BM_ReusePlanValidation(benchmark::State& state) {
  const cell::HexGrid g(16, 16, 2);
  const auto plan = cell::ReusePlan::cluster(g, 70, 7);
  for (auto _ : state) {
    benchmark::DoNotOptimize(plan.validate(g));
  }
}
BENCHMARK(BM_ReusePlanValidation);

void BM_EndToEndSimulatedMinute(benchmark::State& state) {
  // Full-system throughput: one simulated minute of the adaptive scheme at
  // moderate load on the paper-scale grid.
  runner::ScenarioConfig cfg;
  cfg.rows = 8;
  cfg.cols = 8;
  cfg.n_channels = 70;
  cfg.cluster = 7;
  cfg.duration = sim::minutes(1);
  cfg.warmup = 0;
  for (auto _ : state) {
    const auto r = runner::run_uniform(cfg, runner::Scheme::kAdaptive, 0.6);
    benchmark::DoNotOptimize(r.agg.offered);
    if (r.violations != 0) state.SkipWithError("invariant violated");
  }
}
BENCHMARK(BM_EndToEndSimulatedMinute)->Unit(benchmark::kMillisecond);

}  // namespace
