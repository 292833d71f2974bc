// Hot-spot walkthrough: watch the adaptive scheme react to a transient
// traffic spike cell-by-cell — mode switches, borrowed channels, and the
// return to local mode when the spike passes.
//
//   $ ./hotspot_borrowing
//
// Demonstrates the lower-level World API (stepping the clock and node
// introspection) rather than the one-shot experiment drivers.
#include <cstdio>

#include "core/adaptive.hpp"
#include "runner/world.hpp"
#include "traffic/profile.hpp"

int main() {
  using namespace dca;

  runner::ScenarioConfig cfg;
  cfg.rows = 8;
  cfg.cols = 8;
  cfg.n_channels = 70;
  cfg.cluster = 7;
  cfg.duration = sim::minutes(30);
  cfg.warmup = 0;
  cfg.adaptive.theta_low = 2;
  cfg.adaptive.theta_high = 4;

  const cell::CellId hot = (cfg.rows / 2) * cfg.cols + cfg.cols / 2;

  // Light background everywhere; the hot cell runs at 12x for 10 minutes.
  const traffic::HotspotProfile profile(cfg.arrival_rate_for_load(0.12), {hot},
                                        12.0, sim::minutes(10), sim::minutes(20));
  runner::World world(cfg, runner::Scheme::kAdaptive, &profile);

  const auto& node = dynamic_cast<const core::AdaptiveNode&>(world.node(hot));

  std::printf("minute | mode | in-use | borrowed | free primaries | subscribers nearby\n");
  std::printf("-------+------+--------+----------+----------------+-------------------\n");
  for (int minute = 1; minute <= 30; ++minute) {
    world.run_until(sim::minutes(minute));
    int borrowed = (node.in_use() - world.plan().primary(hot)).size();
    int subscribers = 0;
    for (const cell::CellId j : world.grid().interference(hot)) {
      const auto& nb = dynamic_cast<const core::AdaptiveNode&>(world.node(j));
      if (nb.update_subscribers().contains(hot)) ++subscribers;
    }
    std::printf("%6d | %4d | %6d | %8d | %14d | %19d\n", minute, node.mode(),
                node.in_use().size(), borrowed, node.free_primary_count(),
                subscribers);
  }
  world.run_to_quiescence();

  const auto agg = world.result().agg;
  std::printf("\nhot-spot summary: %llu calls, %.2f%% dropped, "
              "acquisition mix local/update/search = %.2f/%.2f/%.2f\n",
              static_cast<unsigned long long>(agg.offered),
              100.0 * agg.drop_rate(), agg.xi1, agg.xi2, agg.xi3);
  std::printf("mode switches at the hot cell: %llu to borrowing, %llu back to local\n",
              static_cast<unsigned long long>(node.switches_to_borrowing()),
              static_cast<unsigned long long>(node.switches_to_local()));
  std::printf("co-channel violations: %llu\n",
              static_cast<unsigned long long>(world.interference_violations()));
  return world.interference_violations() == 0 ? 0 : 1;
}
