// Protocol trace: a microscope on the adaptive scheme's message exchanges.
//
// Runs a tiny scripted scenario — a cell exhausting its primaries, then
// borrowing from a neighbour — with network tracing enabled, so every
// REQUEST/RESPONSE/CHANGE_MODE/ACQUISITION/RELEASE appears on stdout with
// its simulated timestamp. Useful for studying the protocol and for
// debugging new schemes against the paper's Figs. 2-10.
//
//   $ ./protocol_trace
#include <cstdio>

#include "core/adaptive.hpp"
#include "runner/world.hpp"
#include "sim/log.hpp"

int main() {
  using namespace dca;

  runner::ScenarioConfig cfg;
  cfg.rows = 6;
  cfg.cols = 6;
  cfg.n_channels = 21;  // 3 primaries per cell: borrowing starts quickly
  cfg.cluster = 7;
  cfg.latency = sim::milliseconds(5);
  cfg.adaptive.theta_low = 1;
  cfg.adaptive.theta_high = 2;

  runner::World world(cfg, runner::Scheme::kAdaptive);

  sim::TraceLog trace;
  trace.set_sink([](std::string_view line) { std::printf("%.*s\n",
                                                         static_cast<int>(line.size()),
                                                         line.data()); });
  world.set_message_log(&trace);

  const cell::CellId hot = (cfg.rows / 2) * cfg.cols + cfg.cols / 2;
  std::printf("== scripted scenario: cell %d exhausts its 3 primaries, then borrows ==\n\n",
              hot);

  auto offer = [&world](cell::CellId c, traffic::CallId id, sim::Duration hold) {
    traffic::CallSpec spec;
    spec.id = id;
    spec.cell = c;
    spec.arrival = world.now();
    spec.holding = hold;
    world.submit_call(spec);
  };

  std::printf("-- t=0: three local calls (silent: local mode costs nothing,\n");
  std::printf("--       until the third triggers the CHANGE_MODE wave) --\n");
  offer(hot, 1, sim::seconds(40));
  offer(hot, 2, sim::seconds(40));
  offer(hot, 3, sim::seconds(40));
  world.run_until(sim::seconds(1));

  std::printf("\n-- t=1s: a fourth call: borrowing via one update round --\n");
  offer(hot, 4, sim::seconds(10));
  world.run_until(sim::seconds(2));

  std::printf("\n-- t=11s: the borrowed call ends (region-wide RELEASE) --\n");
  world.run_until(sim::seconds(20));

  std::printf("\n-- t=40s: the local calls end; the node returns to local mode --\n");
  world.run_to_quiescence();

  const auto& node = dynamic_cast<const core::AdaptiveNode&>(world.node(hot));
  std::printf("\nfinal state: mode=%d, in-use=%s, violations=%llu\n", node.mode(),
              node.in_use().to_string().c_str(),
              static_cast<unsigned long long>(world.interference_violations()));
  return 0;
}
