#include "runner/experiment.hpp"

#ifdef __linux__
#include <sys/resource.h>
#endif

#include "runner/world.hpp"

namespace dca::runner {

namespace {

/// Peak resident set of this process in bytes (0 when unavailable).
/// Linux reports ru_maxrss in kilobytes.
std::uint64_t peak_rss_bytes_now() {
#ifdef __linux__
  rusage u{};
  if (getrusage(RUSAGE_SELF, &u) == 0) {
    return static_cast<std::uint64_t>(u.ru_maxrss) * 1024u;
  }
#endif
  return 0;
}

}  // namespace

RunResult run_profile(const ScenarioConfig& config, Scheme scheme,
                      const traffic::LoadProfile& profile,
                      sim::TraceRecorder* trace) {
  World world(config, scheme, &profile);
  world.set_recorder(trace);
  world.run();
  RunResult out = world.result();
  out.peak_rss_bytes = peak_rss_bytes_now();
  return out;
}

RunResult run_uniform(const ScenarioConfig& config, Scheme scheme, double rho,
                      sim::TraceRecorder* trace) {
  const traffic::UniformProfile profile(config.arrival_rate_for_load(rho));
  return run_profile(config, scheme, profile, trace);
}

RunResult run_hotspot(const ScenarioConfig& config, Scheme scheme, double rho_base,
                      double hot_factor, sim::SimTime hot_start, sim::SimTime hot_end,
                      std::vector<cell::CellId> hot_cells,
                      sim::TraceRecorder* trace) {
  if (hot_cells.empty()) {
    // Default hot spot: the central cell of the grid.
    hot_cells.push_back((config.rows / 2) * config.cols + config.cols / 2);
  }
  const traffic::HotspotProfile profile(config.arrival_rate_for_load(rho_base),
                                        std::move(hot_cells), hot_factor, hot_start,
                                        hot_end);
  return run_profile(config, scheme, profile, trace);
}

Replicated run_replicated(const ScenarioConfig& config, Scheme scheme, double rho,
                          int n_seeds) {
  Replicated out;
  out.seeds = n_seeds;
  for (int i = 0; i < n_seeds; ++i) {
    ScenarioConfig cfg = config;
    cfg.seed = sim::mix64(config.seed + static_cast<std::uint64_t>(i) * 0x9E37u);
    const RunResult r = run_uniform(cfg, scheme, rho);
    out.drop_rate.add(r.agg.drop_rate());
    out.mean_delay_in_T.add(r.agg.delay_in_T.mean());
    out.mean_msgs_per_call.add(r.agg.messages_per_call.mean());
    out.xi1.add(r.agg.xi1);
    out.violations += r.violations;
  }
  return out;
}

}  // namespace dca::runner
