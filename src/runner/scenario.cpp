#include "runner/scenario.hpp"

#include <cstdio>

#include "cell/spectrum.hpp"

namespace dca::runner {

std::string validate_scenario(const ScenarioConfig& c) {
  if (std::string problem = validate_options(c); !problem.empty()) return problem;
  const cell::HexGrid grid(c.rows, c.cols, c.interference_radius, c.wrap);
  const cell::ReusePlan plan =
      c.greedy_plan ? cell::ReusePlan::greedy(grid, c.n_channels)
                    : cell::ReusePlan::cluster(grid, c.n_channels, c.cluster);
  return validate_plan(grid, plan);
}

std::string validate_options(const ScenarioConfig& c) {
  if (c.rows < 1 || c.cols < 1) return "grid dimensions must be positive";
  if (c.interference_radius < 1) return "interference radius must be >= 1";
  if (c.n_channels < 1) return "need at least one channel";
  if (c.n_channels > cell::kMaxChannels)
    return "at most " + std::to_string(cell::kMaxChannels) + " channels supported";
  if (!c.greedy_plan && c.cluster != 3 && c.cluster != 7)
    return "regular reuse patterns exist for cluster sizes 3 and 7 only "
           "(use greedy_plan for other radii)";
  if (!c.greedy_plan && c.cluster == 3 && c.interference_radius > 1)
    return "cluster 3 only supports interference radius 1";
  if (!c.greedy_plan && c.cluster == 7 && c.interference_radius > 2)
    return "cluster 7 only supports interference radius <= 2";
  if (c.wrap == cell::Wrap::kToroidal) {
    if (c.rows % 2 != 0)
      return "toroidal grids need an even row count (odd-r offset seam)";
    if (c.rows <= 2 * c.interference_radius || c.cols <= 2 * c.interference_radius)
      return "toroidal grid too small: a cell would wrap into its own "
             "interference region";
  }
  if (c.mean_holding_s <= 0.0) return "mean holding time must be positive";
  if (c.latency <= 0)
    return "the event engine needs latency > 0 (the per-link latency floors "
           "are its lookahead)";
  if (c.latency_jitter < 0) return "latency_jitter cannot be negative";
  if (c.mean_dwell_s < 0.0) return "mean dwell cannot be negative";
  if (c.duration <= 0) return "duration must be positive";
  if (c.max_update_attempts < 1) return "retry cap must be >= 1";
  if (c.handoff_guard < -1)
    return "handoff_guard must be >= -1 (-1 = no guard channels)";
  if (c.adaptive.theta_low < 1) return "theta_low must be >= 1 (DESIGN.md note 4)";
  if (c.adaptive.theta_high <= c.adaptive.theta_low)
    return "theta_high must exceed theta_low (hysteresis)";
  if (c.adaptive.alpha < 1) return "alpha must be >= 1";
  if (c.adaptive.window <= 0) return "NFC window must be positive";
  if (c.fault.drop_prob < 0.0 || c.fault.drop_prob > 0.9)
    return "drop_prob must be in [0, 0.9] (the transport needs some "
           "deliveries to make progress)";
  if (c.fault.dup_prob < 0.0 || c.fault.dup_prob > 1.0)
    return "dup_prob must be in [0, 1]";
  if (c.fault.jitter < 0) return "fault jitter cannot be negative";
  if (c.fault.pause_rate_per_min < 0.0) return "pause rate cannot be negative";
  if (c.fault.pause_rate_per_min > 0.0 && c.fault.pause_mean_s <= 0.0)
    return "pause_mean_s must be positive when pauses are enabled";
  if (c.request_timeout < 0) return "request timeout cannot be negative";
  if (c.fault.pause_rate_per_min > 0.0 && c.request_timeout == 0)
    return "MSS pauses stall handshakes indefinitely; set request_timeout";
  if (c.fault.crash_rate_per_min < 0.0) return "crash rate cannot be negative";
  if (c.fault.crash_mean_s < 0.0) return "crash_mean_s cannot be negative";
  if (c.fault.crash_rate_per_min > 0.0 && c.fault.crash_mean_s <= 0.0)
    return "crash_mean_s must be positive when crashes are enabled";
  if (c.fault.crashes() && c.request_timeout == 0)
    return "MSS crashes orphan in-flight handshakes; set request_timeout";
  for (const net::PartitionSpec& p : c.fault.partitions) {
    if (p.cells.empty())
      return "partition group must name at least one cell";
    if (p.start >= p.end)
      return "partition interval must satisfy start < end";
    for (const cell::CellId pc : p.cells) {
      if (pc < 0 || pc >= c.rows * c.cols)
        return "partition cell " + std::to_string(pc) +
               " outside the grid (cells are 0.." +
               std::to_string(c.rows * c.cols - 1) + ")";
    }
  }
  if (c.fault.has_partitions() && c.request_timeout == 0)
    return "network partitions stall handshakes until the heal; set "
           "request_timeout";
  if (c.shards < 1) return "shards must be >= 1";
  if (c.threads < 0) return "threads cannot be negative";
  if (c.shards > c.rows * c.cols) return "more shards than cells";

  return "";
}

std::string validate_load(const ScenarioConfig& c, double peak_rate_sum) {
  const double candidates = peak_rate_sum * sim::to_seconds(c.duration);
  if (candidates <= kMaxArrivalCandidates) return "";
  char expected[32];
  std::snprintf(expected, sizeof expected, "%.3g", candidates);
  return "rho too large: the offered load plans ~" + std::string(expected) +
         " arrival candidates over the run, above the cap of 1e8 (lower rho, "
         "the duration or the grid)";
}

std::string validate_plan(const cell::HexGrid& grid, const cell::ReusePlan& plan) {
  if (!plan.validate(grid)) {
    return "reuse plan invalid for this grid (for a cluster-7 torus use "
           "rows % 14 == 0 and cols % 7 == 0, e.g. 14x14; or greedy_plan)";
  }
  return "";
}

}  // namespace dca::runner
