#include "runner/scenario.hpp"

#include <algorithm>

#include "cell/reuse.hpp"
#include "cell/spectrum.hpp"
#include "net/latency.hpp"

namespace dca::runner {

std::string validate_scenario(const ScenarioConfig& c) {
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
  if (c.radio_fade_prob < 0.0 || c.radio_fade_prob >= 1.0)
    return "radio_fade_prob must be in [0, 1)";
  {
    // Registry-level check: unknown policy names, unknown parameters, and
    // out-of-range values are all rejected here, with the factory's own
    // message, instead of aborting at world construction.
    std::string policyError;
    auto policy = proto::PolicyRegistry::instance().make(c.policy, policyError);
    if (policy == nullptr) return policyError;
  }
  if (c.radio_fade_prob > 0.0 && c.radio_fade_bucket <= 0)
    return "radio_fade_bucket must be positive when fading is enabled";

  // Final authority: build the actual geometry and validate the colouring
  // (catches e.g. torus dimensions incompatible with the cluster pattern).
  const cell::HexGrid grid(c.rows, c.cols, c.interference_radius, c.wrap);
  const cell::ReusePlan plan =
      c.greedy_plan ? cell::ReusePlan::greedy(grid, c.n_channels)
                    : cell::ReusePlan::cluster(grid, c.n_channels, c.cluster);
  if (!plan.validate(grid)) {
    return "reuse plan invalid for this grid (for a cluster-7 torus use "
           "rows % 14 == 0 and cols % 7 == 0, e.g. 14x14; or greedy_plan)";
  }
  return "";
}

std::unique_ptr<net::LatencyModel> make_scenario_latency(
    const ScenarioConfig& c) {
  if (c.latency_jitter > 0) {
    // Uniform in [latency - jitter, latency], floored at 1 us so time
    // always advances. Per-link streams keep the draw sequence identical
    // at any shard count (see LinkJitterLatency).
    const sim::Duration lo =
        std::max<sim::Duration>(c.latency - c.latency_jitter, 1);
    return std::make_unique<net::LinkJitterLatency>(lo, c.latency, c.seed);
  }
  return std::make_unique<net::FixedLatency>(c.latency);
}

}  // namespace dca::runner
