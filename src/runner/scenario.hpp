// Scenario configuration: everything needed to assemble a reproducible
// simulated cellular system.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "cell/grid.hpp"
#include "cell/partition.hpp"
#include "core/params.hpp"
#include "net/fault.hpp"
#include "proto/policy.hpp"
#include "sim/types.hpp"

namespace dca::net {
class LatencyModel;
}

namespace dca::runner {

/// The channel-allocation schemes under study.
enum class Scheme {
  kFca,             // static baseline
  kBasicSearch,     // Dong & Lai basic search
  kBasicUpdate,     // Dong & Lai basic update
  kAdvancedUpdate,  // Dong & Lai advanced update (TR-48)
  kAdvancedSearch,  // Prakash/Shivaratri/Singhal allocated-set scheme [8]
  kAdaptive,        // the paper's proposed scheme
};

[[nodiscard]] std::string scheme_name(Scheme s);

/// All schemes in presentation order (the paper's table order, FCA first).
inline constexpr Scheme kAllSchemes[] = {
    Scheme::kFca,            Scheme::kBasicSearch,    Scheme::kBasicUpdate,
    Scheme::kAdvancedUpdate, Scheme::kAdvancedSearch, Scheme::kAdaptive};

/// The four schemes the paper's tables compare (no FCA row).
inline constexpr Scheme kPaperSchemes[] = {
    Scheme::kBasicSearch, Scheme::kBasicUpdate, Scheme::kAdvancedUpdate,
    Scheme::kAdaptive};

struct ScenarioConfig {
  // Topology (paper Fig. 1 setting: hexagonal array, reuse distance 3
  // cell hops => interference radius 2, cluster-7 reuse pattern).
  int rows = 8;
  int cols = 8;
  int interference_radius = 2;
  int n_channels = 70;
  int cluster = 7;
  /// kToroidal removes boundary effects (every cell gets the full interior
  /// neighbourhood); needs rows % 14 == 0 and cols % 7 == 0 for a valid
  /// wrapped cluster-7 colouring (e.g. 14x14).
  cell::Wrap wrap = cell::Wrap::kBounded;

  /// When true, the primary assignment uses a greedy colouring of the
  /// interference graph instead of the regular cluster pattern — the only
  /// option for radii with no regular pattern (e.g. radius 3); `cluster`
  /// is ignored and the colour count is whatever the greedy needs.
  bool greedy_plan = false;

  // Traffic.
  double mean_holding_s = 180.0;

  // Network.
  sim::Duration latency = sim::milliseconds(5);  // the paper's T
  sim::Duration latency_jitter = 0;  // >0: uniform in [latency-j, latency]

  // Execution.
  std::uint64_t seed = 1;
  sim::Duration duration = sim::minutes(30);
  sim::Duration warmup = sim::minutes(5);

  /// Engine parallelism: the engine partitions cells across this many
  /// event queues (default 1), synchronized on the minimum per-link
  /// latency floor; results are bit-identical for any shards/threads
  /// value, including latency_jitter and mobility (both draw from streams
  /// derived purely from stable identifiers, so no global RNG ordering is
  /// involved).
  int shards = 1;
  /// Worker threads for the shards; 0 = min(shards, hardware).
  /// Never affects results, only wall-clock.
  int threads = 0;
  /// How cells map onto shards (shards > 1 only). Never affects results —
  /// the canonical event order is partition-independent — only how many
  /// messages cross shard boundaries. kBlocks keeps interference
  /// neighbourhoods shard-local and is the default; kStriped is the legacy
  /// cell % shards interleaving.
  cell::Partition partition = cell::Partition::kBlocks;
  /// Pin the engine's workers to distinct allowed CPUs (worker i -> the
  /// i-th CPU of the process affinity mask). Wall-clock stability only —
  /// never affects results. Silently unavailable off Linux.
  bool pin = false;
  /// Stream metrics (and the trace, when one is attached) out of the
  /// engine at window barriers instead of buffering every call record to
  /// the end of the run: peak memory stays bounded by the in-flight
  /// working set instead of growing with call count. Aggregates are
  /// bit-identical to the buffered path, at any shard count.
  bool stream_metrics = false;

  // Update-family retry cap (the paper's schemes may retry unboundedly;
  // see DESIGN.md faithfulness note 7).
  int max_update_attempts = 10;

  // Channel-selection policy of the basic update scheme.
  proto::ChannelPick update_pick = proto::ChannelPick::kRandom;

  /// Allocation policy (registry name + parameters) shared by every node.
  /// "default" reproduces the paper's hard-wired behaviour bit for bit;
  /// see PolicyRegistry for the registered alternatives.
  proto::PolicySpec policy;

  // Adaptive-scheme tuning (Section 3.5).
  core::AdaptiveParams adaptive;

  // Mobility (optional handoff model; 0 disables).
  double mean_dwell_s = 0.0;

  // Fault injection (all-zero ⇒ the fault layer is fully bypassed and the
  // run is bit-identical to a pre-fault-layer build).
  net::FaultConfig fault;

  /// Per-request protocol timeout: a node gives up on an unanswered
  /// handshake phase after this long and runs its abort path (bounded
  /// retries, then the search/mode-3 fallback). 0 disables the timers —
  /// correct for fault-free runs, where every response always arrives.
  sim::Duration request_timeout = 0;

  /// Radio-quality noise: probability that a given (cell, channel) is
  /// fading — temporarily unusable for *new* acquisitions — during any
  /// given coherence bucket. 0 (default) disables the model entirely.
  /// The fade field is a pure hash of (seed, cell, channel, bucket), so
  /// it consumes no RNG stream and perturbs no other draw.
  double radio_fade_prob = 0.0;
  /// Coherence time of a fade state, i.e. how long a (cell, channel)
  /// stays faded/clear before being re-drawn.
  sim::Duration radio_fade_bucket = sim::seconds(1);

  /// Offered load per cell in Erlangs normalized to the primary-set size:
  /// rho = lambda * holding / |PR|  =>  lambda = rho * |PR| / holding.
  [[nodiscard]] double arrival_rate_for_load(double rho) const {
    const double pr = static_cast<double>(n_channels) / static_cast<double>(cluster);
    return rho * pr / mean_holding_s;
  }
};

/// Checks a configuration for the constraint violations that would
/// otherwise fail deep inside construction (invalid torus dimensions for
/// the cluster pattern, unsupported cluster size, spectrum overflow,
/// inverted hysteresis, ...). Returns an empty string when valid, else a
/// human-readable description of the first problem.
[[nodiscard]] std::string validate_scenario(const ScenarioConfig& config);

/// Builds the latency model a scenario prescribes: LinkJitterLatency when
/// latency_jitter > 0 (uniform in [latency - jitter, latency] from
/// per-link streams), else FixedLatency.
[[nodiscard]] std::unique_ptr<net::LatencyModel> make_scenario_latency(
    const ScenarioConfig& config);

}  // namespace dca::runner
