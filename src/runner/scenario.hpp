// Scenario configuration: everything needed to assemble a reproducible
// simulated cellular system.
#pragma once

#include <cstdint>
#include <string>

#include "cell/grid.hpp"
#include "cell/partition.hpp"
#include "cell/reuse.hpp"
#include "core/params.hpp"
#include "net/fault.hpp"
#include "proto/channel_pick.hpp"
#include "sim/types.hpp"

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

  // Channel pick of the basic update scheme.
  proto::ChannelPick update_pick = proto::ChannelPick::kRandom;

  /// Guard channels: a new call is blocked while its cell believes at
  /// most this many channels are free; handoff legs always pass. -1 (the
  /// paper's behaviour) gates nothing; 0 still gates a cell with none free.
  int handoff_guard = -1;

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
/// human-readable description of the first problem. It is
/// validate_options, then validate_plan on the grid and plan the scenario
/// builds.
[[nodiscard]] std::string validate_scenario(const ScenarioConfig& config);

/// Every check of validate_scenario that needs no grid.
[[nodiscard]] std::string validate_options(const ScenarioConfig& config);

/// Most arrival candidates one run may plan. The arrival planner holds
/// every candidate of the horizon at once (24 bytes each), so the cap
/// bounds that plan at ~2.4 GB; the largest workloads in-tree plan under
/// 10^7.
inline constexpr double kMaxArrivalCandidates = 1e8;

/// The offered-load check: `peak_rate_sum` is the cells' summed peak
/// arrival rate in calls per second, so peak_rate_sum * duration is the
/// expected number of arrival candidates. Rejects a load above
/// kMaxArrivalCandidates (or a non-finite one), naming the `rho` key: a
/// huge but finite rho otherwise gives zero-length gaps and the planner
/// grows until memory runs out. Empty when the load is plannable.
[[nodiscard]] std::string validate_load(const ScenarioConfig& config,
                                        double peak_rate_sum);

/// The final geometry check: the reuse plan must give no two interfering
/// cells the same primary channels (catches e.g. torus dimensions that do
/// not fit the cluster pattern).
[[nodiscard]] std::string validate_plan(const cell::HexGrid& grid,
                                        const cell::ReusePlan& plan);

}  // namespace dca::runner
