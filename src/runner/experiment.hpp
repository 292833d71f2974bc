// One-call experiment drivers: assemble a World (runner/world.hpp), drive
// a traffic profile through it, and return the aggregated results dcasim,
// the tools and the experiment checks (tests/experiments_test.cpp) consume.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "metrics/availability.hpp"
#include "metrics/collector.hpp"
#include "net/fault.hpp"
#include "net/message.hpp"
#include "runner/scenario.hpp"
#include "sim/trace.hpp"
#include "traffic/profile.hpp"

namespace dca::runner {

struct RunResult {
  Scheme scheme = Scheme::kFca;
  metrics::Aggregate agg;
  std::uint64_t total_messages = 0;
  /// Protocol messages whose sender and receiver cells live on different
  /// shards (always 0 at shards = 1). An engine-cost metric, not a
  /// simulation result: it varies with shards/partition while every
  /// simulation output stays bit-identical.
  std::uint64_t cross_shard_messages = 0;
  std::array<std::uint64_t, net::kNumMsgKinds> messages_by_kind{};
  std::uint64_t offered_calls = 0;  // including warmup
  double carried_erlangs = 0.0;     // time-weighted channels in use
  std::uint64_t violations = 0;
  std::uint64_t executed_events = 0;
  bool quiescent = false;
  net::TransportStats transport;  // all-zero unless faults were enabled
  /// Bytes the reliable transport holds at the end of the run (send
  /// windows, reorder rings, payload pools, fault streams; none of them
  /// shrinks, so this is also their peak). 0 unless link faults were on.
  std::uint64_t transport_bytes = 0;
  /// Crash/resync availability accounting (all-zero with crashes off).
  metrics::Availability availability;

  /// Process-wide peak resident set (getrusage ru_maxrss) sampled after
  /// the run, in bytes; 0 where the platform cannot report it. A
  /// high-water mark, so it reflects the largest run of the process, not
  /// necessarily this one — meaningful for one-run processes (dcasim,
  /// the metro smoke test) and as an upper bound elsewhere.
  std::uint64_t peak_rss_bytes = 0;
  /// In-engine conformance replay (streaming mode with a trace attached):
  /// whether it ran, and how many invariant violations it found.
  bool conformance_checked = false;
  std::uint64_t conformance_violations = 0;
  [[nodiscard]] bool conformance_ok() const {
    return conformance_checked && conformance_violations == 0;
  }

  /// Control messages per offered call over the whole run (global view,
  /// complementary to the per-call attribution in agg.messages_per_call).
  [[nodiscard]] double messages_per_offered() const {
    return offered_calls == 0
               ? 0.0
               : static_cast<double>(total_messages) /
                     static_cast<double>(offered_calls);
  }
};

/// Runs `scheme` under the given load profile for config.duration (plus
/// drain time) and aggregates records after config.warmup. When `trace`
/// is non-null every structured event (call lifecycle, protocol search
/// decisions, fault-layer drops/pauses) is appended to it, ending with a
/// kRunEnd summary event (a = quiescent flag, b = calls still open).
[[nodiscard]] RunResult run_profile(const ScenarioConfig& config, Scheme scheme,
                                    const traffic::LoadProfile& profile,
                                    sim::TraceRecorder* trace = nullptr);

/// Uniform Poisson load of `rho` Erlang per cell (normalized to |PR|).
[[nodiscard]] RunResult run_uniform(const ScenarioConfig& config, Scheme scheme,
                                    double rho,
                                    sim::TraceRecorder* trace = nullptr);

/// Hot-spot scenario: uniform base load `rho_base` with the central cell(s)
/// at `hot_factor` times the base rate inside [hot_start, hot_end].
[[nodiscard]] RunResult run_hotspot(const ScenarioConfig& config, Scheme scheme,
                                    double rho_base, double hot_factor,
                                    sim::SimTime hot_start, sim::SimTime hot_end,
                                    std::vector<cell::CellId> hot_cells = {},
                                    sim::TraceRecorder* trace = nullptr);

/// Multi-seed replication of one experiment point: summary statistics of
/// the headline metrics over independent seeds. The confidence the paper's
/// style of single-run tables lacks.
struct Replicated {
  metrics::Summary drop_rate;           // per-seed drop rates
  metrics::Summary mean_delay_in_T;     // per-seed mean acquisition times
  metrics::Summary mean_msgs_per_call;  // per-seed mean attributed messages
  metrics::Summary xi1;                 // per-seed local fractions
  std::uint64_t violations = 0;         // summed over seeds (must be 0)
  int seeds = 0;
};

/// Runs `n_seeds` independent replications (seeds derived from
/// config.seed) of a uniform-load point.
[[nodiscard]] Replicated run_replicated(const ScenarioConfig& config, Scheme scheme,
                                        double rho, int n_seeds);

}  // namespace dca::runner
