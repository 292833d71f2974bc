// Poisson call arrivals, planned before the run.
//
// One independent arrival process per cell, each on its own RNG substream
// (so adding a cell or changing one cell's profile never perturbs another
// cell's arrival trajectory): cell c draws candidate instants from
// substream (seed, c) and holding times from (seed, c + n_cells).
// Time-varying profiles are sampled exactly via Lewis–Shedler thinning
// against the profile's per-cell rate ceiling. Holding times are
// exponential with the configured mean, at least 1 us.
//
// Nothing else draws from these streams, so the whole schedule is a pure
// function of (profile, seed, horizon) and is computed once, up front;
// the streams themselves are dropped. Call ids are the 1-based ranks of
// the accepted arrivals in (arrival, cell) order — the canonical order the
// engine executes them in. The engine pops each cell's chain as it fires,
// so the plan's memory returns to the allocator while the run's records
// grow.
#pragma once

#include <cstdint>
#include <deque>
#include <vector>

#include "sim/types.hpp"
#include "traffic/call.hpp"
#include "traffic/profile.hpp"

namespace dca::traffic {

/// One candidate arrival of a cell's thinning chain.
struct Candidate {
  sim::SimTime t = 0;        // candidate instant
  sim::Duration holding = 0; // requested holding time (accepted only)
  CallId id = 0;             // 0: thinned away
};

struct ArrivalPlan {
  /// Every candidate instant in [0, horizon), per cell, in time order.
  std::vector<std::deque<Candidate>> by_cell;
  /// Accepted candidates (ids run 1..calls).
  std::uint64_t calls = 0;
};

[[nodiscard]] ArrivalPlan plan_arrivals(int n_cells, const LoadProfile& profile,
                                        double mean_holding_s,
                                        std::uint64_t seed,
                                        sim::SimTime horizon);

}  // namespace dca::traffic
