// Availability accounting for the crash-recovery fault model.
//
// A cell is *unavailable* from the instant its MSS crashes until its
// post-restart resync round completes: the outage itself (crash -> restart)
// plus the resynchronization window (restart -> kResyncDone), during which
// the node answers peers but admits no new traffic. The engine fills one
// Availability per shard and sums them (every field is a plain sum, the
// max a plain max, so the merge is associative).
#pragma once

#include <cstdint>

#include "sim/types.hpp"

namespace dca::metrics {

struct Availability {
  std::uint64_t crashes = 0;            // crash events observed
  std::uint64_t resyncs = 0;            // completed resync rounds
  std::uint64_t down_us = 0;            // Σ crash -> restart outage time
  std::uint64_t resync_us = 0;          // Σ restart -> resync-done time
  std::uint64_t resync_rounds = 0;      // Σ request waves over all resyncs
  std::uint64_t max_resync_rounds = 0;  // worst single resync, in waves

  void merge(const Availability& o) {
    crashes += o.crashes;
    resyncs += o.resyncs;
    down_us += o.down_us;
    resync_us += o.resync_us;
    resync_rounds += o.resync_rounds;
    if (o.max_resync_rounds > max_resync_rounds) {
      max_resync_rounds = o.max_resync_rounds;
    }
  }

  /// Fraction of total cell-time the system was available (1.0 when no
  /// crashes were configured). Resync time counts as unavailable.
  [[nodiscard]] double uptime_fraction(sim::SimTime duration,
                                       int n_cells) const {
    const double total =
        static_cast<double>(duration) * static_cast<double>(n_cells);
    if (total <= 0.0) return 1.0;
    const double unavailable =
        static_cast<double>(down_us) + static_cast<double>(resync_us);
    const double up = 1.0 - unavailable / total;
    return up < 0.0 ? 0.0 : up;
  }

  /// Mean restart -> resync-done latency in seconds (0 when no resyncs).
  [[nodiscard]] double mean_time_to_resync_s() const {
    if (resyncs == 0) return 0.0;
    return sim::to_seconds(static_cast<sim::Duration>(resync_us)) /
           static_cast<double>(resyncs);
  }

  friend bool operator==(const Availability&, const Availability&) = default;
};

}  // namespace dca::metrics
