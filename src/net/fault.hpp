// Deterministic fault-injection model for the MSS control network.
//
// Four fault classes, all driven by RngStreams derived from (seed, link)
// so a fault schedule is a pure function of the scenario seed — replays
// are bit-identical and independent of host thread count:
//
//   * drop_prob   — each frame is lost with this probability
//   * dup_prob    — each delivered frame is delivered twice
//   * jitter      — extra uniform [0, jitter] delay per frame, widening
//                   the physical reorder window beyond the latency model
//   * pauses      — whole-MSS stalls (Poisson arrivals, exponential
//                   lengths) during which the allocator process sees no
//                   messages; the NIC stays alive, so transport ACKs
//                   still flow and delivery resumes in order
//
// When any link fault is active the transport (net/transport.hpp) runs a
// reliable sublayer (per-link sequence numbers, cumulative ACKs, retransmission
// with backoff, receive-side resequencing) so the protocols keep their
// required per-link FIFO, exactly-once delivery — but with unbounded,
// fault-dependent latencies that exercise every timeout path. With the
// config all-zero the fault machinery is bypassed entirely and the
// network behaves bit-identically to the fault-free build.
#pragma once

#include <cstdint>
#include <vector>

#include "cell/grid.hpp"
#include "sim/types.hpp"

namespace dca::net {

/// One scheduled network partition: during [start, end) every link with
/// exactly one endpoint inside `cells` is severed in both directions (the
/// cut isolates the group from the rest of the region; links internal to
/// the group keep working). Severed frames are silently lost; the
/// reliable transport's RTO keeps resending, so traffic flows again the
/// instant the partition heals — nothing (including handoffs) is lost,
/// only delayed.
struct PartitionSpec {
  std::vector<cell::CellId> cells;  // the isolated group
  sim::SimTime start = 0;           // sever instant (inclusive)
  sim::SimTime end = 0;             // heal instant (exclusive)

  friend bool operator==(const PartitionSpec&, const PartitionSpec&) = default;
};

struct FaultConfig {
  /// Probability a frame (data or ack) is silently dropped in flight.
  double drop_prob = 0.0;
  /// Probability a frame that survives is delivered a second time.
  double dup_prob = 0.0;
  /// Extra per-frame delay, uniform in [0, jitter] (microseconds).
  sim::Duration jitter = 0;
  /// Whole-MSS pause events per minute per cell (Poisson rate).
  double pause_rate_per_min = 0.0;
  /// Mean pause length in seconds (exponential).
  double pause_mean_s = 0.0;
  /// MSS crash events per minute per cell (Poisson rate). A crash tears
  /// down the cell's live calls, wipes its allocator's volatile state, and
  /// keeps it off the air for an exponential outage; on restart the node
  /// runs a resync round before re-admitting traffic.
  double crash_rate_per_min = 0.0;
  /// Mean crash outage length in seconds (exponential).
  double crash_mean_s = 0.0;
  /// Scheduled network partitions (explicit, not rate-driven: a partition
  /// pattern is part of the scenario, like the load profile).
  std::vector<PartitionSpec> partitions;

  /// Any per-frame fault active (engages the reliable transport).
  /// Partitions count: severed frames are losses, and the transport's
  /// retransmission is what guarantees delivery after the heal.
  [[nodiscard]] bool link_faults() const noexcept {
    return drop_prob > 0.0 || dup_prob > 0.0 || jitter > 0 ||
           !partitions.empty();
  }
  /// Pause/resume timeline active.
  [[nodiscard]] bool pauses() const noexcept {
    return pause_rate_per_min > 0.0 && pause_mean_s > 0.0;
  }
  /// Crash/restart timeline active.
  [[nodiscard]] bool crashes() const noexcept {
    return crash_rate_per_min > 0.0 && crash_mean_s > 0.0;
  }
  [[nodiscard]] bool has_partitions() const noexcept {
    return !partitions.empty();
  }
  [[nodiscard]] bool enabled() const noexcept {
    return link_faults() || pauses() || crashes();
  }
};

/// Answers "is this directed link severed at time t?" against the
/// scenario's partition list. The transport consults this pure function
/// at its sender-side draw sites, so the fault schedule — and the
/// RNG draw sequence after it — stays bit-identical across shard counts.
class PartitionTimeline {
 public:
  PartitionTimeline() = default;
  explicit PartitionTimeline(const std::vector<PartitionSpec>& specs, int n_cells)
      : specs_(&specs), inside_(specs.size()) {
    for (std::size_t i = 0; i < specs.size(); ++i) {
      inside_[i].assign(static_cast<std::size_t>(n_cells), 0);
      for (const cell::CellId c : specs[i].cells) {
        inside_[i][static_cast<std::size_t>(c)] = 1;
      }
    }
  }

  [[nodiscard]] bool severed(cell::CellId from, cell::CellId to,
                             sim::SimTime t) const {
    if (specs_ == nullptr) return false;
    for (std::size_t i = 0; i < specs_->size(); ++i) {
      const PartitionSpec& p = (*specs_)[i];
      if (t < p.start || t >= p.end) continue;
      // Severed iff the link crosses the cut.
      if (inside_[i][static_cast<std::size_t>(from)] !=
          inside_[i][static_cast<std::size_t>(to)]) {
        return true;
      }
    }
    return false;
  }

 private:
  const std::vector<PartitionSpec>* specs_ = nullptr;
  std::vector<std::vector<std::uint8_t>> inside_;  // membership, per spec
};

/// Transport-layer frame counters (kept apart from the protocol message
/// counters: the paper's message-complexity metric must not change when a
/// lossy link forces retransmissions).
struct TransportStats {
  std::uint64_t frames_dropped = 0;
  std::uint64_t frames_duplicated = 0;
  std::uint64_t retransmissions = 0;
  std::uint64_t acks_sent = 0;

  friend bool operator==(const TransportStats&, const TransportStats&) = default;
};

}  // namespace dca::net
