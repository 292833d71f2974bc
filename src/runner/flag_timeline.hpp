// Deferred neighbour-flag sampling.
//
// The paper's N_borrow / N_search statistics sample, at every request's
// close instant, how many interference neighbours are in borrowing /
// searching mode. Sampling that live is impossible across shards (a
// neighbour on another shard is mid-window, its state unreadable), and
// worse, a live sample is sensitive to *intra-instant execution order*.
//
// The engine therefore records a per-cell timeline of flag changes (one
// entry after each executed event that changed the cell's flags) and
// reconstructs the samples after the run with one convention:
// the close at (t, closer) observes neighbour j's flags *after* j's
// events at instant t when j < closer, and *before* them otherwise —
// i.e. flags as of the canonical (when, owner) event order, which is a
// pure function of the scenario. Timelines only need the final flag
// state per (cell, instant) to agree, and that is fixed by the (bit-
// identical) event streams, so the same counts come out for any
// shard/thread configuration.
//
// Storage: one 8-byte word per change — (t << 2) | borrowing << 1 |
// searching. A busy metro cell flips flags thousands of times over a
// long run; the packed form halves the old {SimTime, bool, bool} layout
// and, with prune_before(), the streaming engine keeps only the suffix
// future closes can still observe instead of the whole history.
#pragma once

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "cell/grid.hpp"
#include "metrics/collector.hpp"
#include "sim/types.hpp"

namespace dca::runner {

/// One (t, flags) step of a cell's is_borrowing/is_searching timeline,
/// packed into a single word: t in the high 62 bits, borrowing at bit 1,
/// searching at bit 0.
using PackedFlagChange = std::uint64_t;

class FlagTimelines {
 public:
  void reset(std::size_t n_cells) {
    cur_.assign(n_cells, 0);
    timelines_.assign(n_cells, {});
  }

  /// Records cell `c`'s flags after an event at instant `t`; appends a
  /// timeline entry only when they changed. Must be called with
  /// non-decreasing `t` per cell (execution order guarantees this).
  void observe(cell::CellId c, sim::SimTime t, bool borrowing, bool searching) {
    PackedFlagChange& cur = cur_[static_cast<std::size_t>(c)];
    const std::uint64_t flags = (static_cast<std::uint64_t>(borrowing) << 1) |
                                static_cast<std::uint64_t>(searching);
    if (flags == (cur & 3ull)) return;
    cur = (static_cast<std::uint64_t>(t) << 2) | flags;
    timelines_[static_cast<std::size_t>(c)].push_back(cur);
  }

  /// Flags of neighbour `j` as observed by a close event at (t, closer)
  /// in canonical order: j's instant-t changes are visible iff j < closer
  /// (cell is the first canonical tiebreak after time).
  [[nodiscard]] std::pair<bool, bool> flags_at(cell::CellId j, sim::SimTime t,
                                               cell::CellId closer) const {
    const sim::SimTime bound = j < closer ? t : t - 1;
    const auto& tl = timelines_[static_cast<std::size_t>(j)];
    auto it = std::upper_bound(
        tl.begin(), tl.end(), bound,
        [](sim::SimTime lhs, PackedFlagChange fc) {
          return lhs < static_cast<sim::SimTime>(fc >> 2);
        });
    if (it == tl.begin()) return {false, false};
    --it;
    return {((*it >> 1) & 1ull) != 0, (*it & 1ull) != 0};
  }

  /// Fills every record's neighbour samples from the timelines (legacy
  /// semantics: every interference neighbour is sampled at the close
  /// instant for acquired and blocked records alike; the self-searching
  /// term — acquisitions only — was already sampled live at close).
  void apply_neighbor_samples(const cell::HexGrid& grid,
                              std::vector<metrics::CallRecord>& records) const {
    for (metrics::CallRecord& rec : records) {
      for (const cell::CellId j : grid.interference(rec.cellId)) {
        const auto [b, s] = flags_at(j, rec.t_decision, rec.cellId);
        if (b) ++rec.borrowing_neighbors;
        if (s) ++rec.searching_neighbors;
      }
    }
  }

  /// Drops timeline entries no future query can observe: once every
  /// remaining record closes at t_decision >= frontier, the earliest
  /// bound ever queried is frontier - 1, which resolves to the LAST
  /// entry with t < frontier — keep that one, drop everything before it.
  void prune_before(sim::SimTime frontier) {
    for (auto& tl : timelines_) {
      auto it = std::upper_bound(
          tl.begin(), tl.end(), frontier - 1,
          [](sim::SimTime lhs, PackedFlagChange fc) {
            return lhs < static_cast<sim::SimTime>(fc >> 2);
          });
      if (it == tl.begin()) continue;
      tl.erase(tl.begin(), std::prev(it));
    }
  }

  /// Total retained entries across all cells (memory introspection).
  [[nodiscard]] std::size_t total_entries() const noexcept {
    std::size_t n = 0;
    for (const auto& tl : timelines_) n += tl.size();
    return n;
  }

 private:
  std::vector<PackedFlagChange> cur_;  // latest flags per cell
  std::vector<std::vector<PackedFlagChange>> timelines_;
};

}  // namespace dca::runner
