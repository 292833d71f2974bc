// Per-link one-way message latency.
//
// The paper's analysis is parameterized by T, the maximum time to
// communicate with another node in the interference region; 2T is the
// round trip the mode predictor uses. Latency gives every directed
// interference link a delay range [lo, hi]:
//  * by default lo = hi = T (the paper's setting);
//  * with jitter, lo = max(T - jitter, 1 us) and hi = T; each message draws
//    uniformly from its link's own stream, derived from (seed, from, to)
//    alone, so a message's delay depends only on its link and its place in
//    that link's send sequence — the same at every shard count;
//  * set(from, to, d) pins one link to [d, d]. The Fig. 11 reproduction
//    engineers message overtaking between paths this way.
//
// A link's lo is its floor: no message on it arrives sooner. The sharded
// kernel's lookahead rests on it, and the transport keeps each link FIFO
// by flooring a delivery at the link's previous one.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "cell/grid.hpp"
#include "net/link_table.hpp"
#include "sim/random.hpp"
#include "sim/types.hpp"

namespace dca::net {

/// One directed link pinned to a fixed delay (see Latency::set).
struct LinkDelay {
  cell::CellId from = cell::kNoCell;
  cell::CellId to = cell::kNoCell;
  sim::Duration delay = 0;
};

class Latency {
 public:
  /// Every link of `links` (which must outlive the table) gets [T, T], or
  /// [max(T - jitter, 1 us), T] when jitter > 0.
  Latency(const LinkTable& links, sim::Duration t, sim::Duration jitter,
          std::uint64_t seed)
      : links_(links) {
    const sim::Duration lo = jitter > 0 ? std::max<sim::Duration>(t - jitter, 1) : t;
    default_ = Range{lo, std::max(lo, t)};
    bounds_ = default_;
    // Streams only where a draw can happen. The tag differs from the
    // per-link fault streams' (0xFA017) so jitter and fault draws never
    // correlate.
    if (default_.lo < default_.hi) {
      streams_.reserve(n_links());
      for (LinkId lid = 0; lid < links_.n_links(); ++lid) {
        streams_.push_back(
            sim::RngStream::derive(seed ^ 0x9177e5ull, links_.stream_label(lid)));
      }
    }
  }

  /// Pins the interference link from -> to to [d, d]; aborts on a pair
  /// that is not one (LinkTable::require).
  void set(cell::CellId from, cell::CellId to, sim::Duration d) {
    const LinkId lid = links_.require(from, to);
    if (pinned_.empty()) pinned_.assign(n_links(), default_);
    pinned_[static_cast<std::size_t>(lid)] = Range{d, d};
    bounds_ = pinned_.front();
    for (const Range& r : pinned_) {
      bounds_.lo = std::min(bounds_.lo, r.lo);
      bounds_.hi = std::max(bounds_.hi, r.hi);
    }
  }

  /// Delay of one message on `lid`. Called only by the shard that owns
  /// the link's sender, so concurrent shards never share a stream.
  sim::Duration delay(LinkId lid) {
    const Range r = range(lid);
    if (r.lo == r.hi) return r.lo;
    return streams_[static_cast<std::size_t>(lid)].uniform_int(r.lo, r.hi);
  }

  /// The least delay a message on `lid` can take.
  [[nodiscard]] sim::Duration floor(LinkId lid) const { return range(lid).lo; }

  /// The paper's T: the largest delay any link can draw.
  [[nodiscard]] sim::Duration max_one_way() const { return bounds_.hi; }
  /// The least floor over all links.
  [[nodiscard]] sim::Duration min_one_way() const { return bounds_.lo; }

 private:
  struct Range {
    sim::Duration lo = 0;
    sim::Duration hi = 0;
  };

  [[nodiscard]] std::size_t n_links() const {
    return static_cast<std::size_t>(links_.n_links());
  }
  [[nodiscard]] Range range(LinkId lid) const {
    return pinned_.empty() ? default_ : pinned_[static_cast<std::size_t>(lid)];
  }

  const LinkTable& links_;
  Range default_;
  Range bounds_;               // least lo and greatest hi over all links
  std::vector<Range> pinned_;  // by LinkId, after the first set()
  std::vector<sim::RngStream> streams_;  // by LinkId, with jitter only
};

}  // namespace dca::net
