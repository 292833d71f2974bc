// One-way message latency models.
//
// The paper's analysis is parameterized by T, the maximum time to
// communicate with another node in the interference region; 2T is the
// round-trip used by the mode predictor. The latency model supplies a
// per-message delay and reports its bound T.
//
// Models:
//  * FixedLatency    — every message takes exactly T (the paper's setting).
//  * JitterLatency   — uniform in [lo, hi]; hi is reported as T.
//  * MatrixLatency   — a default delay plus per-(src,dst) overrides. Used
//    by the Fig. 11 reproduction, where message overtaking between paths
//    must be engineered deterministically.
//
// All models preserve per-link FIFO when their delay is deterministic per
// link; JitterLatency can reorder messages on a link, which the protocols
// must (and do) tolerate.
#pragma once

#include <algorithm>
#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <utility>

#include "cell/grid.hpp"
#include "net/link_table.hpp"
#include "sim/random.hpp"
#include "sim/types.hpp"

namespace dca::net {

class LatencyModel {
 public:
  virtual ~LatencyModel() = default;

  /// Delay for one message from `from` to `to`.
  virtual sim::Duration delay(cell::CellId from, cell::CellId to) = 0;

  /// Invoked once by the transport with its LinkTable, letting a model
  /// flatten per-pair state onto LinkIds (MatrixLatency does). Default:
  /// nothing to flatten.
  virtual void bind_links(const LinkTable& links) { (void)links; }

  /// Delay for one message on a link of the bound table (the transport's
  /// path); delay(from, to) answers callers without a table. Default
  /// forwards to delay() so models keep exact draw-for-draw behavior.
  virtual sim::Duration link_delay(LinkId lid, cell::CellId from,
                                   cell::CellId to) {
    (void)lid;
    return delay(from, to);
  }

  /// Upper bound T on one-way latency (the paper's T).
  [[nodiscard]] virtual sim::Duration max_one_way() const = 0;

  /// Lower bound on one-way latency — the latency *floor*. The sharded
  /// engine uses this as its conservative lookahead: no message can cross
  /// shards in less simulated time. Defaults to the upper bound, which is
  /// always a valid (if pessimistic) floor for deterministic models.
  [[nodiscard]] virtual sim::Duration min_one_way() const {
    return max_one_way();
  }

  /// Lower bound on the delay of one specific directed link. The sharded
  /// engine's conservative lookahead is the minimum floor over the links
  /// that actually cross shards, which can beat the global min_one_way()
  /// when only fast links stay shard-internal. Must be callable before
  /// bind_links(). Defaults to the global floor.
  [[nodiscard]] virtual sim::Duration link_floor(LinkId lid,
                                                 cell::CellId from,
                                                 cell::CellId to) const {
    (void)lid;
    (void)from;
    (void)to;
    return min_one_way();
  }
};

class FixedLatency final : public LatencyModel {
 public:
  explicit FixedLatency(sim::Duration t) : t_(t) {}
  sim::Duration delay(cell::CellId, cell::CellId) override { return t_; }
  sim::Duration link_delay(LinkId, cell::CellId, cell::CellId) override {
    return t_;  // skip the second virtual hop on the hot path
  }
  [[nodiscard]] sim::Duration max_one_way() const override { return t_; }
  [[nodiscard]] sim::Duration min_one_way() const override { return t_; }
  [[nodiscard]] sim::Duration link_floor(LinkId, cell::CellId,
                                         cell::CellId) const override {
    return t_;
  }

 private:
  sim::Duration t_;
};

class JitterLatency final : public LatencyModel {
 public:
  JitterLatency(sim::Duration lo, sim::Duration hi, sim::RngStream rng)
      : lo_(lo), hi_(std::max(lo, hi)), rng_(std::move(rng)) {}

  sim::Duration delay(cell::CellId, cell::CellId) override {
    return rng_.uniform_int(lo_, hi_);
  }
  sim::Duration link_delay(LinkId, cell::CellId, cell::CellId) override {
    return rng_.uniform_int(lo_, hi_);  // same draw sequence as delay()
  }
  [[nodiscard]] sim::Duration max_one_way() const override { return hi_; }
  [[nodiscard]] sim::Duration min_one_way() const override { return lo_; }
  [[nodiscard]] sim::Duration link_floor(LinkId, cell::CellId,
                                         cell::CellId) const override {
    return lo_;
  }

 private:
  sim::Duration lo_;
  sim::Duration hi_;
  sim::RngStream rng_;
};

/// Uniform jitter in [lo, hi] drawn from an independent RNG stream per
/// directed link, derived purely from (seed, from, to). Unlike
/// JitterLatency's single shared stream, the draw a message sees depends
/// only on its link and its position in that link's send sequence — which
/// canonical at every shard count, so every run of a scenario sees the
/// same delays message-for-message.
class LinkJitterLatency final : public LatencyModel {
 public:
  LinkJitterLatency(sim::Duration lo, sim::Duration hi, std::uint64_t seed)
      : lo_(lo), hi_(std::max(lo, hi)), seed_(seed) {}

  sim::Duration delay(cell::CellId from, cell::CellId to) override {
    return stream(kNoLink, from, to).uniform_int(lo_, hi_);
  }

  /// Flattens stream storage onto LinkIds so the per-message lookup is an
  /// array load; delay() without a table falls back to a map.
  void bind_links(const LinkTable& links) override {
    flat_.clear();
    flat_.resize(static_cast<std::size_t>(links.n_links()));
  }

  sim::Duration link_delay(LinkId lid, cell::CellId from,
                           cell::CellId to) override {
    return stream(lid, from, to).uniform_int(lo_, hi_);
  }

  [[nodiscard]] sim::Duration max_one_way() const override { return hi_; }
  [[nodiscard]] sim::Duration min_one_way() const override { return lo_; }
  [[nodiscard]] sim::Duration link_floor(LinkId, cell::CellId,
                                         cell::CellId) const override {
    return lo_;
  }

 private:
  sim::RngStream& stream(LinkId lid, cell::CellId from, cell::CellId to) {
    if (lid >= 0 && static_cast<std::size_t>(lid) < flat_.size()) {
      auto& slot = flat_[static_cast<std::size_t>(lid)];
      if (slot == nullptr) {
        slot = std::make_unique<sim::RngStream>(make_stream(from, to));
      }
      return *slot;
    }
    auto it = extra_.find({from, to});
    if (it == extra_.end()) {
      it = extra_.emplace(std::make_pair(from, to), make_stream(from, to))
               .first;
    }
    return it->second;
  }

  [[nodiscard]] sim::RngStream make_stream(cell::CellId from,
                                           cell::CellId to) const {
    // Distinct tag from the per-link fault streams (0xFA017) so jitter and
    // fault draws never correlate.
    const std::uint64_t label =
        (static_cast<std::uint64_t>(static_cast<std::uint32_t>(from)) << 32) |
        static_cast<std::uint32_t>(to);
    return sim::RngStream::derive(seed_ ^ 0x9177e5ull, label);
  }

  sim::Duration lo_;
  sim::Duration hi_;
  std::uint64_t seed_;
  std::vector<std::unique_ptr<sim::RngStream>> flat_;  // by LinkId once bound
  std::map<std::pair<cell::CellId, cell::CellId>, sim::RngStream> extra_;
};

class MatrixLatency final : public LatencyModel {
 public:
  explicit MatrixLatency(sim::Duration default_delay) : default_(default_delay) {}

  /// Overrides the delay of the directed link from -> to.
  void set(cell::CellId from, cell::CellId to, sim::Duration d) {
    overrides_[{from, to}] = d;
    max_ = std::max(max_, d);
    min_ = std::min(min_, d);
    if (bound_ != nullptr) {
      const LinkId lid = bound_->id(from, to);
      if (lid != kNoLink) flat_[static_cast<std::size_t>(lid)] = d;
    }
  }

  sim::Duration delay(cell::CellId from, cell::CellId to) override {
    const auto it = overrides_.find({from, to});
    return it == overrides_.end() ? default_ : it->second;
  }

  /// Flattens the override map onto LinkIds so the per-message lookup is
  /// one array load instead of a tree walk.
  void bind_links(const LinkTable& links) override {
    bound_ = &links;
    flat_.assign(static_cast<std::size_t>(links.n_links()), default_);
    for (const auto& [key, d] : overrides_) {
      const LinkId lid = links.id(key.first, key.second);
      if (lid != kNoLink) flat_[static_cast<std::size_t>(lid)] = d;
    }
  }

  sim::Duration link_delay(LinkId lid, cell::CellId from,
                           cell::CellId to) override {
    if (lid >= 0 && static_cast<std::size_t>(lid) < flat_.size()) {
      return flat_[static_cast<std::size_t>(lid)];
    }
    return delay(from, to);  // not bound to a table
  }

  [[nodiscard]] sim::Duration max_one_way() const override {
    return std::max(default_, max_);
  }
  [[nodiscard]] sim::Duration min_one_way() const override {
    return std::min(default_, min_);
  }
  [[nodiscard]] sim::Duration link_floor(LinkId, cell::CellId from,
                                         cell::CellId to) const override {
    const auto it = overrides_.find({from, to});
    return it == overrides_.end() ? default_ : it->second;
  }

 private:
  sim::Duration default_;
  sim::Duration max_ = 0;
  sim::Duration min_ = std::numeric_limits<sim::Duration>::max();
  std::map<std::pair<cell::CellId, cell::CellId>, sim::Duration> overrides_;
  const LinkTable* bound_ = nullptr;
  std::vector<sim::Duration> flat_;  // by LinkId once bound
};

}  // namespace dca::net
