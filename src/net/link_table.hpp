// Dense link identifiers and near-contiguous sequence buffers for the
// transport hot path.
//
// Every message the protocol layer sends travels a directed (from, to)
// pair inside an interference neighbourhood: nodes talk only to IN(c)
// (send_to_interference) or reply to a message's sender, and interference
// is symmetric, so the full universe of grid links is known the moment the
// grid is. LinkTable enumerates that universe once — LinkId L(c -> d) for
// every d in IN(c), assigned in (from ascending, to ascending) order so
// ids are a pure function of the grid — and answers id(from, to) with two
// array loads and a bounded scan of one interference row. All per-link
// transport state (FIFO clocks, reliable-transport tx/rx, fault RNG
// streams, latency overrides) then lives in flat vectors indexed by
// LinkId instead of std::map/std::unordered_map keyed by the pair.
//
// SeqRing replaces the std::map<uint64_t, T> retransmit / reorder buffers.
// Sequence numbers on a link are near-contiguous (the tx window is a dense
// prefix [lowest_unacked, next_seq); the rx reorder buffer holds a handful
// of out-of-order frames near next_expected), so a power-of-two ring
// indexed by seq & mask with the owning seq stored in the slot gives O(1)
// insert/find/erase with no tree walk and no per-frame allocation once
// warm. Iteration order never escapes to simulation results — every
// traversal the transport does is by explicit ascending seq.
#pragma once

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <utility>
#include <vector>

#include "cell/grid.hpp"

namespace dca::net {

/// Dense id of a directed interference link. Valid ids are
/// 0..n_links()-1; kNoLink means "not an interference pair".
using LinkId = std::int32_t;
inline constexpr LinkId kNoLink = -1;

/// Immutable directed-link enumeration for one grid. Read-only after
/// construction, so one instance is safely shared across shard threads.
class LinkTable {
 public:
  LinkTable() = default;

  explicit LinkTable(const cell::HexGrid& grid) {
    const auto n = static_cast<std::size_t>(grid.n_cells());
    rows_.resize(n);
    LinkId next = 0;
    for (std::size_t c = 0; c < n; ++c) {
      const auto in = grid.interference(static_cast<cell::CellId>(c));
      Row& row = rows_[c];
      row.base = next;
      row.lo = in.empty() ? 0 : in.front();
      row.hi = in.empty() ? -1 : in.back();
      row.offset = static_cast<std::int32_t>(slots_.size());
      // Per-source lookup strip over [lo, hi]: dense ids for interference
      // partners, kNoLink holes elsewhere. Interference rows are compact
      // (radius-bounded), so the strips stay small.
      const auto width = static_cast<std::size_t>(row.hi - row.lo + 1);
      slots_.resize(slots_.size() + width, kNoLink);
      for (const cell::CellId d : in) {
        slots_[static_cast<std::size_t>(row.offset + (d - row.lo))] = next;
        ends_.push_back({static_cast<cell::CellId>(c), d});
        ++next;
      }
    }
    n_links_ = next;
  }

  /// Number of enumerated directed links (0 for a default-constructed table).
  [[nodiscard]] LinkId n_links() const noexcept { return n_links_; }

  [[nodiscard]] bool empty() const noexcept { return n_links_ == 0; }

  /// LinkId of from -> to, or kNoLink when the pair is not an interference
  /// link of the grid (or no grid was supplied). O(1): row lookup + strip
  /// index.
  [[nodiscard]] LinkId id(cell::CellId from, cell::CellId to) const noexcept {
    if (static_cast<std::size_t>(from) >= rows_.size()) return kNoLink;
    const Row& row = rows_[static_cast<std::size_t>(from)];
    if (to < row.lo || to > row.hi) return kNoLink;
    return slots_[static_cast<std::size_t>(row.offset + (to - row.lo))];
  }

  /// As id(), but aborts on a non-interference pair. The transport uses
  /// this: every protocol send is within an interference
  /// neighbourhood, so a miss is a logic bug, not a runtime condition.
  [[nodiscard]] LinkId require(cell::CellId from, cell::CellId to) const noexcept {
    const LinkId lid = id(from, to);
    if (lid == kNoLink) {
      std::fprintf(stderr,
                   "LinkTable: no interference link %d -> %d (protocol sends "
                   "must stay within the interference neighbourhood)\n",
                   from, to);
      std::abort();
    }
    return lid;
  }

  /// Endpoints of a link, inverse of id().
  [[nodiscard]] std::pair<cell::CellId, cell::CellId> endpoints(LinkId lid) const {
    return ends_[static_cast<std::size_t>(lid)];
  }

 private:
  struct Row {
    cell::CellId lo = 0;         // smallest interference partner id
    cell::CellId hi = -1;        // largest interference partner id
    std::int32_t offset = 0;     // start of this row's strip in slots_
    LinkId base = 0;             // first LinkId of this source (unused holes aside)
  };

  std::vector<Row> rows_;                                  // by source cell
  std::vector<LinkId> slots_;                              // row strips, kNoLink holes
  std::vector<std::pair<cell::CellId, cell::CellId>> ends_;  // by LinkId
  LinkId n_links_ = 0;
};

/// Sparse ring buffer keyed by 64-bit sequence number, for per-link
/// retransmit windows and reorder buffers. Capacity is a power of two;
/// entry seq s lives at slot s & mask with s stored alongside (seq 0 is
/// the empty sentinel — transport sequence numbers start at 1). When two
/// live seqs would collide (window wider than the ring) the ring doubles
/// and re-places its survivors, so correctness never depends on the
/// initial size.
template <typename T>
class SeqRing {
 public:
  SeqRing() = default;

  [[nodiscard]] bool empty() const noexcept { return size_ == 0; }
  [[nodiscard]] std::size_t size() const noexcept { return size_; }

  /// Pointer to the entry for seq, or nullptr when absent.
  [[nodiscard]] T* find(std::uint64_t seq) noexcept {
    if (slots_.empty()) return nullptr;
    Slot& s = slots_[static_cast<std::size_t>(seq) & mask_];
    return s.seq == seq ? &s.value : nullptr;
  }

  [[nodiscard]] bool contains(std::uint64_t seq) const noexcept {
    if (slots_.empty()) return false;
    return slots_[static_cast<std::size_t>(seq) & mask_].seq == seq;
  }

  /// Inserts a default slot for seq (growing past collisions) and returns
  /// its value. seq must not already be present.
  T& insert(std::uint64_t seq) {
    if (slots_.empty()) reserve_pow2(kInitialCapacity);
    while (slots_[static_cast<std::size_t>(seq) & mask_].seq != 0) {
      grow();
    }
    Slot& s = slots_[static_cast<std::size_t>(seq) & mask_];
    s.seq = seq;
    ++size_;
    return s.value;
  }

  /// Removes seq if present; returns whether it was.
  bool erase(std::uint64_t seq) noexcept {
    if (slots_.empty()) return false;
    Slot& s = slots_[static_cast<std::size_t>(seq) & mask_];
    if (s.seq != seq) return false;
    s.seq = 0;
    s.value = T{};
    --size_;
    return true;
  }

 private:
  static constexpr std::size_t kInitialCapacity = 16;

  struct Slot {
    std::uint64_t seq = 0;  // 0 = empty
    T value{};
  };

  void reserve_pow2(std::size_t cap) {
    slots_.assign(cap, Slot{});
    mask_ = cap - 1;
  }

  void grow() {
    std::vector<Slot> old = std::move(slots_);
    reserve_pow2((mask_ + 1) * 2);
    for (Slot& s : old) {
      if (s.seq != 0) {
        // Doubling can still collide if live seqs share low bits; keep
        // doubling until every survivor has a home.
        while (slots_[static_cast<std::size_t>(s.seq) & mask_].seq != 0) {
          std::vector<Slot> again = std::move(slots_);
          reserve_pow2((mask_ + 1) * 2);
          for (Slot& r : again) {
            if (r.seq != 0) slots_[static_cast<std::size_t>(r.seq) & mask_] = std::move(r);
          }
        }
        slots_[static_cast<std::size_t>(s.seq) & mask_] = std::move(s);
      }
    }
  }

  std::vector<Slot> slots_;
  std::size_t mask_ = 0;
  std::size_t size_ = 0;
};

}  // namespace dca::net
