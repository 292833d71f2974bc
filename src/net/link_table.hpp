// Dense link identifiers and near-contiguous sequence buffers for the
// transport hot path.
//
// Every message the protocol layer sends travels a directed (from, to)
// pair inside an interference neighbourhood: nodes talk only to IN(c)
// (broadcast) or reply to a message's sender, and interference
// is symmetric, so the full universe of grid links is known the moment the
// grid is. LinkTable enumerates that universe once — LinkId L(c -> d) for
// every d in IN(c), assigned in (from ascending, to ascending) order so
// ids are a pure function of the grid and c's links form one contiguous
// row (a broadcast walks it) — and answers id(from, to) with two
// array loads: the source's row, then a lookup strip indexed by to - from
// that holds the partner's rank in the row. A strip depends only on the
// row's offsets {d - c}, which all cells away from the grid edges and
// seams share (one list per row parity), so each distinct offset list
// gets one strip and memory stays linear in the links. All per-link
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
//
// HandlePool keeps what those rings point at: each frame payload in
// flight sits once in a chunked pool and a ring slot holds its 32-bit
// handle, so a ring that doubles past a collision moves handles, not
// payloads. The runner keeps the messages' set payloads in HandlePools
// too, which the receiving shard reads in place.
#pragma once

#include <algorithm>
#include <atomic>
#include <cassert>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
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
    std::size_t n_ends = 0;
    for (cell::CellId c = 0; c < grid.n_cells(); ++c)
      n_ends += grid.interference(c).size();
    rows_.resize(n);
    ends_.reserve(n_ends);
    std::map<std::vector<std::int32_t>, std::int32_t> strip_of;  // offsets -> strip
    std::vector<std::int32_t> offsets;
    for (cell::CellId c = 0; c < grid.n_cells(); ++c) {
      const auto in = grid.interference(c);
      Row& row = rows_[static_cast<std::size_t>(c)];
      row.base = static_cast<LinkId>(ends_.size());
      offsets.clear();
      for (const cell::CellId d : in) {
        ends_.emplace_back(c, d);
        offsets.push_back(d - c);
      }
      if (in.empty()) continue;
      row.lo = offsets.front();
      row.width = offsets.back() - offsets.front() + 1;
      const auto [it, fresh] =
          strip_of.try_emplace(offsets, static_cast<std::int32_t>(ranks_.size()));
      row.strip = it->second;
      if (!fresh) continue;
      ranks_.resize(ranks_.size() + static_cast<std::size_t>(row.width), kNoRank);
      for (std::size_t k = 0; k < offsets.size(); ++k) {
        ranks_[static_cast<std::size_t>(row.strip + offsets[k] - row.lo)] =
            static_cast<std::int32_t>(k);
      }
    }
  }

  /// Number of enumerated directed links (0 for a default-constructed table).
  [[nodiscard]] LinkId n_links() const noexcept {
    return static_cast<LinkId>(ends_.size());
  }

  [[nodiscard]] bool empty() const noexcept { return ends_.empty(); }

  /// LinkId of from -> to, or kNoLink when the pair is not an interference
  /// link of the grid (or no grid was supplied). O(1): row lookup + strip
  /// index.
  [[nodiscard]] LinkId id(cell::CellId from, cell::CellId to) const noexcept {
    if (static_cast<std::size_t>(from) >= rows_.size()) return kNoLink;
    const Row& row = rows_[static_cast<std::size_t>(from)];
    const std::int64_t at = std::int64_t{to} - from - row.lo;
    if (at < 0 || at >= row.width) return kNoLink;
    const std::int32_t rank = ranks_[static_cast<std::size_t>(row.strip + at)];
    return rank == kNoRank ? kNoLink : row.base + rank;
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

  /// The links out of `from`, [first, last): LinkId first + k leads to
  /// the k-th cell of grid.interference(from).
  [[nodiscard]] std::pair<LinkId, LinkId> row(cell::CellId from) const {
    const auto c = static_cast<std::size_t>(from);
    return {rows_[c].base,
            c + 1 < rows_.size() ? rows_[c + 1].base : n_links()};
  }

  /// Endpoints of a link, inverse of id().
  [[nodiscard]] std::pair<cell::CellId, cell::CellId> endpoints(LinkId lid) const {
    return ends_[static_cast<std::size_t>(lid)];
  }

  /// (from << 32) | to: the label a link's random streams derive from, so
  /// a link's draws depend on its endpoints alone.
  [[nodiscard]] std::uint64_t stream_label(LinkId lid) const {
    const auto [from, to] = endpoints(lid);
    return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(from)) << 32) |
           static_cast<std::uint32_t>(to);
  }

 private:
  static constexpr std::int32_t kNoRank = -1;

  struct Row {
    std::int32_t lo = 0;      // smallest partner offset d - c
    std::int32_t width = 0;   // strip length: largest offset - lo + 1
    std::int32_t strip = 0;   // start of this row's strip in ranks_
    LinkId base = 0;          // first LinkId of this source
  };

  std::vector<Row> rows_;            // by source cell
  std::vector<std::int32_t> ranks_;  // shared strips: partner rank, or kNoRank
  std::vector<std::pair<cell::CellId, cell::CellId>> ends_;  // by LinkId
};

/// Sparse ring buffer keyed by 64-bit sequence number, for per-link
/// retransmit windows and reorder buffers. Capacity is a power of two;
/// entry seq s lives at slot s & mask with s stored alongside (seq 0 is
/// the empty sentinel — transport sequence numbers start at 1). When two
/// live seqs would collide (window wider than the ring) the ring doubles
/// and re-places its survivors, so correctness never depends on the
/// initial size; shrink_to_span() halves it again once the window has
/// narrowed.
template <typename T>
class SeqRing {
 public:
  /// The capacity of a ring's first slot array, and the floor
  /// shrink_to_span() never goes below.
  static constexpr std::size_t kMinCapacity = 16;

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
    if (slots_.empty()) reserve_pow2(kMinCapacity);
    while (slots_[static_cast<std::size_t>(seq) & mask_].seq != 0) {
      grow();
    }
    Slot& s = slots_[static_cast<std::size_t>(seq) & mask_];
    s.seq = seq;
    ++size_;
    if (seq > hi_) hi_ = seq;
    return s.value;
  }

  /// Slots of the ring (0 before the first insert).
  [[nodiscard]] std::size_t capacity() const noexcept { return slots_.size(); }

  /// Heap bytes of the slot array.
  [[nodiscard]] std::size_t bytes() const noexcept {
    return slots_.capacity() * sizeof(Slot);
  }

  /// Halves the ring, down to kMinCapacity slots, while its live span —
  /// from `lo`, which must not exceed the lowest live seq, to the highest
  /// seq ever inserted — is at most a quarter of the capacity. A window
  /// that widened past the ring (a partition holds every frame until the
  /// heal) thus gives the memory back once it drains, and the factor of
  /// two between the shrink and the grow thresholds keeps a window near
  /// one size from flapping. Survivors keep their values; none collide,
  /// since they span less than the new capacity.
  void shrink_to_span(std::uint64_t lo) {
    std::size_t cap = slots_.size();
    const std::uint64_t span = size_ == 0 ? 0 : hi_ - lo + 1;
    if (cap <= kMinCapacity || span * 4 > cap) return;
    while (cap > kMinCapacity && span * 4 <= cap) cap /= 2;
    std::vector<Slot> old = std::move(slots_);
    reserve_pow2(cap);
    for (Slot& s : old) {
      if (s.seq == 0) continue;
      Slot& home = slots_[static_cast<std::size_t>(s.seq) & mask_];
      assert(home.seq == 0 && "shrink_to_span: `lo` above a live seq");
      home = std::move(s);
    }
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
  std::uint64_t hi_ = 0;  // highest seq ever inserted
};

/// Chunked, free-listed store of values behind 32-bit handles, after
/// sim::EventSlab. Chunks of 256 slots are added only when every slot is
/// live and never move or shrink, so a value stays in place from put() to
/// release() and capacity exceeds the peak occupancy by less than one
/// chunk. Freed slots go on an intrusive free list and are reused first.
/// Handle values never reach simulation results.
///
/// put(), take() and release() belong to the pool's owner (one shard).
/// operator[] may run on another thread while the owner keeps putting,
/// provided the put of that handle happens-before the read (the kernel's
/// window barrier orders every cross-shard delivery after its send): the
/// chunk index such a reader walks is never reallocated in place — a full
/// index is copied into one twice its size, published, and kept alive.
template <typename T>
class HandlePool {
 public:
  using Handle = std::uint32_t;

  HandlePool() = default;
  HandlePool(const HandlePool&) = delete;
  HandlePool& operator=(const HandlePool&) = delete;

  /// Stores `value` in a free slot (growing by one chunk if none).
  template <typename U>
  Handle put(U&& value) {
    if (free_head_ == kNil) grow();
    const Handle h = free_head_;
    Node& n = node(h);
    free_head_ = n.next_free;
    n.next_free = kLive;
    n.value = std::forward<U>(value);
    if (++live_ > high_water_) high_water_ = live_;
    return h;
  }

  [[nodiscard]] const T& operator[](Handle h) const noexcept {
    assert(node(h).next_free == kLive && "stale payload handle");
    return node(h).value;
  }

  /// Moves the value out and frees its slot.
  T take(Handle h) {
    T v = std::move(node(h).value);
    release(h);
    return v;
  }

  /// Frees a live slot, dropping whatever its value owns.
  void release(Handle h) noexcept {
    Node& n = node(h);
    assert(n.next_free == kLive && "releasing a free payload slot");
    n.value = T{};
    n.next_free = free_head_;
    free_head_ = h;
    --live_;
  }

  [[nodiscard]] std::size_t live() const noexcept { return live_; }
  /// Most slots ever live at once.
  [[nodiscard]] std::size_t high_water() const noexcept { return high_water_; }
  /// Heap bytes of the chunks and their indexes.
  [[nodiscard]] std::size_t bytes() const noexcept {
    std::size_t index_slots = 0;
    for (std::size_t cap = kFirstIndex; cap <= index_cap_; cap *= 2) {
      index_slots += cap;
    }
    return chunks_.size() * kChunkSlots * sizeof(Node) +
           chunks_.capacity() * sizeof(chunks_[0]) +
           indexes_.capacity() * sizeof(indexes_[0]) +
           index_slots * sizeof(Node*);
  }

 private:
  static constexpr Handle kNil = 0xFFFFFFFFu;
  static constexpr Handle kLive = 0xFFFFFFFEu;
  static constexpr Handle kChunkShift = 8;  // 256 slots per chunk
  static constexpr Handle kChunkSlots = 1u << kChunkShift;
  static constexpr std::size_t kFirstIndex = 8;  // chunk pointers

  struct Node {
    T value{};
    Handle next_free = kNil;
  };

  [[nodiscard]] Node& node(Handle h) const noexcept {
    return index_.load()[h >> kChunkShift][h & (kChunkSlots - 1)];
  }

  void grow() {
    const std::size_t k = chunks_.size();
    if (k == index_cap_) {
      const std::size_t cap = index_cap_ == 0 ? kFirstIndex : index_cap_ * 2;
      auto bigger = std::make_unique<Node*[]>(cap);
      if (k != 0) std::copy_n(indexes_.back().get(), k, bigger.get());
      indexes_.push_back(std::move(bigger));
      index_cap_ = cap;
      index_.store(indexes_.back().get());
    }
    chunks_.push_back(std::make_unique<Node[]>(kChunkSlots));
    indexes_.back()[k] = chunks_.back().get();
    // Thread the new chunk onto the free list so slots hand out in
    // ascending order.
    const auto base = static_cast<Handle>(k) << kChunkShift;
    for (Handle i = kChunkSlots; i-- > 0;) {
      chunks_.back()[i].next_free = free_head_;
      free_head_ = base + i;
    }
  }

  std::vector<std::unique_ptr<Node[]>> chunks_;
  // Every chunk index built so far, the published one last; older ones
  // stay alive for readers that loaded them before a grow.
  std::vector<std::unique_ptr<Node*[]>> indexes_;
  std::atomic<Node**> index_{nullptr};
  std::size_t index_cap_ = 0;
  Handle free_head_ = kNil;
  std::size_t live_ = 0;
  std::size_t high_water_ = 0;
};

}  // namespace dca::net
