// Pooled storage for pending simulation events.
//
// Every shard queue of the kernel keeps the same per-event state: a
// callback and a cancellation handle. The old queues
// stored the callback inside the heap node (forcing whole-std::function
// moves on every sift) and tracked cancellation with two unordered_sets
// (one hash insert on schedule, up to two hash ops on cancel/pop). This
// header replaces both with:
//
//   * EventSlab — a chunked slab of event nodes. Chunks are allocated in
//     blocks of 256 and never move or shrink, so node addresses are stable
//     and a warmed-up queue performs zero heap allocation on the
//     schedule/fire path. Freed slots go on an intrusive free list.
//
//   * Generation stamps — each slot carries a generation counter, bumped
//     when the slot is freed. An EventId encodes (slot, generation), so
//     cancel() is an O(1) probe: a stale handle (already fired, already
//     cancelled, or slot since reused) simply fails the generation match
//     and is a no-op — the exact semantics the old live/cancelled sets
//     provided, without the hash churn or unbounded tombstone growth.
//
//   * QuadHeap — a flat 4-ary min-heap of small POD entries (the callback
//     stays in the slab; the heap moves ~24-40 byte keys). 4-ary halves
//     tree depth vs binary and keeps the working set dense. Cancelled
//     events are removed lazily: entries whose generation no longer
//     matches the slab are skipped at the top, and remove_if() lets the
//     owner compact in O(n) when stale entries pile up.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "sim/small_fn.hpp"

namespace dca::sim {

/// Opaque handle identifying a scheduled event; used only for cancellation.
/// Encodes (slot + 1, generation) so it is never kInvalidEventId.
using EventId = std::uint64_t;

/// Sentinel returned when a handle is not needed.
inline constexpr EventId kInvalidEventId = 0;

namespace detail {

[[nodiscard]] constexpr EventId make_event_id(std::uint32_t slot,
                                              std::uint32_t gen) noexcept {
  return ((static_cast<EventId>(slot) + 1) << 32) | static_cast<EventId>(gen);
}
[[nodiscard]] constexpr std::uint32_t event_slot(EventId id) noexcept {
  return static_cast<std::uint32_t>((id >> 32) - 1);
}
[[nodiscard]] constexpr std::uint32_t event_gen(EventId id) noexcept {
  return static_cast<std::uint32_t>(id & 0xFFFFFFFFu);
}

/// Chunked, generation-stamped pool of event callbacks.
class EventSlab {
 public:
  EventSlab() = default;
  EventSlab(const EventSlab&) = delete;
  EventSlab& operator=(const EventSlab&) = delete;
  EventSlab(EventSlab&&) noexcept = default;
  EventSlab& operator=(EventSlab&&) noexcept = default;

  /// Stores a callable in a free slot (growing by one chunk if none) and
  /// returns the slot index. The slot's current generation stamps the
  /// handle. Raw callables are constructed directly into the slot's inline
  /// buffer (one move, no intermediate EventFn); an EventFn rvalue
  /// degrades to a relocate.
  template <typename F>
  std::uint32_t acquire(F&& fn) {
    if (free_head_ == kNil) grow();
    const std::uint32_t slot = free_head_;
    Node& n = node(slot);
    free_head_ = n.next_free;
    n.next_free = kLiveMark;
    n.fn.assign(std::forward<F>(fn));
    return slot;
  }

  /// Frees a live slot on the fire path, returning its callback.
  [[nodiscard]] EventFn release(std::uint32_t slot) noexcept {
    Node& n = node(slot);
    EventFn fn = std::move(n.fn);
    free_slot(slot, n);
    return fn;
  }

  /// Frees a live slot on the cancel path, destroying its callback.
  void discard(std::uint32_t slot) noexcept {
    Node& n = node(slot);
    n.fn.reset();
    free_slot(slot, n);
  }

  /// True iff `slot` currently holds the live incarnation stamped `gen`.
  [[nodiscard]] bool live(std::uint32_t slot, std::uint32_t gen) const noexcept {
    if (slot >= size_) return false;
    const Node& n = node(slot);
    return n.gen == gen && n.next_free == kLiveMark;
  }

  /// Generation of a slot just handed out by acquire().
  [[nodiscard]] std::uint32_t gen(std::uint32_t slot) const noexcept {
    return node(slot).gen;
  }

  /// Total slots ever allocated (live + free). Grows only when every slot
  /// is simultaneously occupied; heavy cancel traffic recycles slots and
  /// never inflates this.
  [[nodiscard]] std::size_t capacity() const noexcept { return size_; }

 private:
  static constexpr std::uint32_t kNil = 0xFFFFFFFFu;
  static constexpr std::uint32_t kLiveMark = 0xFFFFFFFEu;
  static constexpr std::uint32_t kChunkShift = 8;  // 256 nodes per chunk
  static constexpr std::uint32_t kChunkNodes = 1u << kChunkShift;

  struct Node {
    EventFn fn;
    std::uint32_t gen = 1;
    std::uint32_t next_free = kNil;
  };

  [[nodiscard]] Node& node(std::uint32_t slot) noexcept {
    return chunks_[slot >> kChunkShift][slot & (kChunkNodes - 1)];
  }
  [[nodiscard]] const Node& node(std::uint32_t slot) const noexcept {
    return chunks_[slot >> kChunkShift][slot & (kChunkNodes - 1)];
  }

  void free_slot(std::uint32_t slot, Node& n) noexcept {
    ++n.gen;  // invalidates every outstanding handle to this incarnation
    n.next_free = free_head_;
    free_head_ = slot;
  }

  void grow() {
    chunks_.push_back(std::make_unique<Node[]>(kChunkNodes));
    // Thread the new chunk onto the free list so slots hand out in
    // ascending order.
    for (std::uint32_t i = kChunkNodes; i-- > 0;) {
      Node& n = chunks_.back()[i];
      n.next_free = free_head_;
      free_head_ = size_ + i;
    }
    size_ += kChunkNodes;
  }

  std::vector<std::unique_ptr<Node[]>> chunks_;
  std::uint32_t free_head_ = kNil;
  std::uint32_t size_ = 0;
};

/// Flat 4-ary min-heap over POD-ish entries. `Earlier{}(a, b)` returns true
/// when `a` must fire before `b`.
template <typename Entry, typename Earlier>
class QuadHeap {
 public:
  void push(Entry e) {
    v_.push_back(std::move(e));
    sift_up(v_.size() - 1);
  }

  [[nodiscard]] const Entry& top() const noexcept { return v_.front(); }
  [[nodiscard]] bool empty() const noexcept { return v_.empty(); }
  [[nodiscard]] std::size_t size() const noexcept { return v_.size(); }
  [[nodiscard]] const std::vector<Entry>& entries() const noexcept { return v_; }

  void pop_top() {
    if (v_.size() > 1) {
      v_.front() = std::move(v_.back());
      v_.pop_back();
      sift_down(0);
    } else {
      v_.pop_back();
    }
  }

  /// Drops every entry for which `dead` returns true, then restores the
  /// heap property in O(n) (Floyd build).
  template <typename Pred>
  void remove_if(Pred dead) {
    std::size_t w = 0;
    for (std::size_t r = 0; r < v_.size(); ++r) {
      if (!dead(v_[r])) {
        if (w != r) v_[w] = std::move(v_[r]);
        ++w;
      }
    }
    v_.resize(w);
    if (v_.size() > 1) {
      for (std::size_t i = ((v_.size() - 2) >> 2) + 1; i-- > 0;) sift_down(i);
    }
  }

  void clear() noexcept { v_.clear(); }

 private:
  void sift_up(std::size_t i) {
    Entry e = std::move(v_[i]);
    while (i > 0) {
      const std::size_t p = (i - 1) >> 2;
      if (!Earlier{}(e, v_[p])) break;
      v_[i] = std::move(v_[p]);
      i = p;
    }
    v_[i] = std::move(e);
  }

  void sift_down(std::size_t i) {
    Entry e = std::move(v_[i]);
    const std::size_t n = v_.size();
    for (;;) {
      const std::size_t first = (i << 2) + 1;
      if (first >= n) break;
      std::size_t best = first;
      const std::size_t last = first + 4 < n ? first + 4 : n;
      for (std::size_t k = first + 1; k < last; ++k) {
        if (Earlier{}(v_[k], v_[best])) best = k;
      }
      if (!Earlier{}(v_[best], e)) break;
      v_[i] = std::move(v_[best]);
      i = best;
    }
    v_[i] = std::move(e);
  }

  std::vector<Entry> v_;
};

/// Compaction slack shared by both queues: a compaction pass runs when the
/// number of stale (cancelled-but-still-heaped) entries exceeds the live
/// count plus this constant, bounding heap memory at O(live) under any
/// cancel pattern while keeping compaction cost amortized O(1) per cancel.
inline constexpr std::size_t kHeapCompactSlack = 64;

}  // namespace detail

}  // namespace dca::sim
