// Channel identifiers and dense channel sets.
//
// The wireless spectrum is divided into n channels numbered 0..n-1
// (the paper numbers 1..n; we use 0-based ids internally and print 1-based
// where it matters). ChannelSet is a bitset whose word count is derived
// from the runtime universe size: the paper's 70-channel spectrum needs a
// >single< 64-bit word plus one inline spare, so the common case stays a
// 32-byte value with no heap traffic, while universes up to kMaxChannels
// spill to one heap block. All the per-node bookkeeping sets of the
// protocols (Use_i, U_j, I_i, PR_i, ...) are ChannelSets, so set algebra
// (union, minus, intersect, first-free) is a loop over `words()` words —
// 1/8th of the work the old fixed 512-bit layout did for a 70-channel run.
#pragma once

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace dca::cell {

/// Index of a wireless channel; kNoChannel means "none".
using ChannelId = std::int32_t;
inline constexpr ChannelId kNoChannel = -1;

/// Upper bound on spectrum size supported by ChannelSet.
inline constexpr int kMaxChannels = 512;

class ChannelSet {
 public:
  ChannelSet() = default;

  /// Empty set over a universe of `universe` channels (0..universe-1).
  explicit ChannelSet(int universe)
      : universe_(universe), words_((universe + 63) / 64) {
    assert(universe >= 0 && universe <= kMaxChannels);
    if (words_ > kInlineWords)
      heap_ = std::make_unique<std::uint64_t[]>(
          static_cast<std::size_t>(words_));
  }

  ChannelSet(const ChannelSet& o) : universe_(o.universe_), words_(o.words_) {
    if (words_ > kInlineWords) {
      heap_ = std::make_unique<std::uint64_t[]>(
          static_cast<std::size_t>(words_));
      std::copy_n(o.heap_.get(), words_, heap_.get());
    } else {
      inline_[0] = o.inline_[0];
      inline_[1] = o.inline_[1];
    }
  }

  ChannelSet& operator=(const ChannelSet& o) {
    if (this == &o) return *this;
    if (o.words_ > kInlineWords) {
      if (words_ != o.words_) {
        heap_ = std::make_unique<std::uint64_t[]>(
            static_cast<std::size_t>(o.words_));
      }
      std::copy_n(o.heap_.get(), o.words_, heap_.get());
    } else {
      heap_.reset();
      inline_[0] = o.inline_[0];
      inline_[1] = o.inline_[1];
    }
    universe_ = o.universe_;
    words_ = o.words_;
    return *this;
  }

  ChannelSet(ChannelSet&& o) noexcept
      : universe_(o.universe_), words_(o.words_), heap_(std::move(o.heap_)) {
    inline_[0] = o.inline_[0];
    inline_[1] = o.inline_[1];
    o.universe_ = 0;
    o.words_ = 0;
  }

  ChannelSet& operator=(ChannelSet&& o) noexcept {
    if (this == &o) return *this;
    universe_ = o.universe_;
    words_ = o.words_;
    heap_ = std::move(o.heap_);
    inline_[0] = o.inline_[0];
    inline_[1] = o.inline_[1];
    o.universe_ = 0;
    o.words_ = 0;
    return *this;
  }

  ~ChannelSet() = default;

  /// Full set {0, ..., universe-1}.
  static ChannelSet all(int universe) {
    ChannelSet s(universe);
    std::uint64_t* w = s.data();
    for (int i = 0; i < s.words_; ++i) w[static_cast<std::size_t>(i)] = ~0ull;
    s.trim();
    return s;
  }

  [[nodiscard]] int universe() const noexcept { return universe_; }

  [[nodiscard]] bool contains(ChannelId c) const noexcept {
    if (c < 0 || c >= universe_) return false;
    return (word(c) >> bit(c)) & 1ull;
  }

  void insert(ChannelId c) noexcept {
    assert(c >= 0 && c < universe_);
    // The storage is exactly universe-sized now, so an out-of-universe id
    // would scribble past the buffer in release builds; make it a checked
    // no-op there (debug builds assert above).
    if (c < 0 || c >= universe_) return;
    word(c) |= (1ull << bit(c));
  }

  void erase(ChannelId c) noexcept {
    if (c < 0 || c >= universe_) return;
    word(c) &= ~(1ull << bit(c));
  }

  void clear() noexcept {
    std::uint64_t* w = data();
    for (int i = 0; i < words_; ++i) w[static_cast<std::size_t>(i)] = 0;
  }

  [[nodiscard]] int size() const noexcept {
    const std::uint64_t* w = data();
    int n = 0;
    for (int i = 0; i < words_; ++i)
      n += std::popcount(w[static_cast<std::size_t>(i)]);
    return n;
  }

  [[nodiscard]] bool empty() const noexcept {
    const std::uint64_t* w = data();
    for (int i = 0; i < words_; ++i)
      if (w[static_cast<std::size_t>(i)] != 0) return false;
    return true;
  }

  /// Smallest channel id in the set, or kNoChannel when empty.
  [[nodiscard]] ChannelId first() const noexcept {
    const std::uint64_t* words = data();
    for (int w = 0; w < words_; ++w) {
      const std::uint64_t v = words[static_cast<std::size_t>(w)];
      if (v != 0) return static_cast<ChannelId>(w * 64 + std::countr_zero(v));
    }
    return kNoChannel;
  }

  /// Smallest channel id strictly greater than `c`, or kNoChannel.
  [[nodiscard]] ChannelId next_after(ChannelId c) const noexcept {
    ChannelId start = c + 1;
    if (start < 0) start = 0;
    if (start >= universe_) return kNoChannel;
    const std::uint64_t* words = data();
    int w = start / 64;
    std::uint64_t v = words[static_cast<std::size_t>(w)] &
                      (~0ull << static_cast<unsigned>(start % 64));
    while (true) {
      if (v != 0) return static_cast<ChannelId>(w * 64 + std::countr_zero(v));
      if (++w >= words_) return kNoChannel;
      v = words[static_cast<std::size_t>(w)];
    }
  }

  /// k-th smallest member (0-based), or kNoChannel when k >= size().
  /// Zero-allocation counterpart of to_vector()[k]: a word scan with a
  /// popcount skip, then a clear-lowest-bit select inside the word.
  [[nodiscard]] ChannelId nth(int k) const noexcept {
    if (k < 0) return kNoChannel;
    const std::uint64_t* words = data();
    for (int w = 0; w < words_; ++w) {
      std::uint64_t v = words[static_cast<std::size_t>(w)];
      const int c = std::popcount(v);
      if (k < c) {
        while (k-- > 0) v &= v - 1;  // drop the k lowest set bits
        return static_cast<ChannelId>(w * 64 + std::countr_zero(v));
      }
      k -= c;
    }
    return kNoChannel;
  }

  /// Materializes the members in increasing order.
  [[nodiscard]] std::vector<ChannelId> to_vector() const {
    std::vector<ChannelId> out;
    out.reserve(static_cast<std::size_t>(size()));
    for (ChannelId c = first(); c != kNoChannel; c = next_after(c)) out.push_back(c);
    return out;
  }

  // -- set algebra (universes must match; asserts in debug builds) -----------

  ChannelSet& operator|=(const ChannelSet& o) noexcept {
    assert(universe_ == o.universe_);
    std::uint64_t* a = data();
    const std::uint64_t* b = o.data();
    const int n = std::min(words_, o.words_);
    for (int w = 0; w < n; ++w)
      a[static_cast<std::size_t>(w)] |= b[static_cast<std::size_t>(w)];
    return *this;
  }
  ChannelSet& operator&=(const ChannelSet& o) noexcept {
    assert(universe_ == o.universe_);
    std::uint64_t* a = data();
    const std::uint64_t* b = o.data();
    const int n = std::min(words_, o.words_);
    for (int w = 0; w < n; ++w)
      a[static_cast<std::size_t>(w)] &= b[static_cast<std::size_t>(w)];
    return *this;
  }
  ChannelSet& operator-=(const ChannelSet& o) noexcept {
    assert(universe_ == o.universe_);
    std::uint64_t* a = data();
    const std::uint64_t* b = o.data();
    const int n = std::min(words_, o.words_);
    for (int w = 0; w < n; ++w)
      a[static_cast<std::size_t>(w)] &= ~b[static_cast<std::size_t>(w)];
    return *this;
  }

  friend ChannelSet operator|(ChannelSet a, const ChannelSet& b) { return a |= b; }
  friend ChannelSet operator&(ChannelSet a, const ChannelSet& b) { return a &= b; }
  friend ChannelSet operator-(ChannelSet a, const ChannelSet& b) { return a -= b; }

  /// |*this - a - b| in one pass over the words, with no temporary set.
  [[nodiscard]] int size_minus(const ChannelSet& a,
                               const ChannelSet& b) const noexcept {
    int n = 0;
    for (int w = 0; w < words_; ++w) n += std::popcount(word_minus(w, a, b));
    return n;
  }

  /// Smallest member of *this - a - b, or kNoChannel; no temporary set.
  [[nodiscard]] ChannelId first_minus(const ChannelSet& a,
                                      const ChannelSet& b) const noexcept {
    for (int w = 0; w < words_; ++w) {
      const std::uint64_t v = word_minus(w, a, b);
      if (v != 0) return static_cast<ChannelId>(w * 64 + std::countr_zero(v));
    }
    return kNoChannel;
  }

  /// Complement within the universe.
  [[nodiscard]] ChannelSet complement() const {
    ChannelSet out = all(universe_);
    out -= *this;
    return out;
  }

  [[nodiscard]] bool intersects(const ChannelSet& o) const noexcept {
    assert(universe_ == o.universe_);
    const std::uint64_t* a = data();
    const std::uint64_t* b = o.data();
    const int n = std::min(words_, o.words_);
    for (int w = 0; w < n; ++w)
      if (a[static_cast<std::size_t>(w)] & b[static_cast<std::size_t>(w)])
        return true;
    return false;
  }

  friend bool operator==(const ChannelSet& a, const ChannelSet& b) noexcept {
    if (a.universe_ != b.universe_) return false;
    const std::uint64_t* wa = a.data();
    const std::uint64_t* wb = b.data();
    for (int w = 0; w < a.words_; ++w) {
      if (wa[static_cast<std::size_t>(w)] != wb[static_cast<std::size_t>(w)])
        return false;
    }
    return true;
  }

  /// Debug rendering, e.g. "{0,3,17}".
  [[nodiscard]] std::string to_string() const {
    std::string s = "{";
    bool firstItem = true;
    for (ChannelId c = first(); c != kNoChannel; c = next_after(c)) {
      if (!firstItem) s += ',';
      s += std::to_string(c);
      firstItem = false;
    }
    s += '}';
    return s;
  }

 private:
  // Words kept inside the object; 2 covers every universe up to 128
  // channels (the paper's 70-channel spectrum included) allocation-free.
  static constexpr int kInlineWords = 2;

  [[nodiscard]] std::uint64_t* data() noexcept {
    return heap_ ? heap_.get() : inline_;
  }
  [[nodiscard]] const std::uint64_t* data() const noexcept {
    return heap_ ? heap_.get() : inline_;
  }

  std::uint64_t& word(ChannelId c) noexcept {
    return data()[static_cast<std::size_t>(c / 64)];
  }
  [[nodiscard]] const std::uint64_t& word(ChannelId c) const noexcept {
    return data()[static_cast<std::size_t>(c / 64)];
  }
  static constexpr unsigned bit(ChannelId c) noexcept {
    return static_cast<unsigned>(c % 64);
  }

  // Word w of *this - a - b; words past a shorter operand subtract
  // nothing, as in operator-=.
  [[nodiscard]] std::uint64_t word_minus(int w, const ChannelSet& a,
                                         const ChannelSet& b) const noexcept {
    assert(universe_ == a.universe_ && universe_ == b.universe_);
    const auto i = static_cast<std::size_t>(w);
    std::uint64_t v = data()[i];
    if (w < a.words_) v &= ~a.data()[i];
    if (w < b.words_) v &= ~b.data()[i];
    return v;
  }

  // Zeroes bits at or beyond universe_ in the top word.
  void trim() noexcept {
    if (words_ == 0) return;
    const int rem = universe_ % 64;
    if (rem != 0) {
      data()[static_cast<std::size_t>(words_ - 1)] &=
          ~0ull >> static_cast<unsigned>(64 - rem);
    }
  }

  int universe_ = 0;
  int words_ = 0;  // (universe_ + 63) / 64
  std::uint64_t inline_[kInlineWords] = {0, 0};
  std::unique_ptr<std::uint64_t[]> heap_;  // engaged when words_ > kInlineWords
};

}  // namespace dca::cell
