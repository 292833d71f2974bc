// Randomized equivalence of the runtime-width ChannelSet against a
// fixed-width reference model (std::bitset<kMaxChannels> + a universe
// bound). The dynamic-width rewrite sized the storage to the scenario's
// spectrum (1 word for <= 64 channels, 2 inline words up to 128, heap
// beyond); these properties pin every query and mutation to the simple
// fixed-width semantics across universes from 1 to kMaxChannels,
// including the inline/heap boundary at 128/129.
#include <bitset>
#include <cstdint>
#include <random>
#include <vector>

#include <gtest/gtest.h>

#include "cell/spectrum.hpp"
#include "proto/channel_pick.hpp"
#include "sim/random.hpp"

namespace dca::cell {
namespace {

/// Fixed-width reference: the semantics the old 512-bit ChannelSet had,
/// restricted to a universe.
class RefSet {
 public:
  explicit RefSet(int universe) : universe_(universe) {}

  void insert(ChannelId c) {
    if (c >= 0 && c < universe_) bits_.set(static_cast<std::size_t>(c));
  }
  void erase(ChannelId c) {
    if (c >= 0 && c < universe_) bits_.reset(static_cast<std::size_t>(c));
  }
  void clear() { bits_.reset(); }
  [[nodiscard]] bool contains(ChannelId c) const {
    return c >= 0 && c < universe_ && bits_.test(static_cast<std::size_t>(c));
  }
  [[nodiscard]] int size() const { return static_cast<int>(bits_.count()); }
  [[nodiscard]] ChannelId first() const {
    for (int c = 0; c < universe_; ++c)
      if (bits_.test(static_cast<std::size_t>(c))) return c;
    return kNoChannel;
  }
  [[nodiscard]] ChannelId next_after(ChannelId c) const {
    for (int i = c + 1; i < universe_; ++i)
      if (i >= 0 && bits_.test(static_cast<std::size_t>(i))) return i;
    return kNoChannel;
  }
  [[nodiscard]] ChannelId nth(int k) const {
    if (k < 0) return kNoChannel;
    for (int c = 0; c < universe_; ++c) {
      if (!bits_.test(static_cast<std::size_t>(c))) continue;
      if (k == 0) return c;
      --k;
    }
    return kNoChannel;
  }
  /// First channel of the universe NOT in the set (complement().first()).
  [[nodiscard]] ChannelId first_free() const {
    for (int c = 0; c < universe_; ++c)
      if (!bits_.test(static_cast<std::size_t>(c))) return c;
    return kNoChannel;
  }

  int universe_;
  std::bitset<kMaxChannels> bits_;
};

void expect_equivalent(const ChannelSet& s, const RefSet& r) {
  ASSERT_EQ(s.universe(), r.universe_);
  EXPECT_EQ(s.size(), r.size());
  EXPECT_EQ(s.empty(), r.size() == 0);
  EXPECT_EQ(s.first(), r.first());
  EXPECT_EQ(s.complement().first(), r.first_free());
  // Membership over the whole universe plus a margin beyond it.
  for (int c = -2; c < r.universe_ + 2; ++c) {
    EXPECT_EQ(s.contains(c), r.contains(c)) << "universe=" << r.universe_
                                            << " channel=" << c;
  }
  // Ordered iteration and nth() selection agree with the model.
  std::vector<ChannelId> members;
  for (ChannelId c = s.first(); c != kNoChannel; c = s.next_after(c))
    members.push_back(c);
  EXPECT_EQ(members, s.to_vector());
  ASSERT_EQ(static_cast<int>(members.size()), r.size());
  for (int k = 0; k < r.size(); ++k) {
    EXPECT_EQ(s.nth(k), r.nth(k)) << "k=" << k;
    EXPECT_EQ(s.nth(k), members[static_cast<std::size_t>(k)]);
  }
  EXPECT_EQ(s.nth(r.size()), kNoChannel);
}

TEST(ChannelSetProperty, RandomOpsMatchFixedWidthReference) {
  std::mt19937_64 rng(20260808);
  // Sweep universes across word-count regimes: sub-word, exact word
  // boundaries, the inline/heap boundary (128/129), and the legacy max.
  const int universes[] = {1, 2, 7, 63, 64, 65, 70, 127, 128, 129, 191, 256, 511, 512};
  for (const int universe : universes) {
    ChannelSet s(universe);
    RefSet r(universe);
    std::uniform_int_distribution<int> pick_channel(0, universe - 1);
    std::uniform_int_distribution<int> pick_op(0, 99);
    for (int step = 0; step < 2000; ++step) {
      const int op = pick_op(rng);
      if (op < 45) {
        const ChannelId c = pick_channel(rng);
        s.insert(c);
        r.insert(c);
      } else if (op < 90) {
        const ChannelId c = pick_channel(rng);
        s.erase(c);
        r.erase(c);
      } else if (op < 93) {
        s.clear();
        r.clear();
      } else if (op < 96) {
        // erase is tolerant of out-of-universe ids by contract.
        s.erase(universe + pick_channel(rng));
      }
      if (step % 100 == 0) expect_equivalent(s, r);
    }
    expect_equivalent(s, r);
  }
}

TEST(ChannelSetProperty, SetAlgebraMatchesBitwiseReference) {
  std::mt19937_64 rng(4242);
  for (const int universe : {5, 64, 70, 128, 129, 512}) {
    std::uniform_int_distribution<int> pick(0, universe - 1);
    for (int round = 0; round < 50; ++round) {
      ChannelSet a(universe), b(universe);
      RefSet ra(universe), rb(universe);
      for (int i = 0; i < universe / 2 + 1; ++i) {
        const ChannelId ca = pick(rng), cb = pick(rng);
        a.insert(ca);
        ra.insert(ca);
        b.insert(cb);
        rb.insert(cb);
      }
      const ChannelSet u = a | b;
      const ChannelSet i = a & b;
      const ChannelSet d = a - b;
      const ChannelSet comp = a.complement();
      for (int c = 0; c < universe; ++c) {
        EXPECT_EQ(u.contains(c), ra.contains(c) || rb.contains(c));
        EXPECT_EQ(i.contains(c), ra.contains(c) && rb.contains(c));
        EXPECT_EQ(d.contains(c), ra.contains(c) && !rb.contains(c));
        EXPECT_EQ(comp.contains(c), !ra.contains(c));
      }
      EXPECT_EQ(a.intersects(b), !i.empty());
      EXPECT_EQ(a == b, ra.bits_ == rb.bits_);
    }
  }
}

// size_minus / first_minus (the adaptive scheme's free-primary queries)
// against the set-algebra expression they replace, over random sets of
// every density, inline (70 channels) and heap-spilled (300).
TEST(ChannelSetProperty, MinusQueriesMatchSetAlgebra) {
  std::mt19937_64 rng(9090);
  for (const int universe : {70, 300}) {
    std::uniform_int_distribution<int> pick(0, universe - 1);
    for (int round = 0; round < 200; ++round) {
      ChannelSet x(universe), a(universe), b(universe);
      const int fill = round % 4 == 0 ? 2 : universe / (1 + round % 5);
      for (int i = 0; i < fill; ++i) {
        x.insert(pick(rng));
        a.insert(pick(rng));
        b.insert(pick(rng));
      }
      if (round % 7 == 0) x = ChannelSet::all(universe);
      const ChannelSet expected = x - a - b;
      EXPECT_EQ(x.size_minus(a, b), expected.size()) << universe << "/" << round;
      EXPECT_EQ(x.first_minus(a, b), expected.first()) << universe << "/" << round;
    }
  }
}

TEST(ChannelSetProperty, AllAndCopiesPreserveUniverse) {
  for (const int universe : {1, 64, 70, 128, 129, 512}) {
    const ChannelSet s = ChannelSet::all(universe);
    EXPECT_EQ(s.size(), universe);
    EXPECT_EQ(s.first(), 0);
    EXPECT_EQ(s.nth(universe - 1), universe - 1);
    EXPECT_FALSE(s.contains(universe));  // nothing beyond the top id
    EXPECT_TRUE(s.complement().empty());

    ChannelSet copy = s;  // copy must deep-copy heap storage
    copy.erase(0);
    EXPECT_TRUE(s.contains(0));
    EXPECT_FALSE(copy.contains(0));
    EXPECT_EQ(copy.size(), universe - 1);

    ChannelSet moved = std::move(copy);
    EXPECT_EQ(moved.universe(), universe);
    EXPECT_EQ(moved.size(), universe - 1);
  }
}

TEST(ChannelSetProperty, OutOfUniverseInsertAssertsInDebug) {
  // The storage is exactly universe-sized, so an out-of-universe insert
  // would scribble past the buffer; debug builds must trip the assert
  // (release builds turn it into a checked no-op, verified below).
  ChannelSet s(70);
  EXPECT_DEBUG_DEATH(s.insert(70), "universe");
  EXPECT_DEBUG_DEATH(s.insert(500), "universe");
#ifdef NDEBUG
  // Release-mode heap-overflow guard: the insert must be a no-op, not a
  // write past the end of the universe-sized buffer.
  s.insert(70);
  s.insert(511);
  EXPECT_FALSE(s.contains(70));
  EXPECT_EQ(s.size(), 0);
#endif
}

// -- ChannelSet::nth (the kRandom channel-pick select) ----------------------

TEST(ChannelSetNth, MatchesToVectorOnEveryIndex) {
  ChannelSet s(200);
  for (const ChannelId c : {0, 1, 7, 63, 64, 65, 127, 128, 140, 199}) s.insert(c);
  const auto members = s.to_vector();
  ASSERT_EQ(static_cast<int>(members.size()), s.size());
  for (std::size_t k = 0; k < members.size(); ++k)
    EXPECT_EQ(s.nth(static_cast<int>(k)), members[k]) << "k=" << k;
}

TEST(ChannelSetNth, OutOfRangeIsNoChannel) {
  ChannelSet s(64);
  EXPECT_EQ(s.nth(0), kNoChannel);  // empty set
  s.insert(5);
  s.insert(40);
  EXPECT_EQ(s.nth(2), kNoChannel);
  EXPECT_EQ(s.nth(-1), kNoChannel);
  EXPECT_EQ(s.nth(1000), kNoChannel);
}

TEST(ChannelSetNth, DenseSetFullSweep) {
  const ChannelSet s = ChannelSet::all(130);
  for (int k = 0; k < 130; ++k) EXPECT_EQ(s.nth(k), k);
  EXPECT_EQ(s.nth(130), kNoChannel);
}

// The kRandom pick must draw pick_index(size()) — the exact draw the old
// to_vector()[pick_index(size())] path made — so fixed-seed trajectories
// are unchanged.
TEST(ChannelSetNth, RandomPickMatchesMaterializedEquivalent) {
  ChannelSet s(300);
  for (ChannelId c = 2; c < 300; c += 7) s.insert(c);
  auto rng_a = sim::RngStream::derive(99, 1);
  auto rng_b = sim::RngStream::derive(99, 1);
  ChannelId cursor = kNoChannel;
  for (int i = 0; i < 500; ++i) {
    const ChannelId picked =
        proto::pick_channel(s, proto::ChannelPick::kRandom, rng_a, cursor);
    const auto members = s.to_vector();
    EXPECT_EQ(picked, members[rng_b.pick_index(members.size())]);
  }
}

}  // namespace
}  // namespace dca::cell
