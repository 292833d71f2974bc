// Deterministic random-number streams for the simulator.
//
// Every stochastic component (each cell's traffic source, each latency
// model, ...) owns an independent substream derived from the scenario seed
// and a stream label via splitmix64 mixing. Components therefore stay
// statistically independent *and* the trajectory of one component does not
// shift when another component draws more or fewer variates — the property
// that makes cross-scheme comparisons paired.
//
// A stream's outputs are those of std::mt19937_64(seed), but the 312-word
// engine is built only when it is needed. Most streams (a call leg's dwell
// time, a set-up probe's first arrival gap, the protocol stream of a cell
// whose policy never draws) use a handful of words or none; those come
// straight from the engine's seeding recurrence, which reaches output k of
// the first twist after 156 + k steps. Only the draw past the first
// kFirstWords builds the engine, on the heap, and skips what was handed
// out. A stream therefore costs 56 bytes until then, not the engine's
// 2.5 KB, so a grid can hold one per cell or per link outright.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <random>
#include <span>
#include <vector>

#include "sim/types.hpp"

namespace dca::sim {

/// splitmix64 finalizer; used to derive well-separated substream seeds.
[[nodiscard]] constexpr std::uint64_t mix64(std::uint64_t x) noexcept {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

/// An independent random stream: std::mt19937_64's output sequence behind
/// a convenience API, with the libstdc++ distributions on top.
class RngStream {
 public:
  explicit RngStream(std::uint64_t seed) : seed_(seed) {}

  RngStream(RngStream&&) noexcept = default;
  RngStream& operator=(RngStream&&) noexcept = default;
  /// A copy continues draw for draw like the original.
  RngStream(const RngStream& o)
      : seed_(o.seed_),
        out_(o.out_),
        taken_(o.taken_),
        engine_(o.engine_ ? std::make_unique<Engine>(*o.engine_) : nullptr) {}
  RngStream& operator=(const RngStream& o) {
    if (this != &o) *this = RngStream(o);
    return *this;
  }

  /// Derives the substream identified by (seed, label).
  static RngStream derive(std::uint64_t seed, std::uint64_t label) {
    return RngStream(mix64(mix64(seed) ^ mix64(label + 0x5851F42D4C957F2Dull)));
  }

  /// Uniform double in [0, 1).
  double uniform() { return draw(std::uniform_real_distribution<double>(0.0, 1.0)); }

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi) {
    return draw(std::uniform_real_distribution<double>(lo, hi));
  }

  /// Uniform integer in [lo, hi] inclusive. Requires lo <= hi.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi) {
    return draw(std::uniform_int_distribution<std::int64_t>(lo, hi));
  }

  /// Bernoulli trial with success probability p.
  bool bernoulli(double p) { return draw(std::bernoulli_distribution(p)); }

  /// Exponential variate with the given mean (NOT rate). Requires mean > 0.
  double exponential_mean(double mean) {
    return draw(std::exponential_distribution<double>(1.0 / mean));
  }

  /// Exponential inter-arrival duration for a Poisson process of `rate`
  /// events per simulated second, as an integral Duration (>= 1 us so that
  /// time always advances). Parameterised by the rate, not the mean:
  /// 1 / (1 / rate) is not always `rate`.
  Duration exponential_gap(double rate_per_second) {
    const Duration d =
        from_seconds(draw(std::exponential_distribution<double>(rate_per_second)));
    return d > 0 ? d : 1;
  }

  /// Picks an index in [0, n) uniformly. Requires n > 0.
  std::size_t pick_index(std::size_t n) {
    return draw(std::uniform_int_distribution<std::size_t>(0, n - 1));
  }

  /// Picks a uniformly random element of a non-empty span.
  template <typename T>
  const T& pick(std::span<const T> items) {
    return items[pick_index(items.size())];
  }

  /// Fisher-Yates shuffle.
  template <typename T>
  void shuffle(std::vector<T>& items) {
    for (std::size_t i = items.size(); i > 1; --i) {
      std::swap(items[i - 1], items[pick_index(i)]);
    }
  }

  /// Bytes this stream holds: itself, plus the engine once built.
  [[nodiscard]] std::size_t bytes() const noexcept {
    return sizeof(RngStream) + (engine_ ? sizeof(Engine) : 0);
  }

 private:
  using Engine = std::mt19937_64;
  using Word = Engine::result_type;

  /// Outputs served before the engine is built. Output k < n - m of the
  /// first twist depends only on seeded words k, k + 1 and k + m.
  static constexpr std::size_t kFirstWords = 4;
  static_assert(kFirstWords < Engine::state_size - Engine::shift_size);

  /// The stream's output sequence as a uniform random bit generator, so
  /// the std distributions run over it unchanged, however many words they
  /// consume.
  class Words {
   public:
    using result_type = Word;
    static constexpr Word min() { return Engine::min(); }
    static constexpr Word max() { return Engine::max(); }
    explicit Words(RngStream& s) : s_(s) {}
    Word operator()() { return s_.next_word(); }

   private:
    RngStream& s_;
  };

  template <typename Dist>
  typename Dist::result_type draw(Dist dist) {
    if (engine_) return dist(*engine_);
    Words words(*this);
    return dist(words);
  }

  Word next_word() {
    if (engine_) return (*engine_)();
    if (taken_ == 0) out_ = first_outputs(seed_);
    if (taken_ < kFirstWords) return out_[taken_++];
    engine_ = std::make_unique<Engine>(seed_);
    engine_->discard(kFirstWords);
    return (*engine_)();
  }

  /// Engine(seed)'s first kFirstWords outputs: the seeding recurrence run
  /// to word m + kFirstWords - 1, one twist step per output, tempering.
  static std::array<Word, kFirstWords> first_outputs(Word seed) {
    constexpr std::size_t w = Engine::word_size;
    constexpr std::size_t m = Engine::shift_size;
    constexpr Word upper = ~Word{0} << Engine::mask_bits;
    std::array<Word, kFirstWords + 1> low{};  // seeded words 0..kFirstWords
    std::array<Word, kFirstWords> out{};      // seeded words m.., then outputs
    Word x = seed;
    low[0] = x;
    const auto step = [&x](std::size_t i) {
      x = Engine::initialization_multiplier * (x ^ (x >> (w - 2))) + i;
    };
    std::size_t i = 1;
    for (; i <= kFirstWords; ++i) {
      step(i);
      low[i] = x;
    }
    for (; i < m; ++i) step(i);
    for (std::size_t k = 0; k < kFirstWords; ++k, ++i) {
      step(i);
      out[k] = x;
    }
    for (std::size_t k = 0; k < kFirstWords; ++k) {
      const Word y = (low[k] & upper) | (low[k + 1] & ~upper);
      Word z = out[k] ^ (y >> 1) ^ ((y & 1) ? Engine::xor_mask : 0);
      z ^= (z >> Engine::tempering_u) & Engine::tempering_d;
      z ^= (z << Engine::tempering_s) & Engine::tempering_b;
      z ^= (z << Engine::tempering_t) & Engine::tempering_c;
      z ^= z >> Engine::tempering_l;
      out[k] = z;
    }
    return out;
  }

  Word seed_;
  std::array<Word, kFirstWords> out_{};  // filled at the first draw
  std::size_t taken_ = 0;
  std::unique_ptr<Engine> engine_;       // built at draw kFirstWords + 1
};

}  // namespace dca::sim
