// How a scheme that wants "some free channel" picks one of its
// believed-free channels (scenario key `update_pick`). The paper (and
// Dong & Lai) leave the pick unspecified; it matters a lot for the update
// family, where two concurrent requesters that pick the same channel
// collide and burn a retry:
//   * kRandom     — uniform over the believed-free set; concurrent
//                   requesters spread out (the library default);
//   * kLowest     — always the lowest-numbered free channel; deterministic
//                   and cache-friendly but maximizes collisions;
//   * kRoundRobin — scan from just past the previously picked channel;
//                   decorrelates a single node's successive picks.
#pragma once

#include <cstddef>
#include <cstdint>

#include "cell/spectrum.hpp"
#include "sim/random.hpp"

namespace dca::proto {

enum class ChannelPick : std::uint8_t { kRandom = 0, kLowest = 1, kRoundRobin = 2 };

[[nodiscard]] inline const char* channel_pick_name(ChannelPick p) {
  switch (p) {
    case ChannelPick::kRandom: return "random";
    case ChannelPick::kLowest: return "lowest";
    case ChannelPick::kRoundRobin: return "round-robin";
  }
  return "?";
}

/// Picks one channel from a non-empty set. `cursor` is the caller's
/// round-robin state (updated on every pick, ignored by other picks).
[[nodiscard]] inline cell::ChannelId pick_channel(const cell::ChannelSet& freeSet,
                                                  ChannelPick pick,
                                                  sim::RngStream& rng,
                                                  cell::ChannelId& cursor) {
  switch (pick) {
    case ChannelPick::kLowest:
      return freeSet.first();
    case ChannelPick::kRoundRobin: {
      cell::ChannelId r = freeSet.next_after(cursor);
      if (r == cell::kNoChannel) r = freeSet.first();
      cursor = r;
      return r;
    }
    case ChannelPick::kRandom:
    default: {
      // nth-set-bit select: zero allocations on the hot path. The RNG draw
      // is pick_index(size()) — exactly what the old to_vector() path drew —
      // so trajectories do not move.
      const auto n = static_cast<std::size_t>(freeSet.size());
      return freeSet.nth(static_cast<int>(rng.pick_index(n)));
    }
  }
}

}  // namespace dca::proto
