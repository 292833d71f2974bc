#include "cell/reuse.hpp"

#include <algorithm>
#include <cassert>
#include <cstddef>

namespace dca::cell {

namespace {

// Colour formulas for the regular shift patterns. Both are linear forms
// a*q + b*r (mod k) chosen so that the co-channel sublattice maps to 0:
//  * k=3, shift (1,1):  colour = (q + 2r) mod 3, co-channel hop distance 2.
//  * k=7, shift (2,1):  colour = (q + 5r) mod 7, co-channel hop distance 3.
int regular_color(Axial a, int cluster) {
  const auto mod = [](std::int64_t v, int m) {
    return static_cast<int>(((v % m) + m) % m);
  };
  switch (cluster) {
    case 3:
      return mod(static_cast<std::int64_t>(a.q) + 2ll * a.r, 3);
    case 7:
      return mod(static_cast<std::int64_t>(a.q) + 5ll * a.r, 7);
    default:
      assert(false && "cluster size must be 3 or 7 for the regular pattern");
      return 0;
  }
}

// Hop distance between nearest co-channel cells of the regular pattern.
// Only an assert reads it, so it is unused when NDEBUG is set.
[[maybe_unused]] int regular_reuse_hop_distance(int cluster) { return cluster == 3 ? 2 : 3; }

}  // namespace

ReusePlan::ReusePlan(const HexGrid& grid, int n_channels, std::vector<int> colors,
                     int n_colors)
    : n_channels_(n_channels), n_colors_(n_colors), color_(std::move(colors)) {
  assert(n_channels_ > 0 && n_channels_ <= kMaxChannels);
  assert(n_colors_ > 0);
  primary_.resize(static_cast<std::size_t>(grid.n_cells()), ChannelSet(n_channels_));
  cells_of_color_.resize(static_cast<std::size_t>(n_colors_));
  for (CellId c = 0; c < grid.n_cells(); ++c) {
    const int col = color_[static_cast<std::size_t>(c)];
    cells_of_color_[static_cast<std::size_t>(col)].push_back(c);
    for (ChannelId ch = col; ch < n_channels_; ch += n_colors_)
      primary_[static_cast<std::size_t>(c)].insert(ch);
  }
}

ReusePlan ReusePlan::cluster(const HexGrid& grid, int n_channels, int cluster_size) {
  assert(cluster_size == 3 || cluster_size == 7);
  // The pattern is valid iff nearest co-colour cells are farther apart than
  // the interference radius.
  assert(regular_reuse_hop_distance(cluster_size) > grid.interference_radius());
  std::vector<int> colors(static_cast<std::size_t>(grid.n_cells()));
  for (CellId c = 0; c < grid.n_cells(); ++c)
    colors[static_cast<std::size_t>(c)] = regular_color(grid.axial(c), cluster_size);
  return ReusePlan(grid, n_channels, std::move(colors), cluster_size);
}

ReusePlan ReusePlan::greedy(const HexGrid& grid, int n_channels) {
  std::vector<int> colors(static_cast<std::size_t>(grid.n_cells()), -1);
  int n_colors = 0;
  for (CellId c = 0; c < grid.n_cells(); ++c) {
    // Smallest colour not used by an already-coloured interfering cell.
    std::vector<bool> used(static_cast<std::size_t>(n_colors + 1), false);
    for (const CellId j : grid.interference(c)) {
      const int cj = colors[static_cast<std::size_t>(j)];
      if (cj >= 0 && cj < static_cast<int>(used.size()))
        used[static_cast<std::size_t>(cj)] = true;
    }
    int pick = 0;
    while (pick < static_cast<int>(used.size()) && used[static_cast<std::size_t>(pick)])
      ++pick;
    colors[static_cast<std::size_t>(c)] = pick;
    n_colors = std::max(n_colors, pick + 1);
  }
  return ReusePlan(grid, n_channels, std::move(colors), n_colors);
}

std::vector<CellId> ReusePlan::primaries_in_interference(const HexGrid& grid, CellId c,
                                                         ChannelId r) const {
  std::vector<CellId> out;
  const int col = color_of_channel(r);
  for (const CellId j : grid.interference(c)) {
    if (color_of(j) == col) out.push_back(j);
  }
  return out;
}

bool ReusePlan::validate(const HexGrid& grid) const {
  if (static_cast<int>(color_.size()) != grid.n_cells()) return false;
  for (CellId a = 0; a < grid.n_cells(); ++a) {
    if (color_of(a) < 0 || color_of(a) >= n_colors_) return false;
    for (const CellId b : grid.interference(a)) {
      if (color_of(a) == color_of(b)) return false;
    }
  }
  // Channel partition: every channel primary in exactly one colour class,
  // and PR sets of same-colour cells coincide.
  ChannelSet seen(n_channels_);
  for (int col = 0; col < n_colors_; ++col) {
    ChannelSet cls(n_channels_);
    for (ChannelId ch = col; ch < n_channels_; ch += n_colors_) cls.insert(ch);
    if (cls.intersects(seen)) return false;
    seen |= cls;
    for (const CellId c : cells_of_color_[static_cast<std::size_t>(col)]) {
      if (!(primary(c) == cls)) return false;
    }
  }
  return seen == ChannelSet::all(n_channels_);
}

}  // namespace dca::cell
