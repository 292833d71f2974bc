#include "cell/grid.hpp"

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <limits>

namespace dca::cell {

namespace {

// Odd-r offset -> axial conversion: row y, column x.
Axial offset_to_axial(int x, int y) noexcept {
  return Axial{x - (y - (y & 1)) / 2, y};
}

int floor_mod(int v, int m) noexcept { return ((v % m) + m) % m; }

}  // namespace

HexGrid::HexGrid(int rows, int cols, int interference_radius, Wrap wrap)
    : rows_(rows), cols_(cols), radius_(interference_radius), wrap_(wrap) {
  assert(rows_ > 0 && cols_ > 0 && radius_ >= 1);
  // Odd-r offset rows only re-align across the vertical seam when the row
  // count is even; and the torus must be big enough that a cell is never
  // its own neighbour through the wrap.
  assert(wrap_ == Wrap::kBounded ||
         (rows_ % 2 == 0 && rows_ > 2 * radius_ && cols_ > 2 * radius_));

  const auto n = static_cast<std::size_t>(n_cells());
  axial_.reserve(n);
  for (int y = 0; y < rows_; ++y)
    for (int x = 0; x < cols_; ++x) axial_.push_back(offset_to_axial(x, y));

  // The radius-r hex ball minus its centre: every (dq, dr) with
  // max(|dq|, |dr|, |dq + dr|) <= r, 3r(r+1) of them.
  std::vector<Axial> ball;
  ball.reserve(static_cast<std::size_t>(3 * radius_ * (radius_ + 1)));
  for (int dq = -radius_; dq <= radius_; ++dq) {
    for (int dr = std::max(-radius_, -dq - radius_);
         dr <= std::min(radius_, -dq + radius_); ++dr) {
      if (dq != 0 || dr != 0) ball.push_back(Axial{dq, dr});
    }
  }

  neighbors_.start.reserve(n + 1);
  neighbors_.ids.reserve(n * kHexDirections.size());
  interference_.start.reserve(n + 1);
  interference_.ids.reserve(n * ball.size());
  for (CellId a = 0; a < n_cells(); ++a) {
    append_row(neighbors_, a, kHexDirections);
    append_row(interference_, a, ball);
    max_degree_ = std::max(max_degree_, static_cast<int>(interference(a).size()));
  }
  mean_degree_ = static_cast<double>(interference_.ids.size()) /
                 static_cast<double>(n_cells());
}

void HexGrid::append_row(Csr& table, CellId c, std::span<const Axial> offsets) const {
  const auto first = table.ids.size();
  for (const Axial d : offsets) {
    const CellId b = cell_at(axial(c) + d);
    if (b != kNoCell && b != c) table.ids.push_back(b);
  }
  const auto begin = table.ids.begin() + static_cast<std::ptrdiff_t>(first);
  std::sort(begin, table.ids.end());
  table.ids.erase(std::unique(begin, table.ids.end()), table.ids.end());
  table.start.push_back(table.ids.size());
}

CellId HexGrid::cell_at(Axial a) const noexcept {
  int y = a.r;
  // Offset column: x = q + (r - parity(r)) / 2, with floor semantics so
  // negative rows convert correctly (the numerator is always even).
  int x = a.q + (a.r - floor_mod(a.r, 2)) / 2;
  if (wrap_ == Wrap::kToroidal) {
    y = floor_mod(y, rows_);
    x = floor_mod(x, cols_);
    return y * cols_ + x;
  }
  if (y < 0 || y >= rows_ || x < 0 || x >= cols_) return kNoCell;
  return y * cols_ + x;
}

int HexGrid::distance(CellId a, CellId b) const {
  const Axial pa = axial(a);
  const Axial pb = axial(b);
  if (wrap_ == Wrap::kBounded) return hex_distance(pa, pb);
  // Torus: minimum over the nine translated copies of b. A horizontal
  // period of `cols_` shifts axial q by cols_; a vertical period of
  // `rows_` (even) shifts axial (q, r) by (-rows_/2, rows_).
  int best = std::numeric_limits<int>::max();
  for (int dy = -1; dy <= 1; ++dy) {
    for (int dx = -1; dx <= 1; ++dx) {
      const Axial shifted{pb.q + dx * cols_ - dy * (rows_ / 2), pb.r + dy * rows_};
      best = std::min(best, hex_distance(pa, shifted));
    }
  }
  return best;
}

}  // namespace dca::cell
