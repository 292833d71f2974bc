// A rectangular field of hexagonal cells and its interference structure,
// with bounded or toroidal (wraparound) topology.
//
// Cells are laid out in "odd-r" offset rows (each odd row is shifted half a
// cell to the right), which yields the rectangular array of hexagons shown
// in the paper's Fig. 1. Cell ids are dense integers row*cols + col, which
// every other module uses as the MSS/node id.
//
// The *interference region* IN_i of cell i is the set of other cells whose
// concurrent use of a channel would interfere with cell i: all cells within
// hex distance <= interference_radius. The classic minimum-reuse-distance
// D corresponds to interference_radius = D - 1 in hop terms (two cells at
// hop distance >= D may share a channel).
//
// Topology:
//  * kBounded  — grid edges are real: boundary cells have smaller
//    neighbourhoods (the realistic deployment of Fig. 1);
//  * kToroidal — rows and columns wrap around, so EVERY cell has the full
//    interior neighbourhood. This is the boundary-free setting in which
//    measured per-call costs match the paper's closed forms (expressed in
//    the interior N) exactly. Toroidal grids require an even row count
//    (odd-r offset rows must re-align across the vertical seam); a valid
//    cluster-7 colouring additionally needs cols % 7 == 0 and
//    rows % 14 == 0 (e.g. 14x14).
//
// Construction is O(cells x r^2) for interference radius r: each cell's
// region is the 3r(r+1) axial offsets of its radius-r hex ball, mapped
// through cell_at (which wraps on a torus), then sorted. Neighbour lists
// and interference regions live in two flat offset + array (CSR) tables,
// and every list is in ascending id order — protocol broadcasts fan out in
// that order, so it is part of the simulated result.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "cell/hex.hpp"

namespace dca::cell {

/// Dense id of a cell / its mobile service station. Valid ids are
/// 0..n_cells-1; kNoCell means "none".
using CellId = std::int32_t;
inline constexpr CellId kNoCell = -1;

enum class Wrap : std::uint8_t { kBounded, kToroidal };

class HexGrid {
 public:
  /// Builds a rows x cols grid and precomputes, for every cell, its direct
  /// neighbours and its interference region for the given radius (>= 1).
  HexGrid(int rows, int cols, int interference_radius, Wrap wrap = Wrap::kBounded);

  [[nodiscard]] int rows() const noexcept { return rows_; }
  [[nodiscard]] int cols() const noexcept { return cols_; }
  [[nodiscard]] int n_cells() const noexcept { return rows_ * cols_; }
  [[nodiscard]] int interference_radius() const noexcept { return radius_; }
  [[nodiscard]] Wrap wrap() const noexcept { return wrap_; }

  [[nodiscard]] bool valid(CellId c) const noexcept {
    return c >= 0 && c < n_cells();
  }

  /// Axial lattice coordinate of a cell (canonical, unwrapped).
  [[nodiscard]] Axial axial(CellId c) const { return axial_[static_cast<std::size_t>(c)]; }

  /// Cell at an axial coordinate; kNoCell if outside a bounded grid,
  /// wrapped onto the torus otherwise.
  [[nodiscard]] CellId cell_at(Axial a) const noexcept;

  /// Hex (hop) distance between two cells (shortest over the torus for
  /// toroidal grids).
  [[nodiscard]] int distance(CellId a, CellId b) const;

  /// The (up to six) directly adjacent cells, ascending by id.
  [[nodiscard]] std::span<const CellId> neighbors(CellId c) const {
    return neighbors_.row(c);
  }

  /// Interference region IN_c: all other cells within the interference
  /// radius, ascending by id. Symmetric: a ∈ IN(b) iff b ∈ IN(a).
  [[nodiscard]] std::span<const CellId> interference(CellId c) const {
    return interference_.row(c);
  }

  /// True iff a and b interfere (a != b and within the radius).
  [[nodiscard]] bool interferes(CellId a, CellId b) const {
    return a != b && distance(a, b) <= radius_;
  }

  /// Largest interference-region size over all cells (the paper's N).
  [[nodiscard]] int max_interference_degree() const noexcept { return max_degree_; }

  /// Mean interference-region size (equals the max on a torus).
  [[nodiscard]] double mean_interference_degree() const noexcept {
    return mean_degree_;
  }

 private:
  /// Per-cell id lists in one array: row c is ids[start[c], start[c+1]).
  struct Csr {
    std::vector<std::size_t> start{0};
    std::vector<CellId> ids;

    [[nodiscard]] std::span<const CellId> row(CellId c) const {
      const auto i = static_cast<std::size_t>(c);
      return {ids.data() + start[i], start[i + 1] - start[i]};
    }
  };

  /// Appends the cells at `offsets` from `c` (skipping off-grid ones) as
  /// c's row, ascending and de-duplicated.
  void append_row(Csr& table, CellId c, std::span<const Axial> offsets) const;

  int rows_;
  int cols_;
  int radius_;
  Wrap wrap_;
  int max_degree_ = 0;
  double mean_degree_ = 0.0;
  std::vector<Axial> axial_;  // by cell id
  Csr neighbors_;
  Csr interference_;
};

}  // namespace dca::cell
