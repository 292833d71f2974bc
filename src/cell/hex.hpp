// Hexagonal-lattice geometry in axial coordinates.
//
// The cellular architecture of the paper (Fig. 1) is an array of hexagonal
// cells; every interior cell has six neighbours. We use the standard axial
// coordinate system (q, r) with the implied cube coordinate s = -q - r.
// Hex (grid) distance between two cells is the minimum number of
// cell-to-cell hops, which for cube coordinates is
//   (|dq| + |dr| + |ds|) / 2.
#pragma once

#include <array>
#include <cstdint>
#include <cstdlib>

namespace dca::cell {

/// A cell position on the infinite hexagonal lattice (axial coordinates).
struct Axial {
  std::int32_t q = 0;
  std::int32_t r = 0;

  friend constexpr bool operator==(const Axial&, const Axial&) = default;
};

/// The six axial direction vectors, in fixed counter-clockwise order
/// starting from "east".
inline constexpr std::array<Axial, 6> kHexDirections{{
    {+1, 0}, {+1, -1}, {0, -1}, {-1, 0}, {-1, +1}, {0, +1},
}};

/// Component-wise sum.
constexpr Axial operator+(Axial a, Axial b) noexcept {
  return Axial{a.q + b.q, a.r + b.r};
}

/// Component-wise difference.
constexpr Axial operator-(Axial a, Axial b) noexcept {
  return Axial{a.q - b.q, a.r - b.r};
}

/// Hex (hop) distance between two lattice cells.
constexpr std::int32_t hex_distance(Axial a, Axial b) noexcept {
  const std::int32_t dq = a.q - b.q;
  const std::int32_t dr = a.r - b.r;
  const std::int32_t ds = -dq - dr;
  const std::int32_t aq = dq < 0 ? -dq : dq;
  const std::int32_t ar = dr < 0 ? -dr : dr;
  const std::int32_t as = ds < 0 ? -ds : ds;
  return (aq + ar + as) / 2;
}

/// Rotates an axial vector by +60 degrees about the origin.
constexpr Axial rotate60(Axial a) noexcept { return Axial{-a.r, a.q + a.r}; }

/// Euclidean center of a pointy-top hex of unit circumradius, for rendering
/// and for checking the minimum-reuse-distance geometry.
struct Point2D {
  double x = 0.0;
  double y = 0.0;
};
inline Point2D hex_center(Axial a) noexcept {
  // Pointy-top layout: x = sqrt(3)*(q + r/2), y = 3/2 * r.
  constexpr double kSqrt3 = 1.7320508075688772;
  return Point2D{kSqrt3 * (static_cast<double>(a.q) + static_cast<double>(a.r) / 2.0),
                 1.5 * static_cast<double>(a.r)};
}

}  // namespace dca::cell
