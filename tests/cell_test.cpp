// Unit tests for the cellular geometry substrate: hex coordinates, grid
// structure, interference regions (Fig. 1 of the paper), channel sets, and
// reuse plans (primary-set assignment).
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

#include "cell/grid.hpp"
#include "cell/hex.hpp"
#include "cell/reuse.hpp"
#include "cell/spectrum.hpp"

namespace dca::cell {
namespace {

// ---------------------------------------------------------------- hex ----

TEST(Hex, DistanceIsAMetric) {
  const Axial a{0, 0}, b{2, -1}, c{-1, 3};
  EXPECT_EQ(hex_distance(a, a), 0);
  EXPECT_EQ(hex_distance(a, b), hex_distance(b, a));
  EXPECT_LE(hex_distance(a, c), hex_distance(a, b) + hex_distance(b, c));
}

TEST(Hex, UnitNeighborsAreAtDistanceOne) {
  for (const Axial d : kHexDirections) {
    EXPECT_EQ(hex_distance(Axial{0, 0}, d), 1);
  }
}

TEST(Hex, KnownDistances) {
  EXPECT_EQ(hex_distance({0, 0}, {2, 1}), 3);
  EXPECT_EQ(hex_distance({0, 0}, {-1, 3}), 3);
  EXPECT_EQ(hex_distance({0, 0}, {3, -1}), 3);
  EXPECT_EQ(hex_distance({0, 0}, {2, -1}), 2);
}

TEST(Hex, Rotate60PreservesDistance) {
  const Axial v{2, 1};
  const Axial r = rotate60(v);
  EXPECT_EQ(hex_distance({0, 0}, r), hex_distance({0, 0}, v));
  // Six rotations return to the start.
  Axial x = v;
  for (int i = 0; i < 6; ++i) x = rotate60(x);
  EXPECT_EQ(x, v);
}

TEST(Hex, CenterGeometryMatchesLatticeDistance) {
  // Euclidean distance between adjacent hex centers is sqrt(3) for
  // circumradius-1 pointy-top hexes.
  const auto a = hex_center({0, 0});
  const auto b = hex_center({1, 0});
  const double dx = a.x - b.x, dy = a.y - b.y;
  EXPECT_NEAR(dx * dx + dy * dy, 3.0, 1e-9);
}

// --------------------------------------------------------------- grid ----

TEST(Grid, DimensionsAndIds) {
  const HexGrid g(4, 5, 2);
  EXPECT_EQ(g.n_cells(), 20);
  for (CellId c = 0; c < g.n_cells(); ++c) {
    EXPECT_TRUE(g.valid(c));
    EXPECT_EQ(g.cell_at(g.axial(c)), c);
  }
  EXPECT_FALSE(g.valid(-1));
  EXPECT_FALSE(g.valid(20));
  EXPECT_EQ(g.cell_at(Axial{100, 100}), kNoCell);
}

TEST(Grid, InteriorCellHasSixNeighbors) {
  const HexGrid g(5, 5, 1);
  const CellId center = 2 * 5 + 2;
  EXPECT_EQ(g.neighbors(center).size(), 6u);
}

TEST(Grid, CornerCellsHaveFewerNeighbors) {
  const HexGrid g(5, 5, 1);
  EXPECT_LT(g.neighbors(0).size(), 6u);
  EXPECT_GE(g.neighbors(0).size(), 2u);
}

TEST(Grid, NeighborsAreExactlyDistanceOne) {
  const HexGrid g(6, 6, 2);
  for (CellId c = 0; c < g.n_cells(); ++c) {
    for (const CellId n : g.neighbors(c)) EXPECT_EQ(g.distance(c, n), 1);
  }
}

TEST(Grid, InterferenceRegionIsAllWithinRadius) {
  const HexGrid g(6, 6, 2);
  for (CellId a = 0; a < g.n_cells(); ++a) {
    std::set<CellId> in(g.interference(a).begin(), g.interference(a).end());
    for (CellId b = 0; b < g.n_cells(); ++b) {
      if (a == b) continue;
      EXPECT_EQ(in.contains(b), g.distance(a, b) <= 2)
          << "cells " << a << "," << b;
    }
  }
}

TEST(Grid, InterferenceIsSymmetric) {
  const HexGrid g(7, 7, 2);
  for (CellId a = 0; a < g.n_cells(); ++a) {
    for (const CellId b : g.interference(a)) {
      const auto in_b = g.interference(b);
      EXPECT_TRUE(std::find(in_b.begin(), in_b.end(), a) != in_b.end());
    }
  }
}

TEST(Grid, InteriorInterferenceDegreeIs18ForRadius2) {
  const HexGrid g(8, 8, 2);
  // A cell at least 2 away from every border sees the full 6 + 12 = 18.
  const CellId center = 4 * 8 + 4;
  EXPECT_EQ(g.interference(center).size(), 18u);
  EXPECT_EQ(g.max_interference_degree(), 18);
}

TEST(Grid, SingleCellGridHasNoNeighbors) {
  const HexGrid g(1, 1, 2);
  EXPECT_EQ(g.n_cells(), 1);
  EXPECT_TRUE(g.neighbors(0).empty());
  EXPECT_TRUE(g.interference(0).empty());
}

// --------------------------------------------------------- channel set ----

TEST(ChannelSet, InsertEraseContains) {
  ChannelSet s(70);
  EXPECT_TRUE(s.empty());
  s.insert(0);
  s.insert(69);
  s.insert(33);
  EXPECT_TRUE(s.contains(0));
  EXPECT_TRUE(s.contains(69));
  EXPECT_FALSE(s.contains(34));
  EXPECT_EQ(s.size(), 3);
  s.erase(33);
  EXPECT_FALSE(s.contains(33));
  EXPECT_EQ(s.size(), 2);
}

TEST(ChannelSet, ContainsOutOfUniverseIsFalse) {
  ChannelSet s(10);
  EXPECT_FALSE(s.contains(-1));
  EXPECT_FALSE(s.contains(10));
  EXPECT_FALSE(s.contains(kNoChannel));
}

TEST(ChannelSet, AllAndComplement) {
  const ChannelSet all = ChannelSet::all(70);
  EXPECT_EQ(all.size(), 70);
  ChannelSet s(70);
  s.insert(5);
  const ChannelSet c = s.complement();
  EXPECT_EQ(c.size(), 69);
  EXPECT_FALSE(c.contains(5));
  EXPECT_TRUE((s | c) == all);
}

TEST(ChannelSet, FirstAndNextAfterIterateInOrder) {
  ChannelSet s(128);
  s.insert(3);
  s.insert(64);
  s.insert(127);
  EXPECT_EQ(s.first(), 3);
  EXPECT_EQ(s.next_after(3), 64);
  EXPECT_EQ(s.next_after(64), 127);
  EXPECT_EQ(s.next_after(127), kNoChannel);
  EXPECT_EQ(s.to_vector(), (std::vector<ChannelId>{3, 64, 127}));
}

TEST(ChannelSet, EmptySetIteration) {
  const ChannelSet s(64);
  EXPECT_EQ(s.first(), kNoChannel);
  EXPECT_EQ(s.next_after(-1), kNoChannel);
  EXPECT_TRUE(s.to_vector().empty());
}

TEST(ChannelSet, SetAlgebra) {
  ChannelSet a(32), b(32);
  a.insert(1);
  a.insert(2);
  a.insert(3);
  b.insert(2);
  b.insert(4);
  EXPECT_EQ((a | b).to_vector(), (std::vector<ChannelId>{1, 2, 3, 4}));
  EXPECT_EQ((a & b).to_vector(), (std::vector<ChannelId>{2}));
  EXPECT_EQ((a - b).to_vector(), (std::vector<ChannelId>{1, 3}));
  EXPECT_TRUE(a.intersects(b));
  EXPECT_FALSE((a - b).intersects(b));
}

TEST(ChannelSet, ToStringRendersMembers) {
  ChannelSet s(16);
  s.insert(1);
  s.insert(9);
  EXPECT_EQ(s.to_string(), "{1,9}");
  EXPECT_EQ(ChannelSet(8).to_string(), "{}");
}

// --------------------------------------------------------------- reuse ----

TEST(Reuse, Cluster7IsValidOnRadius2Grid) {
  const HexGrid g(8, 8, 2);
  const ReusePlan plan = ReusePlan::cluster(g, 70, 7);
  EXPECT_EQ(plan.n_colors(), 7);
  EXPECT_TRUE(plan.validate(g));
}

TEST(Reuse, Cluster3IsValidOnRadius1Grid) {
  const HexGrid g(6, 6, 1);
  const ReusePlan plan = ReusePlan::cluster(g, 30, 3);
  EXPECT_EQ(plan.n_colors(), 3);
  EXPECT_TRUE(plan.validate(g));
}

TEST(Reuse, PrimarySetsPartitionTheSpectrum) {
  const HexGrid g(8, 8, 2);
  const ReusePlan plan = ReusePlan::cluster(g, 70, 7);
  // Each cell owns exactly 70/7 = 10 channels.
  for (CellId c = 0; c < g.n_cells(); ++c) {
    EXPECT_EQ(plan.primary(c).size(), 10);
  }
  // Interfering cells have disjoint primary sets.
  for (CellId a = 0; a < g.n_cells(); ++a) {
    for (const CellId b : g.interference(a)) {
      EXPECT_FALSE(plan.primary(a).intersects(plan.primary(b)));
    }
  }
}

TEST(Reuse, UnevenSpectrumStillPartitions) {
  const HexGrid g(8, 8, 2);
  const ReusePlan plan = ReusePlan::cluster(g, 72, 7);  // 72 = 7*10 + 2
  EXPECT_TRUE(plan.validate(g));
  int total = 0;
  std::set<int> seen_sizes;
  for (int col = 0; col < 7; ++col) {
    // Find one cell of this colour and count its primaries.
    for (CellId c = 0; c < g.n_cells(); ++c) {
      if (plan.color_of(c) == col) {
        total += plan.primary(c).size();
        seen_sizes.insert(plan.primary(c).size());
        break;
      }
    }
  }
  EXPECT_EQ(total, 72);
  for (const int s : seen_sizes) EXPECT_TRUE(s == 10 || s == 11);
}

TEST(Reuse, IsPrimaryMatchesPrimarySet) {
  const HexGrid g(4, 4, 2);
  const ReusePlan plan = ReusePlan::cluster(g, 21, 7);
  for (CellId c = 0; c < g.n_cells(); ++c) {
    for (ChannelId ch = 0; ch < 21; ++ch) {
      EXPECT_EQ(plan.is_primary(c, ch), plan.primary(c).contains(ch));
    }
  }
}

TEST(Reuse, PrimaryCellsOfChannelAgreeWithColors) {
  const HexGrid g(6, 6, 2);
  const ReusePlan plan = ReusePlan::cluster(g, 70, 7);
  for (ChannelId ch = 0; ch < 7; ++ch) {
    for (const CellId c : plan.primary_cells_of(ch)) {
      EXPECT_EQ(plan.color_of(c), plan.color_of_channel(ch));
    }
  }
}

TEST(Reuse, PrimariesInInterferenceAreCorrect) {
  const HexGrid g(8, 8, 2);
  const ReusePlan plan = ReusePlan::cluster(g, 70, 7);
  const CellId center = 4 * 8 + 4;
  for (ChannelId ch = 0; ch < 7; ++ch) {
    const auto np = plan.primaries_in_interference(g, center, ch);
    for (const CellId p : np) {
      EXPECT_TRUE(g.interferes(center, p));
      EXPECT_TRUE(plan.is_primary(p, ch));
    }
    if (plan.color_of_channel(ch) != plan.color_of(center)) {
      // Interior cells see every other colour at least once within radius 2
      // (covering property of the cluster-7 pattern).
      EXPECT_GE(np.size(), 1u);
    }
  }
}

TEST(Reuse, GreedyColoringIsProperOnAnyRadius) {
  for (const int radius : {1, 2, 3}) {
    const HexGrid g(7, 9, radius);
    const ReusePlan plan = ReusePlan::greedy(g, 63);
    EXPECT_TRUE(plan.validate(g)) << "radius " << radius;
    // Greedy needs at least as many colours as the largest clique lower
    // bound (radius-1 cliques of size 3 exist everywhere).
    EXPECT_GE(plan.n_colors(), 3);
  }
}

TEST(Reuse, Cluster7CoChannelCellsAreAtLeast3Apart) {
  const HexGrid g(10, 10, 2);
  const ReusePlan plan = ReusePlan::cluster(g, 70, 7);
  for (CellId a = 0; a < g.n_cells(); ++a) {
    for (CellId b = a + 1; b < g.n_cells(); ++b) {
      if (plan.color_of(a) == plan.color_of(b)) {
        EXPECT_GE(g.distance(a, b), 3);
      }
    }
  }
}

// ----------------------------------------------------------- toroidal ----

TEST(Torus, EveryCellHasFullInteriorNeighborhood) {
  const HexGrid g(14, 14, 2, Wrap::kToroidal);
  for (CellId c = 0; c < g.n_cells(); ++c) {
    EXPECT_EQ(g.neighbors(c).size(), 6u) << "cell " << c;
    EXPECT_EQ(g.interference(c).size(), 18u) << "cell " << c;
  }
  EXPECT_EQ(g.max_interference_degree(), 18);
  EXPECT_DOUBLE_EQ(g.mean_interference_degree(), 18.0);
}

TEST(Torus, DistanceWrapsAroundBothSeams) {
  const HexGrid g(14, 14, 2, Wrap::kToroidal);
  // First and last column of row 0 are adjacent through the wrap.
  EXPECT_EQ(g.distance(0, 13), 1);
  // First and last row are adjacent through the vertical wrap.
  EXPECT_LE(g.distance(0, 13 * 14), 2);
  // Distance never exceeds the bounded-grid distance.
  const HexGrid bounded(14, 14, 2, Wrap::kBounded);
  for (CellId a = 0; a < g.n_cells(); a += 17) {
    for (CellId b = 0; b < g.n_cells(); b += 13) {
      EXPECT_LE(g.distance(a, b), bounded.distance(a, b));
    }
  }
}

TEST(Torus, DistanceIsSymmetric) {
  const HexGrid g(14, 14, 2, Wrap::kToroidal);
  for (CellId a = 0; a < g.n_cells(); a += 7) {
    for (CellId b = 0; b < g.n_cells(); b += 11) {
      EXPECT_EQ(g.distance(a, b), g.distance(b, a)) << a << "," << b;
    }
  }
}

TEST(Torus, InterferenceSymmetricAcrossSeams) {
  const HexGrid g(14, 14, 2, Wrap::kToroidal);
  for (CellId a = 0; a < g.n_cells(); ++a) {
    for (const CellId b : g.interference(a)) {
      const auto in_b = g.interference(b);
      EXPECT_TRUE(std::find(in_b.begin(), in_b.end(), a) != in_b.end());
    }
  }
}

TEST(Torus, Cluster7ColoringStaysProperWhenDimensionsAlign) {
  // rows % 14 == 0 and cols % 7 == 0 make the linear-form colouring
  // consistent across both seams.
  const HexGrid g(14, 14, 2, Wrap::kToroidal);
  const ReusePlan plan = ReusePlan::cluster(g, 70, 7);
  EXPECT_TRUE(plan.validate(g));
}

TEST(Torus, Cluster7ColoringBreaksOnMisalignedDimensions) {
  // cols = 8 is not a multiple of 7: the colouring conflicts across the
  // horizontal seam and validation must catch it.
  const HexGrid g(14, 8, 2, Wrap::kToroidal);
  const ReusePlan plan = ReusePlan::cluster(g, 70, 7);
  EXPECT_FALSE(plan.validate(g));
}

TEST(Torus, GreedyColoringWorksOnAnyTorus) {
  const HexGrid g(8, 9, 2, Wrap::kToroidal);
  const ReusePlan plan = ReusePlan::greedy(g, 63);
  EXPECT_TRUE(plan.validate(g));
}

// The geometric property the advanced-update scheme relies on: for interior
// cells, every pair of interfering cells shares, for every foreign colour,
// a primary of that colour visible to both (see DESIGN.md).
// ------------------------------------------------------------- oracle ----

// The O(cells^2) definition of the grid's lists: every other cell within
// `radius` hops, scanned in ascending id order.
std::vector<CellId> scan_within(const HexGrid& g, CellId a, int radius) {
  std::vector<CellId> out;
  for (CellId b = 0; b < g.n_cells(); ++b) {
    if (b != a && g.distance(a, b) <= radius) out.push_back(b);
  }
  return out;
}

void expect_lists_match_scan(const HexGrid& g) {
  SCOPED_TRACE(::testing::Message()
               << g.rows() << "x" << g.cols() << " r=" << g.interference_radius()
               << (g.wrap() == Wrap::kToroidal ? " torus" : " bounded"));
  for (CellId a = 0; a < g.n_cells(); ++a) {
    const auto nb = g.neighbors(a);
    const auto in = g.interference(a);
    ASSERT_EQ(std::vector<CellId>(nb.begin(), nb.end()), scan_within(g, a, 1))
        << "neighbours of cell " << a;
    ASSERT_EQ(std::vector<CellId>(in.begin(), in.end()),
              scan_within(g, a, g.interference_radius()))
        << "interference region of cell " << a;
  }
}

// The hex-ball walk yields exactly the pairwise-distance scan, element for
// element (broadcast fan-out order depends on it), on bounded grids of
// every shape, including rows or columns narrower than the ball.
TEST(GridOracle, BoundedListsEqualDistanceScan) {
  const int sides[] = {1, 2, 3, 4, 5, 7, 10, 13, 24};
  for (int radius = 1; radius <= 4; ++radius)
    for (const int rows : sides)
      for (const int cols : sides)
        expect_lists_match_scan(HexGrid(rows, cols, radius));
}

// Same on every legal torus shape near the smallest one (even rows, both
// sides > 2r), where the ball reaches across one or both seams, and on a
// larger one with an interior.
TEST(GridOracle, ToroidalListsEqualDistanceScan) {
  for (int radius = 1; radius <= 4; ++radius) {
    const int min_side = 2 * radius + 1;
    for (int rows = min_side + 1; rows <= min_side + 5; rows += 2)
      for (int cols = min_side; cols <= min_side + 4; ++cols)
        expect_lists_match_scan(HexGrid(rows, cols, radius, Wrap::kToroidal));
    expect_lists_match_scan(HexGrid(14, 21, radius, Wrap::kToroidal));
  }
}

TEST(Reuse, InteriorArbitrationCoverageHolds) {
  const HexGrid g(12, 12, 2);
  const ReusePlan plan = ReusePlan::cluster(g, 70, 7);
  // Pick a deep-interior cell: at offset (5,5), at least 4 from any edge.
  const CellId c = 5 * 12 + 5;
  for (const CellId other : g.interference(c)) {
    for (int k = 0; k < 7; ++k) {
      if (k == plan.color_of(c) || k == plan.color_of(other)) continue;
      bool found = false;
      for (const CellId p : g.interference(c)) {
        if (plan.color_of(p) == k && (p == other || g.interferes(p, other))) {
          found = true;
          break;
        }
      }
      EXPECT_TRUE(found) << "cell " << c << " other " << other << " colour " << k;
    }
  }
}

}  // namespace
}  // namespace dca::cell
