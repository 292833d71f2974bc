// Guard against a quadratic world set-up: a 300x300 torus (the metro grid)
// must build its geometry, link table and validated scenario in linear
// time. The ctest TIMEOUT on this binary is the gate — a pairwise-distance
// build of the interference regions takes ~26 s here even in a release
// build, while the hex-ball walk takes well under a second in Debug.
#include <cstddef>

#include <gtest/gtest.h>

#include "cell/grid.hpp"
#include "net/link_table.hpp"
#include "runner/scenario.hpp"

namespace dca {
namespace {

constexpr int kSide = 300;
constexpr int kCells = kSide * kSide;

TEST(GridScale, MetroTorusBuildsInLinearTime) {
  const cell::HexGrid grid(kSide, kSide, 2, cell::Wrap::kToroidal);
  // Closed form on a torus: every cell has 6 neighbours and 6 + 12 = 18
  // cells in its radius-2 region.
  int off_form = 0;
  for (cell::CellId c = 0; c < grid.n_cells(); ++c) {
    if (grid.neighbors(c).size() != 6 || grid.interference(c).size() != 18) ++off_form;
  }
  EXPECT_EQ(off_form, 0);
  EXPECT_EQ(grid.max_interference_degree(), 18);

  const net::LinkTable links(grid);
  ASSERT_EQ(links.n_links(), 18 * kCells);
  int bad_ids = 0;
  for (net::LinkId lid = 0; lid < links.n_links(); ++lid) {
    const auto [from, to] = links.endpoints(lid);
    if (links.id(from, to) != lid) ++bad_ids;
  }
  EXPECT_EQ(bad_ids, 0);

  // validate_scenario builds the grid again and colours it; a cluster-7
  // pattern does not tile 300x300, so the greedy plan colours it.
  runner::ScenarioConfig cfg;
  cfg.rows = kSide;
  cfg.cols = kSide;
  cfg.interference_radius = 2;
  cfg.wrap = cell::Wrap::kToroidal;
  cfg.greedy_plan = true;
  EXPECT_EQ(runner::validate_scenario(cfg), "");
}

}  // namespace
}  // namespace dca
