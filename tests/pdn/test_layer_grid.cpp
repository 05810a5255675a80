#include "pdn/layer_grid.hpp"

#include <gtest/gtest.h>

#include <vector>

namespace pdn3d::pdn {
namespace {

LayerGrid make_test_grid() {
  LayerGrid g;
  g.die = 0;
  g.layer = 0;
  g.nx = 4;
  g.ny = 3;
  g.x0 = 1.0;
  g.y0 = 2.0;
  g.dx = 0.5;
  g.dy = 0.5;
  g.base = 100;
  return g;
}

TEST(LayerGrid, NodeIdsRowMajorFromBase) {
  const LayerGrid g = make_test_grid();
  EXPECT_EQ(g.node(0, 0), 100u);
  EXPECT_EQ(g.node(3, 0), 103u);
  EXPECT_EQ(g.node(0, 1), 104u);
  EXPECT_EQ(g.node(3, 2), 111u);
  EXPECT_EQ(g.size(), 12u);
}

TEST(LayerGrid, NodeRangeChecked) {
  const LayerGrid g = make_test_grid();
  EXPECT_THROW((void)g.node(4, 0), std::out_of_range);
  EXPECT_THROW((void)g.node(0, 3), std::out_of_range);
  EXPECT_THROW((void)g.node(-1, 0), std::out_of_range);
}

TEST(LayerGrid, PositionsAreCellCentered) {
  const LayerGrid g = make_test_grid();
  const auto p = g.position(0, 0);
  EXPECT_DOUBLE_EQ(p.x, 1.25);
  EXPECT_DOUBLE_EQ(p.y, 2.25);
}

TEST(LayerGrid, NearestClampsOutside) {
  const LayerGrid g = make_test_grid();
  EXPECT_EQ(g.nearest(-100.0, -100.0), g.node(0, 0));
  EXPECT_EQ(g.nearest(100.0, 100.0), g.node(3, 2));
}

TEST(LayerGrid, NearestFindsContainingCell) {
  const LayerGrid g = make_test_grid();
  EXPECT_EQ(g.nearest(1.3, 2.3), g.node(0, 0));
  EXPECT_EQ(g.nearest(1.8, 2.8), g.node(1, 1));
}

TEST(LayerGrid, NodesInRect) {
  const LayerGrid g = make_test_grid();
  // Rect covering the first two columns of the bottom row.
  const auto nodes = g.nodes_in({1.0, 2.0, 2.0, 2.5});
  EXPECT_EQ(nodes.size(), 2u);
}

TEST(LayerGrid, NodesInTinyRectFallsBackToNearest) {
  const LayerGrid g = make_test_grid();
  const auto nodes = g.nodes_in({1.26, 2.26, 1.27, 2.27});  // contains no center
  ASSERT_EQ(nodes.size(), 1u);
  EXPECT_EQ(nodes[0], g.node(0, 0));
}

/// The definition nodes_in must reproduce: every cell center tested
/// against Rect::contains in row-major (j, i) order, else the node nearest
/// the rect's center.
std::vector<std::size_t> full_scan(const LayerGrid& g, const floorplan::Rect& r) {
  std::vector<std::size_t> out;
  for (int j = 0; j < g.ny; ++j) {
    for (int i = 0; i < g.nx; ++i) {
      if (r.contains(g.position(i, j))) out.push_back(g.node(i, j));
    }
  }
  if (out.empty()) out.push_back(g.nearest(r.center().x, r.center().y));
  return out;
}

TEST(LayerGrid, NodesInMatchesFullScan) {
  LayerGrid g;
  g.nx = 9;
  g.ny = 7;
  g.x0 = -1.3;
  g.y0 = 0.7;
  g.dx = 0.3;
  g.dy = 0.1;  // not exactly representable: centers carry rounding
  g.base = 40;
  const auto cx = [&](int i) { return g.position(i, 0).x; };
  const auto cy = [&](int j) { return g.position(0, j).y; };
  const std::vector<floorplan::Rect> rects = {
      // Edges exactly on cell centers (closed edges include them).
      {cx(1), cy(2), cx(5), cy(4)},
      {cx(0), cy(0), cx(8), cy(6)},
      // Zero width or height on a center line: one column / one row.
      {cx(3), cy(1), cx(3), cy(5)},
      {cx(2), cy(3), cx(7), cy(3)},
      {cx(4), cy(4), cx(4), cy(4)},
      // Partly outside the grid, on each side.
      {-50.0, cy(2), cx(2), 50.0},
      {cx(6), -50.0, 50.0, cy(1)},
      {-50.0, -50.0, 50.0, 50.0},
      // A hair inside / outside a center.
      {cx(2) + 1e-12, cy(2) - 1e-12, cx(5) - 1e-12, cy(5) + 1e-12},
      // No center inside: the nearest-node fallback.
      {cx(1) + 0.01, cy(1) + 0.01, cx(1) + 0.02, cy(1) + 0.02},
      {100.0, 100.0, 101.0, 101.0},
      {-100.0, 3.0, -99.0, 4.0},
      // Inverted (empty) rectangles fall back too.
      {cx(5), cy(1), cx(2), cy(4)},
      {cx(1), cy(4), cx(5), cy(2)},
  };
  for (std::size_t k = 0; k < rects.size(); ++k) {
    EXPECT_EQ(g.nodes_in(rects[k]), full_scan(g, rects[k])) << "rect " << k;
  }
}

}  // namespace
}  // namespace pdn3d::pdn
