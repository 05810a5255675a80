#include "pdn/layer_grid.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <vector>

namespace pdn3d::pdn {

std::size_t LayerGrid::node(int i, int j) const {
  if (i < 0 || i >= nx || j < 0 || j >= ny) throw std::out_of_range("LayerGrid::node");
  return base + static_cast<std::size_t>(j) * static_cast<std::size_t>(nx) +
         static_cast<std::size_t>(i);
}

floorplan::Point LayerGrid::position(int i, int j) const {
  return {x0 + (static_cast<double>(i) + 0.5) * dx, y0 + (static_cast<double>(j) + 0.5) * dy};
}

std::size_t LayerGrid::nearest(double x, double y) const {
  const int i = std::clamp(static_cast<int>(std::floor((x - x0) / dx)), 0, nx - 1);
  const int j = std::clamp(static_cast<int>(std::floor((y - y0) / dy)), 0, ny - 1);
  return node(i, j);
}

std::vector<std::size_t> LayerGrid::nodes_in(const floorplan::Rect& r) const {
  // Rect::contains is separable: a column's x and a row's y are each tested
  // once (same position() arithmetic, same closed-edge comparisons), and
  // the nodes come out in the full scan's row-major (j, i) order.
  std::vector<int> columns;
  for (int i = 0; i < nx; ++i) {
    const double x = position(i, 0).x;
    if (x >= r.x0 && x <= r.x1) columns.push_back(i);
  }
  std::vector<std::size_t> out;
  if (!columns.empty()) {
    for (int j = 0; j < ny; ++j) {
      const double y = position(0, j).y;
      if (!(y >= r.y0 && y <= r.y1)) continue;
      for (const int i : columns) out.push_back(node(i, j));
    }
  }
  if (out.empty()) {
    const auto c = r.center();
    out.push_back(nearest(c.x, c.y));
  }
  return out;
}

}  // namespace pdn3d::pdn
