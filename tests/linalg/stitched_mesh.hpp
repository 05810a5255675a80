#pragma once

/// @file stitched_mesh.hpp
/// @brief The seeded TSV-stitched-looking meshes the ordering and factor pins
/// are recorded on.

#include <cstddef>
#include <cstdint>

#include "linalg/coo.hpp"
#include "util/rng.hpp"

namespace pdn3d::linalg::fixtures {

/// A TSV-stitched-looking SPD mesh: a perturbed grid, random long-range
/// edges and a few ground taps.
inline Csr make_stitched_mesh(std::uint64_t seed, int nx, int ny) {
  util::Rng rng(seed);
  const auto n = static_cast<std::size_t>(nx * ny);
  CooBuilder b(n);
  for (int j = 0; j < ny; ++j) {
    for (int i = 0; i < nx; ++i) {
      const auto k = static_cast<std::size_t>(j * nx + i);
      if (i + 1 < nx) b.stamp_conductance(k, k + 1, 0.5 + rng.next_double());
      if (j + 1 < ny) b.stamp_conductance(k, k + static_cast<std::size_t>(nx), 0.5 + rng.next_double());
    }
  }
  for (int e = 0; e < nx + ny; ++e) {
    const auto u = static_cast<std::size_t>(rng.next_double() * double(n - 1));
    const auto v = static_cast<std::size_t>(rng.next_double() * double(n - 1));
    if (u != v) b.stamp_conductance(u, v, 0.1 + rng.next_double());
  }
  for (int t = 0; t < 4; ++t) {
    b.stamp_to_ground(static_cast<std::size_t>(rng.next_double() * double(n - 1)),
                      0.05 + rng.next_double());
  }
  return b.compress();
}

/// The seeded meshes of the pins: seed and grid size.
struct SeededMesh {
  std::uint64_t seed;
  int nx;
  int ny;
};
inline constexpr SeededMesh kSeededMeshes[] = {{11, 9, 7}, {12, 17, 13}, {13, 30, 24}, {14, 41, 37}};

}  // namespace pdn3d::linalg::fixtures
