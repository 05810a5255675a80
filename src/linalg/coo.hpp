#pragma once

/// @file coo.hpp
/// @brief Coordinate-format (triplet) sparse matrix builder.
///
/// Circuit stamping naturally produces duplicate (row, col) entries -- one per
/// element incident on a node pair. CooBuilder accumulates triplets and
/// compresses them (summing duplicates) into a CSR matrix.

#include <cstddef>
#include <vector>

#include "linalg/csr.hpp"

namespace pdn3d::linalg {

class CooBuilder {
 public:
  /// @param n matrix dimension (square matrices only -- nodal analysis).
  explicit CooBuilder(std::size_t n);

  /// Pre-size the triplet storage for @p triplets entries (a capacity hint;
  /// callers that know their stamp count avoid the vectors' regrowth).
  void reserve(std::size_t triplets);

  /// Accumulate @p value at (row, col). Duplicates sum on compression.
  void add(std::size_t row, std::size_t col, double value);

  /// Stamp a two-terminal conductance @p g between nodes @p a and @p b:
  ///   G[a][a] += g, G[b][b] += g, G[a][b] -= g, G[b][a] -= g.
  void stamp_conductance(std::size_t a, std::size_t b, double g);

  /// Stamp conductance @p g from node @p a to ground (diagonal only).
  void stamp_to_ground(std::size_t a, double g);

  [[nodiscard]] std::size_t dimension() const { return n_; }
  [[nodiscard]] std::size_t triplet_count() const { return rows_.size(); }

  /// Build a CSR matrix without a comparison sort over the triplets: a
  /// stable counting sort by row, then a stable insertion sort by column
  /// within each row (linear in the triplet count for a mesh's short rows).
  /// The duplicates of one (row, col) sum left to right in insertion order,
  /// starting from 0.0, so the values are a pure function of the stamp
  /// sequence; an entry whose sum is exactly 0.0 is dropped. The builder
  /// remains valid and may keep accumulating (compress again for an updated
  /// matrix).
  [[nodiscard]] Csr compress() const;

 private:
  std::size_t n_;
  std::vector<std::size_t> rows_;
  std::vector<std::size_t> cols_;
  std::vector<double> vals_;
};

}  // namespace pdn3d::linalg
