#pragma once

/// @file coo.hpp
/// @brief Coordinate-format (triplet) sparse matrix builder.
///
/// Circuit stamping naturally produces duplicate (row, col) entries -- one per
/// element incident on a node pair. CooBuilder accumulates triplets and
/// compresses them (summing duplicates) into a CSR matrix.

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "linalg/csr.hpp"

namespace pdn3d::linalg {

/// Where a triplet sequence lands in its compressed matrix: the pattern of
/// the summed (row, col) pairs and, per triplet, the index of its entry. It
/// depends on the (row, col) sequence only, so a sweep that stamps one
/// topology with new values builds it once and sums each design point's
/// values straight into the slots.
struct CooLayout {
  std::shared_ptr<const CsrPattern> pattern;
  std::vector<std::uint32_t> slots;  ///< entry of triplet k, in stamp order
};

/// The layout of triplets (rows[k], cols[k]) in compress()'s order: a stable
/// counting sort by row, then a stable insertion sort by column within each
/// row (linear in the triplet count for a mesh's short rows); duplicates
/// share one entry. @throws std::out_of_range for an index >= n,
/// std::length_error past 32-bit slots.
[[nodiscard]] CooLayout coo_layout(std::size_t n, std::span<const std::size_t> rows,
                                   std::span<const std::size_t> cols);

/// The matrix whose entries are @p values over @p layout's pattern, with an
/// entry that is exactly 0.0 dropped as compress() drops it. The pattern is
/// shared when nothing is dropped, so same-topology matrices keep one.
[[nodiscard]] Csr assemble(const CooLayout& layout, std::vector<double> values);

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

  /// Build a CSR matrix over coo_layout() of the triplets: the duplicates of
  /// one (row, col) sum left to right in insertion order, starting from 0.0,
  /// so the values are a pure function of the stamp sequence; an entry whose
  /// sum is exactly 0.0 is dropped (assemble()). The builder remains valid
  /// and may keep accumulating (compress again for an updated matrix).
  [[nodiscard]] Csr compress() const;

 private:
  std::size_t n_;
  std::vector<std::size_t> rows_;
  std::vector<std::size_t> cols_;
  std::vector<double> vals_;
};

}  // namespace pdn3d::linalg
