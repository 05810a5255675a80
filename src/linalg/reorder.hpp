#pragma once

/// @file reorder.hpp
/// @brief Approximate minimum degree (AMD), the fill-reducing symmetric
/// ordering of every sparse Cholesky factor.
///
/// A sparse factor stores only the structural nonzeros of L, so what matters
/// is fill: AMD greedily eliminates the node whose elimination creates the
/// fewest new edges, and on the TSV-stitched 3D stack meshes it leaves nnz(L)
/// at 5-6x the lower triangle of G, where the reverse Cuthill-McKee bandwidth
/// ordering it replaced left 43-74x. SparseCholesky applies it to every
/// matrix it factors.

#include <cstddef>
#include <vector>

#include "linalg/csr.hpp"

namespace pdn3d::linalg {

/// Approximate-minimum-degree fill-reducing ordering of the symmetric
/// pattern of @p a (A + A^T; values and the diagonal are ignored). Runs on
/// a quotient graph with element absorption, supervariables (indistinguishable
/// nodes eliminated together), mass elimination and Amestoy-Davis-Duff
/// approximate external degrees. The pivot is the live supervariable of least
/// approximate degree, ties going to the lowest node index, so the result is
/// a pure function of the sparsity pattern. New index k corresponds to old
/// index perm[k].
std::vector<std::size_t> amd_ordering(const Csr& a);

/// Identity permutation (for comparing orderings).
std::vector<std::size_t> identity_ordering(std::size_t n);

}  // namespace pdn3d::linalg
