#pragma once

/// @file reorder.hpp
/// @brief Symmetric orderings: approximate minimum degree (AMD) for sparse
/// Cholesky, reverse Cuthill-McKee (RCM) for the banded factor.
///
/// The two serve different factor layouts. A sparse factor stores only the
/// structural nonzeros of L, so what matters is fill: AMD greedily
/// eliminates the node whose elimination creates the fewest new edges, and
/// on the TSV-stitched 3D stack meshes it leaves nnz(L) at 5-6x the lower
/// triangle of G where RCM leaves 43-74x. SparseCholesky applies it to every
/// matrix it factors. A banded factor stores the whole band, so what matters
/// there is bandwidth: power-grid meshes are near-planar, after RCM their
/// bandwidth is O(grid width), and BandedCholesky (kBandedDirect) uses it.

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
/// a pure function of the sparsity pattern. Same convention as rcm_ordering:
/// new index k corresponds to old index perm[k].
std::vector<std::size_t> amd_ordering(const Csr& a);

/// Returns a permutation `perm` such that new index k corresponds to old
/// index perm[k]. Handles disconnected graphs (each component ordered from a
/// minimum-degree peripheral seed).
std::vector<std::size_t> rcm_ordering(const Csr& a);

/// Half-bandwidth of A under a permutation: max |pos[i] - pos[j]| over
/// nonzero off-diagonal entries, where pos is the inverse permutation.
std::size_t bandwidth_under(const Csr& a, const std::vector<std::size_t>& perm);

/// Identity permutation (for comparing orderings).
std::vector<std::size_t> identity_ordering(std::size_t n);

}  // namespace pdn3d::linalg
