#include "linalg/reorder.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "core/benchmarks.hpp"
#include "irdrop/solver.hpp"
#include "linalg/coo.hpp"
#include "linalg/sparse_chol.hpp"
#include "pdn/stack_builder.hpp"
#include "stitched_mesh.hpp"
#include "util/fnv.hpp"

namespace pdn3d::linalg {
namespace {

/// SPD conductance matrix over @p n nodes: unit conductance per edge and a
/// small ground tap on every node, so even isolated nodes stay positive.
Csr make_graph(std::size_t n, const std::vector<std::pair<std::size_t, std::size_t>>& edges) {
  CooBuilder b(n);
  for (const auto& [u, v] : edges) b.stamp_conductance(u, v, 1.0);
  for (std::size_t i = 0; i < n; ++i) b.stamp_to_ground(i, 0.1);
  return b.compress();
}

Csr make_grid(std::size_t nx, std::size_t ny) {
  std::vector<std::pair<std::size_t, std::size_t>> edges;
  for (std::size_t j = 0; j < ny; ++j) {
    for (std::size_t i = 0; i < nx; ++i) {
      const std::size_t k = j * nx + i;
      if (i + 1 < nx) edges.emplace_back(k, k + 1);
      if (j + 1 < ny) edges.emplace_back(k, k + nx);
    }
  }
  return make_graph(nx * ny, edges);
}

void expect_valid_permutation(const std::vector<std::size_t>& perm, std::size_t n,
                              const std::string& what) {
  ASSERT_EQ(perm.size(), n) << what;
  std::vector<char> seen(n, 0);
  for (const std::size_t v : perm) {
    ASSERT_LT(v, n) << what;
    EXPECT_EQ(seen[v], 0) << what << ": node " << v << " appears twice";
    seen[v] = 1;
  }
}

TEST(Amd, ValidDeterministicPermutationOnEdgeCaseGraphs) {
  const struct {
    std::string name;
    Csr a;
  } cases[] = {
      {"empty", make_graph(0, {})},
      {"one node", make_graph(1, {})},
      {"isolated nodes", make_graph(5, {})},
      {"two components", make_graph(7, {{0, 1}, {1, 2}, {2, 0}, {3, 4}, {4, 5}, {5, 6}})},
      {"star", make_graph(6, {{0, 1}, {0, 2}, {0, 3}, {0, 4}, {0, 5}})},
  };
  for (const auto& c : cases) {
    const auto perm = amd_ordering(c.a);
    expect_valid_permutation(perm, c.a.dimension(), c.name);
    // A pure function of the pattern: the same permutation every call.
    EXPECT_EQ(amd_ordering(c.a), perm) << c.name;
  }
}

TEST(Amd, IsolatedNodesKeepIndexOrder) {
  // Every node has degree 0, so ties alone decide: lowest index first.
  const auto perm = amd_ordering(make_graph(5, {}));
  EXPECT_EQ(perm, (std::vector<std::size_t>{0, 1, 2, 3, 4}));
}

TEST(Amd, StarFactorsWithoutFill) {
  // Eliminating the hub first (the natural order here) would turn the leaves
  // into a clique; minimum degree takes the leaves first and creates no fill.
  const Csr star = make_graph(6, {{0, 1}, {0, 2}, {0, 3}, {0, 4}, {0, 5}});
  EXPECT_DOUBLE_EQ(SparseCholesky(star, amd_ordering(star)).fill_ratio(), 1.0);
  EXPECT_GT(SparseCholesky(star, identity_ordering(6)).fill_ratio(), 1.0);
}

TEST(Amd, ReadsOnlyThePatternOfAPlusTranspose) {
  // An entry present on one side of the diagonal only still couples both
  // nodes; the ordering must equal the one of the symmetric pattern.
  CooBuilder one_sided(4);
  for (std::size_t i = 0; i < 4; ++i) one_sided.add(i, i, 1.0);
  one_sided.add(0, 3, 0.5);
  one_sided.add(2, 1, 0.5);
  const Csr symmetric = make_graph(4, {{0, 3}, {1, 2}});
  EXPECT_EQ(amd_ordering(one_sided.compress()), amd_ordering(symmetric));
}

TEST(Amd, FillsLessThanIdentityOrderingOnAGrid) {
  // The natural row-by-row order of a 2D mesh is a bandwidth ordering: the
  // band fills in, while minimum degree keeps nnz(L) near n log n.
  const Csr a = make_grid(30, 30);
  const SparseCholesky amd(a, amd_ordering(a));
  const SparseCholesky natural(a, identity_ordering(a.dimension()));
  EXPECT_LT(3 * amd.factor_nnz(), 2 * natural.factor_nnz());
  // The self-ordering constructor ships exactly this ordering.
  EXPECT_EQ(SparseCholesky(a).factor_nnz(), amd.factor_nnz());
}

/// FNV-1a over the permutation, each index as eight little-endian bytes.
std::uint64_t permutation_hash(const std::vector<std::size_t>& perm) {
  util::Fnv1a h;
  for (const std::size_t v : perm) {
    for (int b = 0; b < 8; ++b) h.byte(static_cast<unsigned char>((std::uint64_t{v} >> (8 * b)) & 0xffU));
  }
  return h.value();
}

struct Pin {
  std::uint64_t hash;
  std::size_t factor_nnz;
};

void expect_pinned(const Csr& a, const Pin& pin, const std::string& what) {
  const auto perm = amd_ordering(a);
  EXPECT_EQ(permutation_hash(perm), pin.hash) << what;
  EXPECT_EQ(SparseCholesky(a, perm).factor_nnz(), pin.factor_nnz) << what;
  EXPECT_EQ(SparseCholesky(a).factor_nnz(), pin.factor_nnz) << what;
}

TEST(Amd, PermutationPinnedOnTheBaselines) {
  // The exact permutation, not only its fill: a faster AMD must make the
  // same pivot choices, ties included. Recorded from the heap-and-pool
  // implementation the library shipped before its 32-bit rewrite.
  const Pin pins[] = {
      {0x1b7002643ce50997ULL, 56434},   // off-chip
      {0xe262f4839f2aaa12ULL, 85220},   // on-chip
      {0x752f069dfa047716ULL, 111287},  // wide-io
      {0x401854671c289b0eULL, 82576},   // hmc
  };
  const auto benches = core::all_benchmarks();
  ASSERT_EQ(benches.size(), std::size(pins));
  for (std::size_t b = 0; b < benches.size(); ++b) {
    const auto built = pdn::build_stack(benches[b].stack, benches[b].baseline);
    const irdrop::IrSolver solver(built.model, irdrop::SolverKind::kPcgIc);
    expect_pinned(solver.conductance_matrix(), pins[b], benches[b].name);
  }
}

TEST(Amd, PermutationPinnedOnSeededMeshes) {
  const Pin pins[] = {
      {0x64874daa682e675cULL, 415},
      {0x297f10122e75da7fULL, 2159},
      {0x6d1707652cabe6bbULL, 10083},
      {0x6eff05dbf558e80cULL, 26400},
  };
  ASSERT_EQ(std::size(fixtures::kSeededMeshes), std::size(pins));
  for (std::size_t c = 0; c < std::size(pins); ++c) {
    const fixtures::SeededMesh& m = fixtures::kSeededMeshes[c];
    expect_pinned(fixtures::make_stitched_mesh(m.seed, m.nx, m.ny), pins[c],
                  "seed " + std::to_string(m.seed));
  }
}

}  // namespace
}  // namespace pdn3d::linalg
