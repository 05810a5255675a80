#include "linalg/sparse_chol.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <cstdlib>
#include <cstring>
#include <new>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/benchmarks.hpp"
#include "exec/cancel.hpp"
#include "exec/thread_pool.hpp"
#include "faults/faults.hpp"
#include "irdrop/solver.hpp"
#include "linalg/coo.hpp"
#include "linalg/dense.hpp"
#include "linalg/reorder.hpp"
#include "pdn/stack_builder.hpp"
#include "stitched_mesh.hpp"
#include "util/fnv.hpp"
#include "util/rng.hpp"

namespace {

/// Bytes this thread allocates through operator new while counting is on.
thread_local bool g_counting = false;
thread_local std::size_t g_counted_bytes = 0;

}  // namespace

void* operator new(std::size_t size) {
  if (g_counting) g_counted_bytes += size;
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}

// Out of line, so the compiler does not pair the free() with the vectors'
// operator new calls it inlines.
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace pdn3d::linalg {
namespace {

/// 2D grid conductance matrix with ground taps -- the PDN structure.
Csr make_grid(int nx, int ny, double g_edge = 1.0, double g_ground = 0.2) {
  CooBuilder b(static_cast<std::size_t>(nx * ny));
  for (int j = 0; j < ny; ++j) {
    for (int i = 0; i < nx; ++i) {
      const auto k = static_cast<std::size_t>(j * nx + i);
      if (i + 1 < nx) b.stamp_conductance(k, k + 1, g_edge);
      if (j + 1 < ny) b.stamp_conductance(k, k + static_cast<std::size_t>(nx), g_edge);
    }
  }
  b.stamp_to_ground(0, g_ground);
  b.stamp_to_ground(static_cast<std::size_t>(nx * ny - 1), g_ground);
  return b.compress();
}

/// Randomized SPD conductance mesh: a grid with randomly perturbed edge
/// conductances, random extra "via" edges, and random ground taps. Every
/// stamp keeps the matrix a diagonally dominant M-matrix, hence SPD.
Csr make_random_mesh(util::Rng& rng, int nx, int ny) {
  const auto n = static_cast<std::size_t>(nx * ny);
  CooBuilder b(n);
  for (int j = 0; j < ny; ++j) {
    for (int i = 0; i < nx; ++i) {
      const auto k = static_cast<std::size_t>(j * nx + i);
      if (i + 1 < nx) b.stamp_conductance(k, k + 1, 0.5 + rng.next_double());
      if (j + 1 < ny) {
        b.stamp_conductance(k, k + static_cast<std::size_t>(nx), 0.5 + rng.next_double());
      }
    }
  }
  // Long-range edges mimic TSV stitching between tiers; they wreck the
  // banded structure, which is exactly the regime sparse Cholesky targets.
  for (int e = 0; e < nx; ++e) {
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

std::vector<double> dense_reference_solve(const Csr& a, const std::vector<double>& b) {
  DenseMatrix d(a.dimension(), a.dimension());
  for (std::size_t i = 0; i < a.dimension(); ++i) {
    for (std::size_t j = 0; j < a.dimension(); ++j) d(i, j) = a.at(i, j);
  }
  return solve_cholesky(std::move(d), b);
}

TEST(SparseCholesky, MatchesDenseSolveOnGrid) {
  const Csr a = make_grid(12, 9);
  const SparseCholesky chol(a);

  util::Rng rng(3);
  std::vector<double> b(a.dimension(), 0.0);
  for (double& x : b) x = rng.next_double();

  const auto x_ref = dense_reference_solve(a, b);
  const auto x = chol.solve(b);
  ASSERT_EQ(x.size(), x_ref.size());
  for (std::size_t i = 0; i < x.size(); ++i) {
    EXPECT_NEAR(x[i], x_ref[i], 1e-10);
  }
}

TEST(SparseCholesky, PropertyMatchesDenseOnRandomizedMeshes) {
  // The headline property test: across many randomized SPD conductance
  // meshes, under both the shipped AMD ordering and the unordered identity,
  // sparse Cholesky agrees with the dense reference to 1e-10.
  util::Rng rng(2026);
  for (int trial = 0; trial < 12; ++trial) {
    const int nx = 4 + trial % 7;
    const int ny = 3 + (trial * 5) % 8;
    const Csr a = make_random_mesh(rng, nx, ny);

    std::vector<double> b(a.dimension(), 0.0);
    for (double& x : b) x = rng.next_double() * 2.0 - 1.0;
    const auto x_ref = dense_reference_solve(a, b);

    const struct {
      const char* name;
      std::vector<std::size_t> perm;
    } orderings[] = {{"identity", identity_ordering(a.dimension())}, {"amd", amd_ordering(a)}};
    for (const auto& ordering : orderings) {
      const SparseCholesky chol(a, ordering.perm);
      const auto x = chol.solve(b);
      for (std::size_t i = 0; i < x.size(); ++i) {
        ASSERT_NEAR(x[i], x_ref[i], 1e-10) << ordering.name << " trial " << trial << " (" << nx
                                            << "x" << ny << ") index " << i;
      }
    }
  }
}

TEST(SparseCholesky, IdentityOrderingAlsoCorrect) {
  const Csr a = make_grid(8, 8);
  const SparseCholesky natural(a, identity_ordering(a.dimension()));
  const SparseCholesky ordered(a);
  std::vector<double> b(a.dimension(), 0.0);
  b[10] = 1.0;
  const auto x1 = natural.solve(b);
  const auto x2 = ordered.solve(b);
  for (std::size_t i = 0; i < x1.size(); ++i) {
    EXPECT_NEAR(x1[i], x2[i], 1e-10);
  }
}

TEST(SparseCholesky, BatchSolveBitwiseMatchesIndividualSolves) {
  util::Rng rng(17);
  const Csr a = make_random_mesh(rng, 9, 7);
  const SparseCholesky chol(a);
  const std::size_t n = a.dimension();

  constexpr std::size_t kCount = 5;
  std::vector<double> b(n * kCount);
  for (double& x : b) x = rng.next_double() * 2.0 - 1.0;

  // The block is node-major: entry i of right-hand side r at i * kCount + r.
  std::vector<double> block(n * kCount);
  for (std::size_t r = 0; r < kCount; ++r) {
    for (std::size_t i = 0; i < n; ++i) block[i * kCount + r] = b[r * n + i];
  }
  chol.solve_block(block, kCount);

  for (std::size_t r = 0; r < kCount; ++r) {
    const auto x_one =
        chol.solve(std::span<const double>(b.data() + r * n, n));
    std::vector<double> x_batch(n);
    for (std::size_t i = 0; i < n; ++i) x_batch[i] = block[i * kCount + r];
    // Bitwise, not approximate: the batched sweeps execute per-RHS
    // arithmetic in the same order as a single solve.
    EXPECT_EQ(0, std::memcmp(x_one.data(), x_batch.data(), n * sizeof(double)))
        << "slice " << r << " differs from individual solve";
  }
}

TEST(SparseCholesky, BatchOfOneMatchesSolve) {
  const Csr a = make_grid(6, 6);
  const SparseCholesky chol(a);
  std::vector<double> b(a.dimension());
  util::Rng rng(5);
  for (double& x : b) x = rng.next_double();
  std::vector<double> x1 = b;
  chol.solve_block(x1, 1);
  const auto x2 = chol.solve(b);
  EXPECT_EQ(0, std::memcmp(x1.data(), x2.data(), x1.size() * sizeof(double)));
}

TEST(SparseCholesky, FillRatioGuardTrips) {
  // A tiny guard must reject the factorization with a descriptive error; the
  // grid's exact fill is irrelevant, only that any fill exceeds ~0 allowance.
  const Csr a = make_grid(10, 10);
  SparseCholeskyOptions opts;
  opts.max_fill_ratio = 0.5;  // nnz(L) >= nnz(lower(A)) always, so this trips
  EXPECT_THROW(SparseCholesky(a, opts), std::runtime_error);
}

TEST(SparseCholesky, ReportsFillStatistics) {
  const Csr a = make_grid(10, 10);
  const SparseCholesky chol(a);
  EXPECT_EQ(chol.dimension(), a.dimension());
  // L contains at least the lower triangle of A (no cancellation here).
  EXPECT_GE(chol.factor_nnz(), a.dimension());
  EXPECT_GE(chol.fill_ratio(), 1.0);
  EXPECT_LE(chol.fill_ratio(), SparseCholeskyOptions{}.max_fill_ratio);
}

TEST(SparseCholesky, RejectsIndefiniteAndBadInput) {
  CooBuilder bb(2);
  bb.add(0, 0, 1.0);
  bb.add(0, 1, 2.0);
  bb.add(1, 0, 2.0);
  bb.add(1, 1, 1.0);
  const Csr indefinite = bb.compress();
  EXPECT_THROW(SparseCholesky(indefinite, identity_ordering(2)), std::runtime_error);

  const Csr a = make_grid(4, 4);
  EXPECT_THROW(SparseCholesky(a, identity_ordering(3)), std::invalid_argument);
  // Duplicate entry makes the vector the right size but not a permutation.
  std::vector<std::size_t> dup = identity_ordering(a.dimension());
  dup[1] = 0;
  EXPECT_THROW(SparseCholesky(a, dup), std::invalid_argument);

  const SparseCholesky ok(a, identity_ordering(a.dimension()));
  const std::vector<double> bad_rhs(3, 0.0);
  EXPECT_THROW(ok.solve(bad_rhs), std::invalid_argument);
  std::vector<double> block(a.dimension() * 2 + 1, 0.0);
  EXPECT_THROW(ok.solve_block(block, 2), std::invalid_argument);
  block.resize(a.dimension() * (kSolveBlock + 1));
  EXPECT_THROW(ok.solve_block(block, kSolveBlock + 1), std::invalid_argument);
  EXPECT_THROW(ok.solve_block(std::span(block).first(0), 0), std::invalid_argument);
}

TEST(SparseCholesky, LinearityOfSolutions) {
  const Csr a = make_grid(10, 10);
  const SparseCholesky chol(a);
  std::vector<double> b1(a.dimension(), 0.0);
  b1[5] = 1.0;
  std::vector<double> b2(a.dimension(), 0.0);
  b2[70] = -2.0;
  const auto x1 = chol.solve(b1);
  const auto x2 = chol.solve(b2);
  std::vector<double> b3(a.dimension(), 0.0);
  b3[5] = 1.0;
  b3[70] = -2.0;
  const auto x3 = chol.solve(b3);
  for (std::size_t i = 0; i < x3.size(); ++i) {
    EXPECT_NEAR(x3[i], x1[i] + x2[i], 1e-10);
  }
}

/// SPD matrix over @p n nodes from an edge list: unit conductance per edge
/// and a small ground tap on every node.
Csr make_graph(std::size_t n, const std::vector<std::pair<std::size_t, std::size_t>>& edges) {
  CooBuilder b(n);
  for (const auto& [u, v] : edges) b.stamp_conductance(u, v, 1.0);
  for (std::size_t i = 0; i < n; ++i) b.stamp_to_ground(i, 0.1 + 0.01 * static_cast<double>(i % 3));
  return b.compress();
}

std::vector<std::pair<std::size_t, std::size_t>> path_edges(std::size_t first, std::size_t n) {
  std::vector<std::pair<std::size_t, std::size_t>> edges;
  for (std::size_t i = first; i + 1 < first + n; ++i) edges.emplace_back(i, i + 1);
  return edges;
}

std::vector<std::pair<std::size_t, std::size_t>> clique_edges(std::size_t first, std::size_t n) {
  std::vector<std::pair<std::size_t, std::size_t>> edges;
  for (std::size_t i = first; i < first + n; ++i) {
    for (std::size_t j = i + 1; j < first + n; ++j) edges.emplace_back(i, j);
  }
  return edges;
}

/// nnz(L) of @p a under @p perm by eliminating a dense boolean pattern.
std::size_t brute_force_factor_nnz(const Csr& a, const std::vector<std::size_t>& perm) {
  const std::size_t n = a.dimension();
  std::vector<std::size_t> pos(n);
  for (std::size_t k = 0; k < n; ++k) pos[perm[k]] = k;
  std::vector<char> p(n * n, 0);
  const auto rp = a.row_ptr();
  const auto ci = a.col_idx();
  for (std::size_t r = 0; r < n; ++r) {
    for (std::size_t q = rp[r]; q < rp[r + 1]; ++q) p[pos[r] * n + pos[ci[q]]] = 1;
  }
  std::size_t count = 0;
  for (std::size_t k = 0; k < n; ++k) {
    for (std::size_t i = k; i < n; ++i) {
      if (p[i * n + k] == 0) continue;
      ++count;
      for (std::size_t j = k + 1; j <= i; ++j) {
        if (i > k && p[j * n + k] != 0) p[i * n + j] = p[j * n + i] = 1;
      }
    }
  }
  return count;
}

TEST(SparseCholesky, SupernodalShapesMatchDenseAndExactFill) {
  // Shapes that stress the supernode partition: one dense supernode, a
  // chain whose merged supernodes carry relaxation zeros, a star whose
  // leaves all update the hub (and, hub first, fill it in), dense blocks
  // among singleton columns, and disconnected components. Each one, under
  // the identity and under AMD, must match the dense reference to 1e-10 and
  // keep exactly the structural nonzeros of L.
  std::vector<std::pair<std::size_t, std::size_t>> blocks;
  for (const auto& [first, size] : {std::pair<std::size_t, std::size_t>{0, 5}, {7, 7}, {16, 9}}) {
    const auto edges = clique_edges(first, size);
    blocks.insert(blocks.end(), edges.begin(), edges.end());
  }
  std::vector<std::pair<std::size_t, std::size_t>> star;
  for (std::size_t leaf = 1; leaf < 31; ++leaf) star.emplace_back(0, leaf);
  std::vector<std::pair<std::size_t, std::size_t>> components = path_edges(0, 12);
  for (std::size_t j = 0; j < 4; ++j) {
    for (std::size_t i = 0; i < 5; ++i) {
      const std::size_t k = 12 + j * 5 + i;
      if (i + 1 < 5) components.emplace_back(k, k + 1);
      if (j + 1 < 4) components.emplace_back(k, k + 5);
    }
  }
  const struct {
    std::string name;
    Csr a;
  } cases[] = {
      {"dense (one supernode)", make_graph(12, clique_edges(0, 12))},
      {"chain", make_graph(40, path_edges(0, 40))},
      {"star", make_graph(31, star)},
      {"blocks among singletons", make_graph(28, blocks)},
      {"disconnected components", make_graph(32, components)},
      {"grid", make_grid(9, 8)},
  };
  util::Rng rng(99);
  for (const auto& c : cases) {
    std::vector<double> b(c.a.dimension());
    for (double& x : b) x = rng.next_double() * 2.0 - 1.0;
    const auto x_ref = dense_reference_solve(c.a, b);
    for (const auto& [order, perm] : {std::pair{"identity", identity_ordering(c.a.dimension())},
                                      std::pair{"amd", amd_ordering(c.a)}}) {
      const SparseCholesky chol(c.a, perm);
      EXPECT_EQ(chol.factor_nnz(), brute_force_factor_nnz(c.a, perm)) << c.name << ", " << order;
      const auto x = chol.solve(b);
      for (std::size_t i = 0; i < x.size(); ++i) {
        ASSERT_NEAR(x[i], x_ref[i], 1e-10) << c.name << ", " << order << ", index " << i;
      }
    }
  }
}

/// The process default thread counts a build is checked at: one, on the
/// calling thread, and the four a one-shot command runs with, on a pool
/// (from 2048 nodes).
constexpr std::size_t kThreadCounts[] = {1, 4};

/// Sets the process's default thread count for a scope.
class DefaultThreads {
 public:
  explicit DefaultThreads(std::size_t threads) { exec::set_default_thread_count(threads); }
  ~DefaultThreads() { exec::set_default_thread_count(0); }
  DefaultThreads(const DefaultThreads&) = delete;
  DefaultThreads& operator=(const DefaultThreads&) = delete;
};

/// The message of the std::runtime_error factoring @p a under the identity
/// order throws, or "" when it factors.
std::string factor_error(const Csr& a) {
  try {
    const SparseCholesky chol(a, identity_ordering(a.dimension()));
  } catch (const std::runtime_error& e) {
    return e.what();
  }
  return "";
}

TEST(SparseCholesky, NonSpdNamesItsEliminationStep) {
  // A path whose third pivot goes negative: 2 - 1/2 = 1.5, then
  // 0.5 - 1/1.5 < 0 at step 2, inside a supernode merged from the chain.
  CooBuilder b(6);
  for (std::size_t i = 0; i < 6; ++i) b.add(i, i, i == 2 ? 0.5 : 2.0);
  for (std::size_t i = 0; i + 1 < 6; ++i) {
    b.add(i, i + 1, -1.0);
    b.add(i + 1, i, -1.0);
  }
  const Csr path = b.compress();
  // 64 independent paths of 40 nodes, each a light subtree of its own, with
  // a negative diagonal at step 35 of the first and earlier steps of later
  // ones: the pool may meet a later one first, and the error must still
  // name the step the serial loop stops at.
  constexpr std::size_t kPaths = 64;
  constexpr std::size_t kLength = 40;
  CooBuilder p(kPaths * kLength);
  for (std::size_t c = 0; c < kPaths; ++c) {
    const std::size_t first = c * kLength;
    const std::size_t bad = c % 4 == 0 ? 35 - c / 4 : kLength;  // no defect when kLength
    for (std::size_t i = 0; i < kLength; ++i) p.add(first + i, first + i, i == bad ? -1.0 : 2.0);
    for (std::size_t i = 0; i + 1 < kLength; ++i) {
      p.add(first + i, first + i + 1, -1.0);
      p.add(first + i + 1, first + i, -1.0);
    }
  }
  const Csr paths = p.compress();
  for (const std::size_t threads : kThreadCounts) {
    const DefaultThreads scope(threads);
    SCOPED_TRACE("threads " + std::to_string(threads));
    const std::string what = factor_error(path);
    EXPECT_NE(what.find("not positive definite"), std::string::npos) << what;
    EXPECT_NE(what.find("at elimination step 2)"), std::string::npos) << what;
    const std::string first = factor_error(paths);
    EXPECT_NE(first.find("at elimination step 35)"), std::string::npos) << first;
  }
}

TEST(SparseCholesky, FillGuardTripsBeforeTheNumericPhaseAllocates) {
  // Hub first, a star's factor is dense: nnz(L) = n (n + 1) / 2 against
  // 2n - 1 lower-triangle entries. The guard reads the column counts, so it
  // throws, with the total, having allocated O(n) and none of L.
  constexpr std::size_t n = 3000;
  std::vector<std::pair<std::size_t, std::size_t>> star;
  for (std::size_t leaf = 1; leaf < n; ++leaf) star.emplace_back(0, leaf);
  const Csr a = make_graph(n, star);
  std::vector<std::size_t> perm = identity_ordering(n);
  std::string what;
  g_counted_bytes = 0;
  g_counting = true;
  try {
    const SparseCholesky chol(a, std::move(perm));
  } catch (const std::runtime_error& e) {
    what = e.what();
  }
  g_counting = false;
  EXPECT_NE(what.find("fill ratio exceeds guard (nnz(L) >= 4501500 against 5999"),
            std::string::npos)
      << what;
  // Work arrays of a few hundred bytes per node, where L's row indices and
  // values alone would take 12 bytes per entry (54 MB).
  EXPECT_LT(g_counted_bytes, 256 * n) << "bytes allocated before the guard tripped";
}

TEST(SparseCholesky, CancellationDuringTheBuildAbortsIt) {
  // The build stalls at its start until the token is cancelled; the
  // factorization that follows must see the request and give up, on the
  // pool's threads too.
  const Csr a = make_grid(60, 60);
  for (const std::size_t threads : kThreadCounts) {
    const DefaultThreads scope(threads);
    auto& faults = faults::Registry::instance();
    ASSERT_EQ(faults.configure("linalg.chol.stall=1.0:10000"), "");
    exec::CancelToken token;
    std::string what;
    std::thread builder([&] {
      const exec::CancelScope cancel_scope(token);
      try {
        const SparseCholesky chol(a);
      } catch (const std::runtime_error& e) {
        what = e.what();
      }
    });
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    token.cancel();
    builder.join();
    faults.reset();
    EXPECT_NE(what.find("factorization cancelled at elimination step"), std::string::npos)
        << "threads " << threads << ": " << what;
  }
}

/// FNV-1a over L's values (their bytes) and then its row indices (four
/// little-endian bytes each).
std::uint64_t factor_hash(const SparseCholesky& chol) {
  util::Fnv1a h;
  for (const double v : chol.factor_values()) {
    unsigned char bytes[sizeof v];
    std::memcpy(bytes, &v, sizeof v);
    for (const unsigned char b : bytes) h.byte(b);
  }
  for (const std::uint32_t r : chol.factor_rows()) {
    for (int b = 0; b < 4; ++b) h.byte(static_cast<unsigned char>((r >> (8 * b)) & 0xffU));
  }
  return h.value();
}

/// The matrices L is pinned on: G of the four paper baselines, then the
/// seeded meshes of Amd.PermutationPinnedOnSeededMeshes.
std::vector<std::pair<std::string, Csr>> pinned_matrices() {
  std::vector<std::pair<std::string, Csr>> out;
  for (const auto& b : core::all_benchmarks()) {
    const auto built = pdn::build_stack(b.stack, b.baseline);
    const irdrop::IrSolver solver(built.model, irdrop::SolverKind::kPcgIc);
    out.emplace_back(b.name, solver.conductance_matrix());
  }
  for (const fixtures::SeededMesh& m : fixtures::kSeededMeshes) {
    out.emplace_back("seed " + std::to_string(m.seed),
                     fixtures::make_stitched_mesh(m.seed, m.nx, m.ny));
  }
  return out;
}

/// L's hash on each of pinned_matrices(), recorded from the serial
/// supernodal numeric phase before it learned to factor subtrees on a pool.
constexpr std::uint64_t kFactorPins[] = {
    0x8805227d9eceb253ULL,  // off-chip
    0x925042a843a6f47cULL,  // on-chip
    0xfe83370bf6399b14ULL,  // wide-io
    0xd459c3e81fe9f3beULL,  // hmc
    0x3646b6ecb128fee8ULL,  // seed 11
    0x9444d2343e5ff6e2ULL,  // seed 12
    0xc2f1b81f03ba5eacULL,  // seed 13
    0x298f71a4ebc0dff7ULL,  // seed 14
};

TEST(SparseCholesky, FactorPinnedOnTheBaselines) {
  // L's exact bits under the shipped AMD order.
  const auto matrices = pinned_matrices();
  ASSERT_EQ(matrices.size(), std::size(kFactorPins));
  for (std::size_t c = 0; c < matrices.size(); ++c) {
    const SparseCholesky chol(matrices[c].second);
    EXPECT_EQ(factor_hash(chol), kFactorPins[c]) << matrices[c].first;
  }
}

TEST(ParallelFactor, BitwiseAtAnyThreadCount) {
  // Every supernode takes its updates in the serial order whichever thread
  // factors it, so L keeps the pinned bits on a pool of any size.
  const auto matrices = pinned_matrices();
  ASSERT_EQ(matrices.size(), std::size(kFactorPins));
  for (const std::size_t threads : {1, 2, 3, 4, 8}) {
    const DefaultThreads scope(threads);
    for (std::size_t c = 0; c < matrices.size(); ++c) {
      const SparseCholesky chol(matrices[c].second);
      EXPECT_EQ(factor_hash(chol), kFactorPins[c]) << matrices[c].first << ", threads " << threads;
    }
  }
}

}  // namespace
}  // namespace pdn3d::linalg
