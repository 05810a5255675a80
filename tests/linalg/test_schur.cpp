#include "linalg/schur.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <memory>
#include <vector>

#include "linalg/coo.hpp"
#include "linalg/sparse_chol.hpp"

namespace pdn3d::linalg {
namespace {

/// Deterministic conductance stream in [0.5, 2.0].
class ValueStream {
 public:
  explicit ValueStream(std::uint64_t seed) : state_(seed) {}
  double next() {
    state_ = state_ * 6364136223846793005ULL + 1442695040888963407ULL;
    const double u = static_cast<double>((state_ >> 33) & 0xFFFFFF) / static_cast<double>(0xFFFFFF);
    return 0.5 + 1.5 * u;
  }

 private:
  std::uint64_t state_;
};

struct TestStack {
  Csr a;
  std::vector<int> block_of;
};

/// A chain of `blocks` nx-by-ny grid "dies", each internally meshed with
/// random conductances, coupled die-to-die by two "TSV" conductances at the
/// grid corners, grounded through taps on block 0 -- the shape of the 3D
/// stacks the macromodel targets, small enough to cross-check exactly.
/// `identical` reuses one value stream per block so every die hashes equal.
TestStack chain_stack(int blocks, int nx, int ny, std::uint64_t seed, bool identical = false) {
  const std::size_t per = static_cast<std::size_t>(nx) * static_cast<std::size_t>(ny);
  const std::size_t n = per * static_cast<std::size_t>(blocks);
  CooBuilder builder(n);
  TestStack out;
  out.block_of.assign(n, 0);

  ValueStream shared(seed);
  for (int b = 0; b < blocks; ++b) {
    ValueStream own(seed + static_cast<std::uint64_t>(b) * 977);
    ValueStream& vs = identical ? shared : own;
    if (identical) vs = ValueStream(seed);  // every block replays the same stream
    const std::size_t base = per * static_cast<std::size_t>(b);
    for (std::size_t i = base; i < base + per; ++i) out.block_of[i] = b;
    for (int y = 0; y < ny; ++y) {
      for (int x = 0; x < nx; ++x) {
        const std::size_t node = base + static_cast<std::size_t>(y) * nx + x;
        if (x + 1 < nx) builder.stamp_conductance(node, node + 1, vs.next());
        if (y + 1 < ny) builder.stamp_conductance(node, node + nx, vs.next());
      }
    }
    if (b + 1 < blocks) {
      // Two TSVs per interface: first and last node of the die.
      builder.stamp_conductance(base, base + per, 1.25);
      builder.stamp_conductance(base + per - 1, base + 2 * per - 1, 1.25);
    }
  }
  builder.stamp_to_ground(0, 4.0);
  builder.stamp_to_ground(per - 1, 4.0);
  out.a = builder.compress();
  return out;
}

std::vector<double> rhs_for(std::size_t n, std::uint64_t seed) {
  ValueStream vs(seed);
  std::vector<double> b(n);
  for (double& v : b) v = vs.next() - 1.0;
  return b;
}

std::vector<double> reference_solve(const Csr& a, std::span<const double> b) {
  const SparseCholesky chol(a);
  return chol.solve(b);
}

double max_abs_diff(std::span<const double> x, std::span<const double> y) {
  double worst = 0.0;
  for (std::size_t i = 0; i < x.size(); ++i) worst = std::max(worst, std::abs(x[i] - y[i]));
  return worst;
}

TEST(SchurMacromodel, MatchesSparseDirectOnRandomizedStacks) {
  for (const std::uint64_t seed : {11ULL, 29ULL, 83ULL}) {
    const int blocks = 2 + static_cast<int>(seed % 4);  // 2..5 dies
    const TestStack stack = chain_stack(blocks, 5, 4, seed);
    const SchurMacromodel mm(stack.a, stack.block_of, SchurOptions{}, nullptr);
    EXPECT_EQ(mm.block_count(), static_cast<std::size_t>(blocks));

    const auto b = rhs_for(stack.a.dimension(), seed * 7);
    std::vector<double> x(b.size(), 0.0);
    SchurScratch scratch;
    mm.solve(b, x, scratch);
    const auto ref = reference_solve(stack.a, b);
    EXPECT_LT(max_abs_diff(x, ref), 1e-10) << "seed " << seed;
  }
}

TEST(SchurMacromodel, BatchSlicesBitwiseMatchScalarSolves) {
  const TestStack stack = chain_stack(3, 4, 4, 5);
  const std::size_t n = stack.a.dimension();
  const SchurMacromodel mm(stack.a, stack.block_of, SchurOptions{}, nullptr);

  constexpr std::size_t kCount = 5;
  std::vector<double> batch_b;
  for (std::size_t r = 0; r < kCount; ++r) {
    const auto b = rhs_for(n, 100 + r);
    batch_b.insert(batch_b.end(), b.begin(), b.end());
  }
  std::vector<double> batch_x(n * kCount, 0.0);
  SchurScratch scratch;
  mm.solve_batch(batch_b, batch_x, kCount, scratch);

  for (std::size_t r = 0; r < kCount; ++r) {
    std::vector<double> x(n, 0.0);
    SchurScratch fresh;
    mm.solve(std::span<const double>(batch_b.data() + r * n, n), x, fresh);
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_EQ(batch_x[r * n + i], x[i]) << "slice " << r << " node " << i;
    }
  }
}

TEST(SchurMacromodel, SolveAllowsAliasedBuffers) {
  const TestStack stack = chain_stack(2, 4, 3, 17);
  const SchurMacromodel mm(stack.a, stack.block_of, SchurOptions{}, nullptr);
  const auto b = rhs_for(stack.a.dimension(), 3);
  std::vector<double> separate(b.size(), 0.0);
  SchurScratch scratch;
  mm.solve(b, separate, scratch);
  std::vector<double> aliased = b;
  mm.solve(aliased, aliased, scratch);
  EXPECT_EQ(aliased, separate);
}

TEST(SchurMacromodel, IdenticalDiesShareCachedBlocks) {
  const TestStack stack = chain_stack(4, 5, 4, 7, /*identical=*/true);
  SchurBlockCache cache;
  const SchurMacromodel mm(stack.a, stack.block_of, SchurOptions{}, &cache);
  // Dies 1 and 2 see TSVs above and below (same sub-mesh shape); the end
  // dies each carry extras (taps / a single interface), so at least the two
  // middle dies must have collapsed onto one cached block.
  EXPECT_LT(cache.size(), mm.block_count());
  EXPECT_GE(mm.blocks_reused(), 1u);
  // Cached blocks must not change the answers.
  const auto b = rhs_for(stack.a.dimension(), 99);
  std::vector<double> x(b.size(), 0.0);
  SchurScratch scratch;
  mm.solve(b, x, scratch);
  EXPECT_LT(max_abs_diff(x, reference_solve(stack.a, b)), 1e-10);
}

TEST(SchurMacromodel, SecondStackReusesCacheAcrossInstances) {
  const TestStack stack = chain_stack(3, 4, 4, 21, /*identical=*/true);
  SchurBlockCache cache;
  const SchurMacromodel first(stack.a, stack.block_of, SchurOptions{}, &cache);
  const std::size_t after_first = cache.size();
  const SchurMacromodel second(stack.a, stack.block_of, SchurOptions{}, &cache);
  EXPECT_EQ(cache.size(), after_first);                    // nothing new to build
  EXPECT_EQ(second.blocks_reused(), second.block_count());  // all served from cache

  const auto b = rhs_for(stack.a.dimension(), 4);
  std::vector<double> x1(b.size(), 0.0);
  std::vector<double> x2(b.size(), 0.0);
  SchurScratch s1;
  SchurScratch s2;
  first.solve(b, x1, s1);
  second.solve(b, x2, s2);
  EXPECT_EQ(x1, x2);  // bitwise: same blocks, same arithmetic order
}

TEST(SchurMacromodel, SingleBlockDeclined) {
  const TestStack stack = chain_stack(1, 4, 4, 3);
  EXPECT_THROW(SchurMacromodel(stack.a, stack.block_of, SchurOptions{}, nullptr),
               std::runtime_error);
}

TEST(SchurMacromodel, InterfaceFractionGuardDeclines) {
  const TestStack stack = chain_stack(3, 4, 4, 9);
  SchurOptions opts;
  opts.max_interface_fraction = 1e-6;  // everything is "too coupled"
  EXPECT_THROW(SchurMacromodel(stack.a, stack.block_of, opts, nullptr), std::runtime_error);
}

TEST(SchurMacromodel, NonSpdBlockDeclines) {
  // Flip one interior conductance negative: that die's A_II loses positive
  // definiteness and the per-block factorization must throw, not produce.
  const std::size_t per = 16;
  CooBuilder builder(2 * per);
  std::vector<int> block_of(2 * per, 0);
  for (std::size_t i = per; i < 2 * per; ++i) block_of[i] = 1;
  for (std::size_t b = 0; b < 2; ++b) {
    const std::size_t base = b * per;
    for (std::size_t i = 0; i + 1 < per; ++i) {
      builder.stamp_conductance(base + i, base + i + 1, 1.0);
    }
  }
  // The defect: a negative conductance, stamped via raw add() because
  // stamp_conductance() rejects it at build time.
  builder.add(5, 5, -40.0);
  builder.add(6, 6, -40.0);
  builder.add(5, 6, 40.0);
  builder.add(6, 5, 40.0);
  builder.stamp_conductance(per - 1, per, 1.0);
  builder.stamp_to_ground(0, 2.0);
  const Csr a = builder.compress();
  EXPECT_THROW(SchurMacromodel(a, block_of, SchurOptions{}, nullptr), std::runtime_error);
}

TEST(WoodburyUpdate, TouchedNodesFindsExactlyTheDelta) {
  const TestStack stack = chain_stack(3, 4, 4, 13);
  CooBuilder delta(stack.a.dimension());
  // Rebuild the same matrix, then nudge one coupling.
  const auto rp = stack.a.row_ptr();
  const auto ci = stack.a.col_idx();
  const auto vals = stack.a.values();
  for (std::size_t i = 0; i < stack.a.dimension(); ++i) {
    for (std::size_t k = rp[i]; k < rp[i + 1]; ++k) delta.add(i, ci[k], vals[k]);
  }
  delta.stamp_conductance(2, 3, 0.5);
  const Csr a_new = delta.compress();

  const auto touched = WoodburyUpdate::touched_nodes(stack.a, a_new);
  EXPECT_EQ(touched, (std::vector<std::size_t>{2, 3}));
  EXPECT_TRUE(WoodburyUpdate::touched_nodes(stack.a, stack.a).empty());
}

TEST(WoodburyUpdate, MatchesSparseDirectOnPerturbedStack) {
  const TestStack stack = chain_stack(4, 5, 4, 31);
  auto base = std::make_shared<const SchurMacromodel>(stack.a, stack.block_of, SchurOptions{},
                                                      nullptr);

  // Perturb a handful of couplings (a TSV-variation-like delta).
  CooBuilder delta(stack.a.dimension());
  const auto rp = stack.a.row_ptr();
  const auto ci = stack.a.col_idx();
  const auto vals = stack.a.values();
  for (std::size_t i = 0; i < stack.a.dimension(); ++i) {
    for (std::size_t k = rp[i]; k < rp[i + 1]; ++k) delta.add(i, ci[k], vals[k]);
  }
  delta.stamp_conductance(0, 1, 0.7);
  delta.stamp_conductance(20, 40, 0.9);  // a cross-die coupling
  delta.stamp_to_ground(0, 0.6);
  const Csr a_new = delta.compress();

  const WoodburyUpdate update(base, a_new, 64);
  EXPECT_LE(update.rank(), 4u);

  const auto b = rhs_for(stack.a.dimension(), 55);
  std::vector<double> x(b.size(), 0.0);
  SchurScratch scratch;
  update.solve(b, x, scratch);
  EXPECT_LT(max_abs_diff(x, reference_solve(a_new, b)), 1e-10);

  // Batch path bitwise matches scalar slices.
  std::vector<double> bb(b);
  bb.insert(bb.end(), b.begin(), b.end());
  std::vector<double> bx(bb.size(), 0.0);
  update.solve_batch(bb, bx, 2, scratch);
  for (std::size_t i = 0; i < b.size(); ++i) {
    ASSERT_EQ(bx[i], x[i]);
    ASSERT_EQ(bx[b.size() + i], x[i]);
  }
}

TEST(WoodburyUpdate, IdenticalMatrixDeclined) {
  const TestStack stack = chain_stack(2, 4, 3, 41);
  auto base = std::make_shared<const SchurMacromodel>(stack.a, stack.block_of, SchurOptions{},
                                                      nullptr);
  EXPECT_THROW(WoodburyUpdate(base, stack.a, 64), std::runtime_error);
}

TEST(WoodburyUpdate, RankDeficientUpdateIsRefusedOrFailsResidual) {
  // A delta engineered to make the updated matrix (and with it the Woodbury
  // capture matrix K) singular: cancel the touched node's pivot against its
  // own resolvent entry, d = -1 / (A0^-1)_{pp}. Depending on rounding, the
  // capture LU either detects the exact singularity and throws -- or produces
  // a solution whose true residual is enormous, which is precisely what the
  // solver ladder's residual verification rejects before falling through.
  // Either way the rank-deficient update can never hand back silent garbage.
  const TestStack stack = chain_stack(3, 4, 4, 77);
  const std::size_t n = stack.a.dimension();
  auto base = std::make_shared<const SchurMacromodel>(stack.a, stack.block_of, SchurOptions{},
                                                      nullptr);
  const std::size_t p = 5;  // an interior node of block 0
  std::vector<double> unit(n, 0.0);
  unit[p] = 1.0;
  std::vector<double> resolvent(n, 0.0);
  SchurScratch scratch;
  base->solve(unit, resolvent, scratch);
  ASSERT_GT(resolvent[p], 0.0);  // SPD resolvent diagonal

  CooBuilder delta(n);
  const auto rp = stack.a.row_ptr();
  const auto ci = stack.a.col_idx();
  const auto vals = stack.a.values();
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t k = rp[i]; k < rp[i + 1]; ++k) delta.add(i, ci[k], vals[k]);
  }
  delta.add(p, p, -1.0 / resolvent[p]);
  const Csr a_new = delta.compress();

  bool clean = false;
  try {
    const WoodburyUpdate update(base, a_new, 8);
    const auto b = rhs_for(n, 5);
    std::vector<double> x(n, 0.0);
    update.solve(b, x, scratch);
    // Residual of the (singular) updated system must be hopeless -- far
    // beyond any verify_rel_tol the solver ladder would accept.
    std::vector<double> ax(n, 0.0);
    a_new.multiply(x, ax);
    double resid = 0.0;
    double scale = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      resid += (ax[i] - b[i]) * (ax[i] - b[i]);
      scale += b[i] * b[i];
    }
    clean = !(std::sqrt(resid / scale) < 1e-3) || !std::isfinite(x[p]);
  } catch (const std::runtime_error&) {
    clean = true;  // singular capture detected at construction
  }
  EXPECT_TRUE(clean);
}

TEST(WoodburyUpdate, RankCapDeclines) {
  const TestStack stack = chain_stack(2, 4, 3, 43);
  auto base = std::make_shared<const SchurMacromodel>(stack.a, stack.block_of, SchurOptions{},
                                                      nullptr);
  CooBuilder delta(stack.a.dimension());
  const auto rp = stack.a.row_ptr();
  const auto ci = stack.a.col_idx();
  const auto vals = stack.a.values();
  for (std::size_t i = 0; i < stack.a.dimension(); ++i) {
    for (std::size_t k = rp[i]; k < rp[i + 1]; ++k) delta.add(i, ci[k], vals[k]);
  }
  for (std::size_t i = 0; i < stack.a.dimension(); ++i) delta.stamp_to_ground(i, 0.1);
  const Csr a_new = delta.compress();
  EXPECT_THROW(WoodburyUpdate(base, a_new, 4), std::runtime_error);
}

}  // namespace
}  // namespace pdn3d::linalg
