#include "linalg/schur.hpp"

#include <algorithm>
#include <limits>
#include <mutex>
#include <stdexcept>
#include <string>

#include "linalg/coo.hpp"
#include "util/fnv.hpp"

namespace pdn3d::linalg {

namespace {

constexpr std::size_t kNoIndex = std::numeric_limits<std::size_t>::max();

}  // namespace

std::shared_ptr<const SchurBlock> SchurBlockCache::find(std::uint64_t fingerprint) const {
  // Exclusive even for lookup: find() mutates the hit/miss counters.
  const std::unique_lock<std::shared_mutex> lock(mutex_);
  const auto it = blocks_.find(fingerprint);
  if (it == blocks_.end()) {
    ++misses_;
    return nullptr;
  }
  ++hits_;
  return it->second;
}

std::shared_ptr<const SchurBlock> SchurBlockCache::insert(
    std::shared_ptr<const SchurBlock> block) {
  const std::unique_lock<std::shared_mutex> lock(mutex_);
  const auto [it, inserted] = blocks_.emplace(block->fingerprint, std::move(block));
  return it->second;
}

std::size_t SchurBlockCache::size() const {
  const std::shared_lock<std::shared_mutex> lock(mutex_);
  return blocks_.size();
}

std::size_t SchurBlockCache::hits() const {
  const std::shared_lock<std::shared_mutex> lock(mutex_);
  return hits_;
}

std::size_t SchurBlockCache::misses() const {
  const std::shared_lock<std::shared_mutex> lock(mutex_);
  return misses_;
}

SchurMacromodel::SchurMacromodel(const Csr& a, std::span<const int> block_of,
                                 const SchurOptions& options, SchurBlockCache* cache)
    : a_(a), block_of_(block_of.begin(), block_of.end()), n_(a.dimension()) {
  if (block_of_.size() != n_) {
    throw std::invalid_argument("SchurMacromodel: block_of size mismatch");
  }
  int block_count = 0;
  for (const int b : block_of_) {
    if (b < 0) throw std::invalid_argument("SchurMacromodel: negative block id");
    block_count = std::max(block_count, b + 1);
  }
  if (block_count < 2) {
    throw std::runtime_error("SchurMacromodel declined: fewer than two blocks");
  }

  const auto rp = a_.row_ptr();
  const auto ci = a_.col_idx();
  const auto vals = a_.values();

  // Interface detection straight from the matrix: any node coupled into
  // another block. Cross-block elements connect interface nodes only, by
  // construction of this set.
  std::vector<char> is_interface(n_, 0);
  for (std::size_t i = 0; i < n_; ++i) {
    for (std::size_t k = rp[i]; k < rp[i + 1]; ++k) {
      if (vals[k] != 0.0 && block_of_[ci[k]] != block_of_[i]) {
        is_interface[i] = 1;
        break;
      }
    }
  }
  reduced_index_.assign(n_, kNoIndex);
  for (std::size_t i = 0; i < n_; ++i) {
    if (is_interface[i]) {
      reduced_index_[i] = interface_.size();
      interface_.push_back(i);
    }
  }
  if (interface_.empty()) {
    throw std::runtime_error("SchurMacromodel declined: blocks are not coupled");
  }
  const double fraction = static_cast<double>(interface_.size()) / static_cast<double>(n_);
  if (fraction > options.max_interface_fraction) {
    throw std::runtime_error(
        "SchurMacromodel declined: interface fraction " + std::to_string(fraction) +
        " exceeds " + std::to_string(options.max_interface_fraction));
  }

  SparseCholeskyOptions chol_opts;
  chol_opts.max_fill_ratio = options.max_fill_ratio;

  // Scratch maps reused across blocks: global node -> local interior index /
  // local interface slot.
  std::vector<std::size_t> interior_of(n_, kNoIndex);
  std::vector<std::size_t> slot_of(n_, kNoIndex);

  blocks_.reserve(static_cast<std::size_t>(block_count));
  for (int b = 0; b < block_count; ++b) {
    BlockSlot slot;
    std::vector<std::size_t> slot_nodes;  ///< local slot -> global interface node
    for (std::size_t i = 0; i < n_; ++i) {
      if (block_of_[i] != b) continue;
      if (is_interface[i]) {
        slot_of[i] = slot_nodes.size();
        slot_nodes.push_back(i);
      } else {
        interior_of[i] = slot.interior_nodes.size();
        slot.interior_nodes.push_back(i);
      }
    }
    const std::size_t ni = slot.interior_nodes.size();
    const std::size_t ns = slot_nodes.size();
    slot.interface_slots.reserve(ns);
    for (const std::size_t g : slot_nodes) slot.interface_slots.push_back(reduced_index_[g]);

    // Canonical sub-mesh fingerprint in local numbering (ascending global
    // order): the interior sub-matrix plus its interface couplings. Identical
    // dies hash equal regardless of where they sit in the global numbering.
    util::Fnv1a fp;
    fp.u64(ni);
    fp.u64(ns);
    for (std::size_t li = 0; li < ni; ++li) {
      const std::size_t gi = slot.interior_nodes[li];
      for (std::size_t k = rp[gi]; k < rp[gi + 1]; ++k) {
        const std::size_t gj = ci[k];
        if (vals[k] == 0.0) continue;
        if (interior_of[gj] != kNoIndex) {
          fp.byte(0);
          fp.u64(interior_of[gj]);
        } else {
          fp.byte(1);
          fp.u64(slot_of[gj]);
        }
        fp.f64(vals[k]);
      }
      fp.byte(2);  // row terminator
    }
    const std::uint64_t fingerprint = fp.value();

    std::shared_ptr<const SchurBlock> data = cache != nullptr ? cache->find(fingerprint) : nullptr;
    if (data != nullptr && (data->interior_count != ni || data->interface_count != ns)) {
      data = nullptr;  // fingerprint collision paranoia: rebuild
    }
    if (data != nullptr) {
      ++blocks_reused_;
    } else {
      // Build the block: local factor, interface couplings E, the coupling
      // solves W = A_II^-1 E, and the interface contribution C = E^T W.
      CooBuilder local(ni);
      std::vector<std::size_t> e_row;
      std::vector<std::size_t> e_col;
      std::vector<double> e_val;
      for (std::size_t li = 0; li < ni; ++li) {
        const std::size_t gi = slot.interior_nodes[li];
        for (std::size_t k = rp[gi]; k < rp[gi + 1]; ++k) {
          const std::size_t gj = ci[k];
          if (vals[k] == 0.0) continue;
          if (interior_of[gj] != kNoIndex) {
            local.add(li, interior_of[gj], vals[k]);
          } else {
            e_row.push_back(li);
            e_col.push_back(slot_of[gj]);
            e_val.push_back(vals[k]);
          }
        }
      }
      if (ni == 0) {
        throw std::runtime_error("SchurMacromodel declined: block " + std::to_string(b) +
                                 " has no interior nodes");
      }
      const Csr a_ii = local.compress();
      // Throws on non-SPD block or fill-guard trip; the caller's rung fails.
      auto built = std::make_shared<SchurBlock>(
          fingerprint, ni, ns, SparseCholesky(a_ii, chol_opts));

      built->e_row = std::move(e_row);
      built->e_col = std::move(e_col);
      built->e_val = std::move(e_val);

      // W columns: one batched solve over the interface couplings.
      built->w = DenseMatrix(ni, ns);
      if (ns > 0) {
        std::vector<double> rhs(ni * ns, 0.0);
        for (std::size_t t = 0; t < built->e_val.size(); ++t) {
          rhs[built->e_col[t] * ni + built->e_row[t]] = built->e_val[t];
        }
        std::vector<double> sol(ni * ns, 0.0);
        std::vector<double> work;
        built->factor.solve_batch(rhs, sol, ns, work);
        for (std::size_t s = 0; s < ns; ++s) {
          for (std::size_t li = 0; li < ni; ++li) built->w(li, s) = sol[s * ni + li];
        }
      }

      built->c = DenseMatrix(ns, ns);
      for (std::size_t t = 0; t < built->e_val.size(); ++t) {
        const std::size_t li = built->e_row[t];
        const std::size_t s1 = built->e_col[t];
        const double v = built->e_val[t];
        for (std::size_t s2 = 0; s2 < ns; ++s2) built->c(s1, s2) += v * built->w(li, s2);
      }

      data = cache != nullptr ? cache->insert(std::move(built)) : std::move(built);
    }
    slot.data = std::move(data);
    blocks_.push_back(std::move(slot));

    // Reset the scratch maps for the next block.
    for (const std::size_t g : blocks_.back().interior_nodes) interior_of[g] = kNoIndex;
    for (const std::size_t g : slot_nodes) slot_of[g] = kNoIndex;
  }

  // Reduced interface system S = A_BB - sum_b C_b. A_BB comes straight from
  // the matrix (cross-block elements, interface-interface in-block elements,
  // tap diagonals); the C_b are the cached per-block contributions.
  const std::size_t m = interface_.size();
  CooBuilder s_builder(m);
  for (std::size_t r = 0; r < m; ++r) {
    const std::size_t gi = interface_[r];
    for (std::size_t k = rp[gi]; k < rp[gi + 1]; ++k) {
      const std::size_t gj = ci[k];
      if (reduced_index_[gj] != kNoIndex && vals[k] != 0.0) {
        s_builder.add(r, reduced_index_[gj], vals[k]);
      }
    }
  }
  for (const BlockSlot& bs : blocks_) {
    const std::size_t ns = bs.interface_slots.size();
    for (std::size_t s1 = 0; s1 < ns; ++s1) {
      for (std::size_t s2 = 0; s2 < ns; ++s2) {
        const double v = bs.data->c(s1, s2);
        if (v != 0.0) s_builder.add(bs.interface_slots[s1], bs.interface_slots[s2], -v);
      }
    }
  }
  const Csr s = s_builder.compress();
  // The Schur complement of an SPD matrix is SPD; a non-positive pivot here
  // means the mesh itself is defective and the rung should fail.
  reduced_.emplace(s, chol_opts);
}

void SchurMacromodel::solve(std::span<const double> b, std::span<double> x,
                            SchurScratch& scratch) const {
  solve_batch(b, x, 1, scratch);
}

void SchurMacromodel::solve_batch(std::span<const double> b, std::span<double> x,
                                  std::size_t count, SchurScratch& scratch) const {
  if (b.size() != n_ * count || x.size() != n_ * count) {
    throw std::invalid_argument("SchurMacromodel::solve_batch: size mismatch");
  }
  const std::size_t m = interface_.size();

  // Reduced RHS starts as b at the interface nodes; the per-block interior
  // solves then subtract E^T y. Gather before any write so b may alias x.
  std::vector<double>& reduced = scratch.reduced;
  reduced.assign(m * count, 0.0);
  for (std::size_t r = 0; r < count; ++r) {
    for (std::size_t j = 0; j < m; ++j) reduced[r * m + j] = b[r * n_ + interface_[j]];
  }

  // Forward pass: y_b = A_II,b^-1 b_I per block (batched), stored into the
  // interior slots of x; reduced RHS -= E_b^T y_b.
  std::vector<double>& local = scratch.interior;
  for (const BlockSlot& bs : blocks_) {
    const std::size_t ni = bs.interior_nodes.size();
    local.assign(ni * count, 0.0);
    for (std::size_t r = 0; r < count; ++r) {
      for (std::size_t li = 0; li < ni; ++li) {
        local[r * ni + li] = b[r * n_ + bs.interior_nodes[li]];
      }
    }
    bs.data->factor.solve_batch(local, local, count, scratch.work);
    for (std::size_t r = 0; r < count; ++r) {
      for (std::size_t li = 0; li < ni; ++li) {
        x[r * n_ + bs.interior_nodes[li]] = local[r * ni + li];
      }
    }
    const auto& e_row = bs.data->e_row;
    const auto& e_col = bs.data->e_col;
    const auto& e_val = bs.data->e_val;
    for (std::size_t r = 0; r < count; ++r) {
      for (std::size_t t = 0; t < e_val.size(); ++t) {
        reduced[r * m + bs.interface_slots[e_col[t]]] -=
            e_val[t] * x[r * n_ + bs.interior_nodes[e_row[t]]];
      }
    }
  }

  // Reduced interface solve (batched), scattered back into x.
  reduced_->solve_batch(reduced, reduced, count, scratch.work);
  for (std::size_t r = 0; r < count; ++r) {
    for (std::size_t j = 0; j < m; ++j) x[r * n_ + interface_[j]] = reduced[r * m + j];
  }

  // Back-substitution: x_I = y - W x_B per block, y already in place.
  std::vector<double>& xb = scratch.update;
  for (const BlockSlot& bs : blocks_) {
    const std::size_t ni = bs.interior_nodes.size();
    const std::size_t ns = bs.interface_slots.size();
    if (ns == 0) continue;
    xb.assign(ns, 0.0);
    for (std::size_t r = 0; r < count; ++r) {
      for (std::size_t s = 0; s < ns; ++s) {
        xb[s] = reduced[r * m + bs.interface_slots[s]];
      }
      const DenseMatrix& w = bs.data->w;
      for (std::size_t li = 0; li < ni; ++li) {
        double acc = 0.0;
        for (std::size_t s = 0; s < ns; ++s) acc += w(li, s) * xb[s];
        x[r * n_ + bs.interior_nodes[li]] -= acc;
      }
    }
  }
}

std::vector<std::size_t> WoodburyUpdate::touched_nodes(const Csr& a_base, const Csr& a_new) {
  if (a_base.dimension() != a_new.dimension()) {
    throw std::invalid_argument("WoodburyUpdate: dimension mismatch");
  }
  const std::size_t n = a_base.dimension();
  const auto rp0 = a_base.row_ptr();
  const auto ci0 = a_base.col_idx();
  const auto v0 = a_base.values();
  const auto rp1 = a_new.row_ptr();
  const auto ci1 = a_new.col_idx();
  const auto v1 = a_new.values();

  std::vector<std::size_t> touched;
  for (std::size_t i = 0; i < n; ++i) {
    // Merge-walk both sorted rows; any structural or value difference marks
    // the node (its symmetric partner is marked by its own row).
    std::size_t k0 = rp0[i];
    std::size_t k1 = rp1[i];
    bool differs = false;
    while (!differs && (k0 < rp0[i + 1] || k1 < rp1[i + 1])) {
      if (k0 < rp0[i + 1] && k1 < rp1[i + 1] && ci0[k0] == ci1[k1]) {
        if (v0[k0] != v1[k1]) differs = true;
        ++k0;
        ++k1;
      } else if (k1 >= rp1[i + 1] || (k0 < rp0[i + 1] && ci0[k0] < ci1[k1])) {
        if (v0[k0] != 0.0) differs = true;
        ++k0;
      } else {
        if (v1[k1] != 0.0) differs = true;
        ++k1;
      }
    }
    if (differs) touched.push_back(i);
  }
  return touched;
}

WoodburyUpdate::WoodburyUpdate(std::shared_ptr<const SchurMacromodel> base, const Csr& a_new,
                               std::size_t max_rank)
    : base_(std::move(base)) {
  if (base_ == nullptr) throw std::invalid_argument("WoodburyUpdate: null base");
  const std::size_t n = base_->dimension();
  touched_ = touched_nodes(base_->matrix(), a_new);
  const std::size_t m = touched_.size();
  if (m == 0) {
    throw std::runtime_error("WoodburyUpdate declined: matrices are identical");
  }
  if (m > max_rank) {
    throw std::runtime_error("WoodburyUpdate declined: delta touches " + std::to_string(m) +
                             " nodes, above the rank cap " + std::to_string(max_rank));
  }

  // D = delta restricted to the touched nodes. Symmetry of both matrices
  // confines every differing entry to touched x touched.
  d_ = DenseMatrix(m, m);
  for (std::size_t p = 0; p < m; ++p) {
    for (std::size_t q = 0; q < m; ++q) {
      d_(p, q) = a_new.at(touched_[p], touched_[q]) - base_->matrix().at(touched_[p], touched_[q]);
    }
  }

  // Z = A0^-1 P: one batched hierarchical solve over unit right-hand sides.
  SchurScratch scratch;
  std::vector<double> rhs(n * m, 0.0);
  for (std::size_t q = 0; q < m; ++q) rhs[q * n + touched_[q]] = 1.0;
  std::vector<double> sol(n * m, 0.0);
  base_->solve_batch(rhs, sol, m, scratch);
  z_ = DenseMatrix(n, m);
  for (std::size_t q = 0; q < m; ++q) {
    for (std::size_t i = 0; i < n; ++i) z_(i, q) = sol[q * n + i];
  }

  // Capture matrix K = I + D M with M = P^T Z. Singular K = rank-deficient
  // update; DenseLu throws and the caller's rung falls through cleanly.
  DenseMatrix k(m, m);
  for (std::size_t p = 0; p < m; ++p) {
    for (std::size_t q = 0; q < m; ++q) {
      double acc = 0.0;
      for (std::size_t r = 0; r < m; ++r) acc += d_(p, r) * z_(touched_[r], q);
      k(p, q) = acc;
    }
    k(p, p) += 1.0;
  }
  capture_.emplace(std::move(k));
}

void WoodburyUpdate::solve(std::span<const double> b, std::span<double> x,
                           SchurScratch& scratch) const {
  solve_batch(b, x, 1, scratch);
}

void WoodburyUpdate::solve_batch(std::span<const double> b, std::span<double> x,
                                 std::size_t count, SchurScratch& scratch) const {
  const std::size_t n = base_->dimension();
  const std::size_t m = touched_.size();
  if (b.size() != n * count || x.size() != n * count) {
    throw std::invalid_argument("WoodburyUpdate::solve_batch: size mismatch");
  }
  // y = A0^-1 b through the base macromodel, then the low-rank correction
  // x = y - Z K^-1 D P^T y per slice.
  base_->solve_batch(b, x, count, scratch);
  std::vector<double>& small = scratch.update;
  small.assign(3 * m, 0.0);
  const std::span<double> t(small.data(), m);
  const std::span<double> u(small.data() + m, m);
  const std::span<double> w(small.data() + 2 * m, m);
  for (std::size_t r = 0; r < count; ++r) {
    for (std::size_t p = 0; p < m; ++p) t[p] = x[r * n + touched_[p]];
    for (std::size_t p = 0; p < m; ++p) {
      double acc = 0.0;
      for (std::size_t q = 0; q < m; ++q) acc += d_(p, q) * t[q];
      u[p] = acc;
    }
    capture_->solve(u, w);
    for (std::size_t i = 0; i < n; ++i) {
      double acc = 0.0;
      for (std::size_t q = 0; q < m; ++q) acc += z_(i, q) * w[q];
      x[r * n + i] -= acc;
    }
  }
}

}  // namespace pdn3d::linalg
