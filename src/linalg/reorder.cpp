#include "linalg/reorder.hpp"

#include <algorithm>
#include <cstdint>
#include <limits>
#include <numeric>
#include <stdexcept>
#include <utility>

namespace pdn3d::linalg {

namespace {

/// Node, pool offset and degree type: 32 bits halve the memory the pivot
/// loop walks.
using Index = std::uint32_t;
constexpr Index kNone = std::numeric_limits<Index>::max();

enum class Role : std::uint8_t {
  kVariable,  ///< live principal (super)variable
  kMerged,    ///< folded into a supervariable or mass-eliminated with a pivot
  kElement,   ///< eliminated pivot whose boundary is still referenced
  kAbsorbed,  ///< element whose boundary a later element took over
};

/// The live variables' least (approximate degree, index) key, as a
/// tournament tree over the node indices: slot n + v holds node v's key
/// packed into 64 bits with the degree in the high half (all ones once the
/// node is out), and each slot i below n the lesser of slots 2i and 2i + 1,
/// so slot 1 holds the least key and a comparison is one integer compare. A
/// key change walks up from its leaf and stops where a slot is unchanged.
class PivotQueue {
 public:
  explicit PivotQueue(const std::vector<Index>& degree)
      : leaves_(static_cast<Index>(degree.size())), tree_(2 * degree.size(), kOut) {
    for (Index v = 0; v < leaves_; ++v) tree_[leaves_ + v] = key(degree[v], v);
    for (Index i = leaves_; i-- > 1;) tree_[i] = std::min(tree_[2 * i], tree_[2 * i + 1]);
  }

  [[nodiscard]] Index pop() {
    const auto v = static_cast<Index>(tree_[1]);
    erase(v);
    return v;
  }

  void erase(Index v) { update(v, kOut); }

  void set_degree(Index v, Index degree) { update(v, key(degree, v)); }

 private:
  static constexpr std::uint64_t kOut = std::numeric_limits<std::uint64_t>::max();

  static std::uint64_t key(Index degree, Index v) { return (std::uint64_t{degree} << 32) | v; }

  void update(Index v, std::uint64_t key) {
    std::size_t i = std::size_t{leaves_} + v;
    tree_[i] = key;
    for (i /= 2; i > 0; i /= 2) {
      const std::uint64_t least = std::min(tree_[2 * i], tree_[2 * i + 1]);
      if (tree_[i] == least) break;
      tree_[i] = least;
    }
  }

  Index leaves_;
  std::vector<std::uint64_t> tree_;
};

}  // namespace

std::vector<std::size_t> amd_ordering(const Csr& a) {
  if (a.dimension() >= kNone / 2) {
    throw std::length_error("amd_ordering: matrix exceeds 32-bit indexing");
  }
  const auto n = static_cast<Index>(a.dimension());
  const auto rp = a.row_ptr();
  const auto ci = a.col_idx();

  // Quotient graph. A live variable i has a slice of the elements it
  // touches (elem_*) and a slice of its original neighbours that no element
  // covers yet (var_*); once i is eliminated, its var_* slice holds the new
  // element's boundary Le instead. Every slice lives in one pool. Entries
  // whose role changed are dropped the next time their slice is scanned; an
  // element slice is rewritten in place when that leaves room for the new
  // element, and at the end of the pool otherwise.
  // A node's four slice bounds sit together, as the pivot loop reads them.
  struct Slices {
    Index var_begin = 0;
    Index var_len = 0;
    Index elem_begin = 0;
    Index elem_len = 0;
  };
  std::vector<Index> pool;
  std::vector<Slices> slice(n);
  std::vector<Index> mark(n, 0);  ///< set membership: mark[i] == stamp

  // Initial variable slices: the pattern of A + A^T without its diagonal,
  // duplicates dropped.
  for (Index i = 0; i < n; ++i) {
    for (std::size_t k = rp[i]; k < rp[i + 1]; ++k) {
      if (ci[k] == i) continue;
      ++slice[i].var_len;
      ++slice[ci[k]].var_len;
    }
  }
  std::size_t entries = 0;
  for (Slices& sl : slice) {
    sl.var_begin = static_cast<Index>(entries);
    entries += sl.var_len;
    sl.var_len = 0;
    if (entries >= kNone / 8) throw std::length_error("amd_ordering: matrix exceeds 32-bit indexing");
  }
  pool.reserve(3 * entries + 2 * std::size_t{n});
  pool.resize(entries);
  for (Index i = 0; i < n; ++i) {
    for (std::size_t k = rp[i]; k < rp[i + 1]; ++k) {
      const auto j = static_cast<Index>(ci[k]);
      if (j == i) continue;
      pool[slice[i].var_begin + slice[i].var_len++] = j;
      pool[slice[j].var_begin + slice[j].var_len++] = i;
    }
  }
  std::vector<Index> degree(n);  ///< variable: approximate external degree
  for (Index i = 0; i < n; ++i) {
    Index kept = 0;
    for (Index k = slice[i].var_begin; k < slice[i].var_begin + slice[i].var_len; ++k) {
      if (mark[pool[k]] == i + 1) continue;
      mark[pool[k]] = i + 1;
      pool[slice[i].var_begin + kept++] = pool[k];
    }
    slice[i].var_len = kept;
    degree[i] = kept;
  }
  std::vector<Index> outside(n, 0);  ///< element: weighted |Le \ Lp|
  std::vector<Index> outside_stamp(n, 0);
  Index stamp = n;
  // A new stamp; marks are cleared before the counter could wrap.
  const auto next_stamp = [&] {
    if (stamp == kNone - 1) {
      std::fill(mark.begin(), mark.end(), 0);
      std::fill(outside_stamp.begin(), outside_stamp.end(), 0);
      stamp = 0;
    }
    return ++stamp;
  };

  std::vector<Role> role(n, Role::kVariable);
  std::vector<Index> nv(n, 1);      ///< principal variable: nodes it stands for
  std::vector<Index> weight(n, 0);  ///< element: sum of nv over its boundary
  std::vector<Index> ext(n, 0);     ///< variable: external degree outside Lp
  PivotQueue queue(degree);
  // Nodes a principal variable stands for, chained from the variable
  // itself; they are emitted together when it is eliminated.
  std::vector<Index> member_next(n, kNone);
  std::vector<Index> member_tail(n);
  std::iota(member_tail.begin(), member_tail.end(), Index{0});
  const auto fold_into = [&](Index into, Index from) {
    queue.erase(from);
    role[from] = Role::kMerged;
    nv[into] += nv[from];
    member_next[member_tail[into]] = from;
    member_tail[into] = member_tail[from];
  };

  std::vector<Index> lp;
  std::vector<std::pair<std::uint64_t, Index>> hashed;  ///< (list hash, variable)
  std::vector<std::size_t> order;
  order.reserve(n);
  Index nleft = n;  ///< nodes not yet eliminated

  while (nleft > 0) {
    const Index p = queue.pop();

    // New element p. Its boundary Lp is the union of p's variable
    // neighbours and the boundaries of the elements p touches, which p
    // absorbs.
    const Index pivot_stamp = next_stamp();
    mark[p] = pivot_stamp;
    lp.clear();
    const auto collect = [&](Index begin, Index len) {
      for (Index k = begin, end = begin + len; k < end; ++k) {
        const Index i = pool[k];
        if (role[i] == Role::kVariable && mark[i] != pivot_stamp) {
          mark[i] = pivot_stamp;
          lp.push_back(i);
        }
      }
    };
    for (Index k = slice[p].elem_begin, end = k + slice[p].elem_len; k < end; ++k) {
      const Index e = pool[k];
      if (role[e] != Role::kElement) continue;
      collect(slice[e].var_begin, slice[e].var_len);
      role[e] = Role::kAbsorbed;
    }
    collect(slice[p].var_begin, slice[p].var_len);
    role[p] = Role::kElement;
    nleft -= nv[p];

    // Weighted |Le \ Lp| of every other element that meets Lp.
    for (const Index i : lp) {
      for (Index k = slice[i].elem_begin, end = k + slice[i].elem_len; k < end; ++k) {
        const Index e = pool[k];
        if (role[e] != Role::kElement) continue;
        if (outside_stamp[e] != pivot_stamp) {
          outside_stamp[e] = pivot_stamp;
          outside[e] = weight[e];
        }
        outside[e] -= nv[i];
      }
    }

    // Prune each boundary variable's slices, sum its external degree
    // outside Lp, and add element p to it. An element whose boundary lies
    // wholly inside Lp is absorbed (aggressive absorption); a variable left
    // touching nothing but p is eliminated together with p (mass
    // elimination).
    hashed.clear();
    for (const Index i : lp) {
      Index d = 0;
      std::uint64_t hash = 0;
      Slices& sl = slice[i];
      const Index old_begin = sl.elem_begin;
      const Index old_len = sl.elem_len;
      Index kept = 0;
      for (Index k = old_begin; k < old_begin + old_len; ++k) {
        const Index e = pool[k];
        if (role[e] != Role::kElement) continue;
        if (outside[e] == 0) {
          role[e] = Role::kAbsorbed;
          continue;
        }
        d += outside[e];
        hash += e;
        pool[old_begin + kept++] = e;
      }
      sl.elem_len = kept;
      const Index var_begin = sl.var_begin;
      const Index var_end = var_begin + sl.var_len;
      Index vkept = 0;
      for (Index k = var_begin; k < var_end; ++k) {
        const Index j = pool[k];
        if (role[j] != Role::kVariable || mark[j] == pivot_stamp) continue;
        d += nv[j];
        hash += j;
        pool[var_begin + vkept++] = j;
      }
      sl.var_len = vkept;
      if (kept == 0 && vkept == 0) {
        nleft -= nv[i];
        fold_into(p, i);
        continue;
      }
      if (kept < old_len) {
        pool[old_begin + kept] = p;
      } else {
        sl.elem_begin = static_cast<Index>(pool.size());
        for (Index k = old_begin; k < old_begin + kept; ++k) {
          const Index e = pool[k];
          pool.push_back(e);
        }
        pool.push_back(p);
      }
      ++sl.elem_len;
      ext[i] = d;
      hashed.emplace_back(hash, i);
    }

    // Supervariables: boundary variables with identical element and
    // variable slices are indistinguishable from here on and merge into
    // one, whose principal is the lowest index among them.
    std::sort(hashed.begin(), hashed.end());
    for (std::size_t first = 0; first < hashed.size();) {
      std::size_t last = first + 1;
      while (last < hashed.size() && hashed[last].first == hashed[first].first) ++last;
      for (std::size_t x = first; x + 1 < last; ++x) {
        const Index i = hashed[x].second;
        if (role[i] != Role::kVariable) continue;
        const Index set_stamp = next_stamp();
        for (Index k = slice[i].elem_begin, end = k + slice[i].elem_len; k < end; ++k) {
          mark[pool[k]] = set_stamp;
        }
        for (Index k = slice[i].var_begin, end = k + slice[i].var_len; k < end; ++k) {
          mark[pool[k]] = set_stamp;
        }
        const auto all_marked = [&](Index begin, Index len) {
          for (Index k = begin; k < begin + len; ++k) {
            if (mark[pool[k]] != set_stamp) return false;
          }
          return true;
        };
        for (std::size_t y = x + 1; y < last; ++y) {
          const Index j = hashed[y].second;
          const Slices& a = slice[i];
          const Slices& b = slice[j];
          if (role[j] == Role::kVariable && b.elem_len == a.elem_len && b.var_len == a.var_len &&
              all_marked(b.elem_begin, b.elem_len) && all_marked(b.var_begin, b.var_len)) {
            fold_into(i, j);
          }
        }
      }
      first = last;
    }

    // Final boundary and approximate degrees: the least of the remaining
    // node count, the old degree plus Lp, and the external degree plus Lp.
    Index kept = 0;
    Index boundary_weight = 0;
    for (const Index i : lp) {
      if (role[i] != Role::kVariable) continue;
      boundary_weight += nv[i];
      lp[kept++] = i;
    }
    lp.resize(kept);
    for (const Index i : lp) {
      const Index others = boundary_weight - nv[i];
      degree[i] = std::min({nleft - nv[i], degree[i] + others, ext[i] + others});
      queue.set_degree(i, degree[i]);
    }
    weight[p] = boundary_weight;
    slice[p].var_begin = static_cast<Index>(pool.size());
    slice[p].var_len = static_cast<Index>(lp.size());
    pool.insert(pool.end(), lp.begin(), lp.end());
    if (pool.size() >= kNone / 2) {
      throw std::length_error("amd_ordering: quotient graph exceeds 32-bit indexing");
    }

    for (Index m = p; m != kNone; m = member_next[m]) order.push_back(m);
  }
  return order;
}

std::vector<std::size_t> identity_ordering(std::size_t n) {
  std::vector<std::size_t> out(n);
  std::iota(out.begin(), out.end(), std::size_t{0});
  return out;
}

}  // namespace pdn3d::linalg
