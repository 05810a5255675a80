#include "linalg/reorder.hpp"

#include <algorithm>
#include <limits>
#include <numeric>
#include <utility>

namespace pdn3d::linalg {

namespace {

constexpr std::size_t kNone = std::numeric_limits<std::size_t>::max();

enum class Role {
  kVariable,  ///< live principal (super)variable
  kMerged,    ///< folded into a supervariable or mass-eliminated with a pivot
  kElement,   ///< eliminated pivot whose boundary is still referenced
  kAbsorbed,  ///< element whose boundary a later element took over
};

/// Min-heap of the live variables keyed by (approximate degree, index).
/// Keys are updated in place, so the heap never holds more than the live
/// variables and never has to skip stale entries; each slot carries its key
/// so a comparison touches only the heap array.
class PivotHeap {
 public:
  explicit PivotHeap(const std::vector<std::size_t>& degree) : pos_(degree.size(), kNone) {
    heap_.reserve(degree.size());
    for (std::size_t v = 0; v < degree.size(); ++v) {
      heap_.emplace_back(degree[v], v);
      pos_[v] = v;
      sift_up(v);
    }
  }

  [[nodiscard]] std::size_t pop() {
    const std::size_t v = heap_.front().second;
    erase(v);
    return v;
  }

  void erase(std::size_t v) {
    const std::size_t at = pos_[v];
    const Key last = heap_.back();
    heap_.pop_back();
    pos_[v] = kNone;
    if (at == heap_.size()) return;
    place(at, last);
    sift_up(at);
    sift_down(pos_[last.second]);
  }

  void set_degree(std::size_t v, std::size_t degree) {
    const std::size_t at = pos_[v];
    const std::size_t old = heap_[at].first;
    heap_[at].first = degree;
    if (degree < old) {
      sift_up(at);
    } else if (degree > old) {
      sift_down(at);
    }
  }

 private:
  using Key = std::pair<std::size_t, std::size_t>;  ///< (degree, node)

  void place(std::size_t at, const Key& key) {
    heap_[at] = key;
    pos_[key.second] = at;
  }

  void sift_up(std::size_t at) {
    const Key key = heap_[at];
    while (at > 0 && key < heap_[(at - 1) / 2]) {
      place(at, heap_[(at - 1) / 2]);
      at = (at - 1) / 2;
    }
    place(at, key);
  }

  void sift_down(std::size_t at) {
    const Key key = heap_[at];
    for (std::size_t child = 2 * at + 1; child < heap_.size(); child = 2 * at + 1) {
      if (child + 1 < heap_.size() && heap_[child + 1] < heap_[child]) ++child;
      if (!(heap_[child] < key)) break;
      place(at, heap_[child]);
      at = child;
    }
    place(at, key);
  }

  std::vector<Key> heap_;
  std::vector<std::size_t> pos_;  ///< node -> heap slot (kNone once out)
};

}  // namespace

std::vector<std::size_t> amd_ordering(const Csr& a) {
  const std::size_t n = a.dimension();
  const auto rp = a.row_ptr();
  const auto ci = a.col_idx();

  // Quotient graph. A live variable i has a slice of the elements it
  // touches (elem_*) and a slice of its original neighbours that no element
  // covers yet (var_*); once i is eliminated, its var_* slice holds the new
  // element's boundary Le instead. Every slice lives in one append-only
  // pool. Entries whose role changed are dropped the next time their slice
  // is scanned.
  std::vector<std::size_t> pool;
  std::vector<std::size_t> var_begin(n + 1, 0);
  std::vector<std::size_t> var_len(n, 0);
  std::vector<std::size_t> elem_begin(n, 0);
  std::vector<std::size_t> elem_len(n, 0);
  std::vector<std::size_t> mark(n, 0);  ///< set membership: mark[i] == stamp

  // Initial variable slices: the pattern of A + A^T without its diagonal,
  // duplicates dropped.
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t k = rp[i]; k < rp[i + 1]; ++k) {
      if (ci[k] == i) continue;
      ++var_begin[i + 1];
      ++var_begin[ci[k] + 1];
    }
  }
  for (std::size_t i = 0; i < n; ++i) var_begin[i + 1] += var_begin[i];
  pool.resize(var_begin[n]);
  pool.reserve(3 * var_begin[n] + n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t k = rp[i]; k < rp[i + 1]; ++k) {
      const std::size_t j = ci[k];
      if (j == i) continue;
      pool[var_begin[i] + var_len[i]++] = j;
      pool[var_begin[j] + var_len[j]++] = i;
    }
  }
  std::vector<std::size_t> degree(n);  ///< variable: approximate external degree
  for (std::size_t i = 0; i < n; ++i) {
    std::size_t kept = 0;
    for (std::size_t k = var_begin[i]; k < var_begin[i] + var_len[i]; ++k) {
      if (mark[pool[k]] == i + 1) continue;
      mark[pool[k]] = i + 1;
      pool[var_begin[i] + kept++] = pool[k];
    }
    var_len[i] = kept;
    degree[i] = kept;
  }
  std::size_t stamp = n;

  std::vector<Role> role(n, Role::kVariable);
  std::vector<std::size_t> nv(n, 1);      ///< principal variable: nodes it stands for
  std::vector<std::size_t> weight(n, 0);  ///< element: sum of nv over its boundary
  std::vector<std::size_t> ext(n, 0);     ///< variable: external degree outside Lp
  PivotHeap heap(degree);
  // Nodes a principal variable stands for, chained from the variable
  // itself; they are emitted together when it is eliminated.
  std::vector<std::size_t> member_next(n, kNone);
  std::vector<std::size_t> member_tail(n);
  for (std::size_t i = 0; i < n; ++i) member_tail[i] = i;
  const auto fold_into = [&](std::size_t into, std::size_t from) {
    heap.erase(from);
    role[from] = Role::kMerged;
    nv[into] += nv[from];
    member_next[member_tail[into]] = from;
    member_tail[into] = member_tail[from];
  };

  std::vector<std::size_t> outside(n, 0);  ///< element: weighted |Le \ Lp|
  std::vector<std::size_t> outside_stamp(n, 0);
  std::vector<std::size_t> lp;
  std::vector<std::pair<std::size_t, std::size_t>> hashed;  ///< (list hash, variable)
  std::vector<std::size_t> order;
  order.reserve(n);
  std::size_t nleft = n;  ///< nodes not yet eliminated

  while (nleft > 0) {
    const std::size_t p = heap.pop();

    // New element p. Its boundary Lp is the union of p's variable
    // neighbours and the boundaries of the elements p touches, which p
    // absorbs.
    ++stamp;
    mark[p] = stamp;
    lp.clear();
    const auto collect = [&](std::size_t begin, std::size_t len) {
      for (std::size_t k = begin; k < begin + len; ++k) {
        const std::size_t i = pool[k];
        if (role[i] == Role::kVariable && mark[i] != stamp) {
          mark[i] = stamp;
          lp.push_back(i);
        }
      }
    };
    for (std::size_t k = elem_begin[p]; k < elem_begin[p] + elem_len[p]; ++k) {
      const std::size_t e = pool[k];
      if (role[e] != Role::kElement) continue;
      collect(var_begin[e], var_len[e]);
      role[e] = Role::kAbsorbed;
    }
    collect(var_begin[p], var_len[p]);
    role[p] = Role::kElement;
    nleft -= nv[p];

    // Weighted |Le \ Lp| of every other element that meets Lp.
    for (const std::size_t i : lp) {
      for (std::size_t k = elem_begin[i]; k < elem_begin[i] + elem_len[i]; ++k) {
        const std::size_t e = pool[k];
        if (role[e] != Role::kElement) continue;
        if (outside_stamp[e] != stamp) {
          outside_stamp[e] = stamp;
          outside[e] = weight[e];
        }
        outside[e] -= nv[i];
      }
    }

    // Prune each boundary variable's slices, sum its external degree
    // outside Lp, and add element p to it (the element slice is rewritten
    // at the end of the pool). An element whose boundary lies wholly inside
    // Lp is absorbed (aggressive absorption); a variable left touching
    // nothing but p is eliminated together with p (mass elimination).
    hashed.clear();
    for (const std::size_t i : lp) {
      std::size_t d = 0;
      std::size_t hash = 0;
      const std::size_t old_begin = elem_begin[i];
      const std::size_t old_end = old_begin + elem_len[i];
      elem_begin[i] = pool.size();
      for (std::size_t k = old_begin; k < old_end; ++k) {
        const std::size_t e = pool[k];
        if (role[e] != Role::kElement) continue;
        if (outside[e] == 0) {
          role[e] = Role::kAbsorbed;
          continue;
        }
        d += outside[e];
        hash += e;
        pool.push_back(e);
      }
      elem_len[i] = pool.size() - elem_begin[i];
      std::size_t kept = 0;
      for (std::size_t k = var_begin[i]; k < var_begin[i] + var_len[i]; ++k) {
        const std::size_t j = pool[k];
        if (role[j] != Role::kVariable || mark[j] == stamp) continue;
        d += nv[j];
        hash += j;
        pool[var_begin[i] + kept++] = j;
      }
      var_len[i] = kept;
      if (elem_len[i] == 0 && kept == 0) {
        nleft -= nv[i];
        fold_into(p, i);
        continue;
      }
      pool.push_back(p);
      ++elem_len[i];
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
        const std::size_t i = hashed[x].second;
        if (role[i] != Role::kVariable) continue;
        ++stamp;
        for (std::size_t k = elem_begin[i]; k < elem_begin[i] + elem_len[i]; ++k) {
          mark[pool[k]] = stamp;
        }
        for (std::size_t k = var_begin[i]; k < var_begin[i] + var_len[i]; ++k) {
          mark[pool[k]] = stamp;
        }
        const auto all_marked = [&](std::size_t begin, std::size_t len) {
          for (std::size_t k = begin; k < begin + len; ++k) {
            if (mark[pool[k]] != stamp) return false;
          }
          return true;
        };
        for (std::size_t y = x + 1; y < last; ++y) {
          const std::size_t j = hashed[y].second;
          if (role[j] == Role::kVariable && elem_len[j] == elem_len[i] &&
              var_len[j] == var_len[i] && all_marked(elem_begin[j], elem_len[j]) &&
              all_marked(var_begin[j], var_len[j])) {
            fold_into(i, j);
          }
        }
      }
      first = last;
    }

    // Final boundary and approximate degrees: the least of the remaining
    // node count, the old degree plus Lp, and the external degree plus Lp.
    std::size_t kept = 0;
    std::size_t boundary_weight = 0;
    for (const std::size_t i : lp) {
      if (role[i] != Role::kVariable) continue;
      boundary_weight += nv[i];
      lp[kept++] = i;
    }
    lp.resize(kept);
    for (const std::size_t i : lp) {
      const std::size_t others = boundary_weight - nv[i];
      degree[i] = std::min({nleft - nv[i], degree[i] + others, ext[i] + others});
      heap.set_degree(i, degree[i]);
    }
    weight[p] = boundary_weight;
    var_begin[p] = pool.size();
    var_len[p] = lp.size();
    pool.insert(pool.end(), lp.begin(), lp.end());

    for (std::size_t m = p; m != kNone; m = member_next[m]) order.push_back(m);
  }
  return order;
}

std::vector<std::size_t> identity_ordering(std::size_t n) {
  std::vector<std::size_t> out(n);
  std::iota(out.begin(), out.end(), std::size_t{0});
  return out;
}

}  // namespace pdn3d::linalg
