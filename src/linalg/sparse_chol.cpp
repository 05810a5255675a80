#include "linalg/sparse_chol.hpp"

#include <algorithm>
#include <cmath>
#include <condition_variable>
#include <cstring>
#include <exception>
#include <limits>
#include <mutex>
#include <queue>
#include <stdexcept>
#include <string>
#include <utility>

#include "exec/cancel.hpp"
#include "exec/thread_pool.hpp"
#include "faults/faults.hpp"
#include "linalg/reorder.hpp"
#include "obs/trace.hpp"

namespace pdn3d::linalg {

namespace {

using Index = std::uint32_t;
constexpr Index kNone = std::numeric_limits<Index>::max();

std::vector<std::size_t> fill_reducing_ordering(const Csr& a) {
  PDN3D_TRACE_SPAN("solver/factor_order");
  return amd_ordering(a);
}

/// Row k of the permuted matrix is CSR row perm[k] of @p a, its columns
/// mapped through @p pos (old -> new). Entries left of the diagonal are row
/// k of the lower triangle; entries right of it are, by symmetry, column k.
struct Permuted {
  const Csr& a;
  const std::vector<std::size_t>& perm;
  const std::vector<Index>& pos;

  template <typename F>
  void for_each(Index k, F&& f) const {
    const auto rp = a.row_ptr();
    const auto ci = a.col_idx();
    const std::size_t row = perm[k];
    for (std::size_t p = rp[row]; p < rp[row + 1]; ++p) f(pos[ci[p]], p);
  }
};

/// Elimination tree by Liu's algorithm with ancestor path compression.
/// Also counts the lower triangle's nonzeros, diagonal included.
std::vector<Index> elimination_tree(const Permuted& m, Index n, std::size_t& nnz_lower) {
  std::vector<Index> parent(n, kNone);
  std::vector<Index> ancestor(n, kNone);
  nnz_lower = 0;
  for (Index k = 0; k < n; ++k) {
    m.for_each(k, [&](Index i, std::size_t) {
      if (i > k) return;
      ++nnz_lower;
      while (i < k) {  // kNone > k ends the walk at a root
        const Index next = ancestor[i];
        ancestor[i] = k;
        if (next == kNone) parent[i] = k;
        i = next;
      }
    });
  }
  return parent;
}

/// Depth-first postorder of the forest, children in increasing index order
/// (the order the column counts visit). A parent's index exceeds its
/// children's, so subtree sizes sum upward in one pass, and each subtree's
/// segment is then cut from the back of its parent's, largest child last.
std::vector<Index> postorder(const std::vector<Index>& parent) {
  const auto n = static_cast<Index>(parent.size());
  std::vector<Index> size(n, 1);
  for (Index j = 0; j < n; ++j) {
    if (parent[j] != kNone) size[parent[j]] += size[j];
  }
  std::vector<Index> post(n);
  Index roots_end = n;
  for (Index j = n; j-- > 0;) {
    Index& end = parent[j] == kNone ? roots_end : size[parent[j]];  // parent's free segment end
    const Index at = end - 1;
    post[at] = j;
    end -= size[j];
    size[j] = at;  // from here on: the end of j's children's free segment
  }
  return post;
}

/// Column counts of L (diagonal included), in O(nnz(A)) by Gilbert, Ng &
/// Peyton's skeleton-leaf method (as in CSparse's cs_counts), visiting the
/// columns in the postorder @p post of the elimination tree. The per-column
/// deltas may wrap below zero while they are summed; unsigned arithmetic
/// makes every final count exact.
std::vector<Index> column_counts(const Permuted& m, const std::vector<Index>& parent,
                                 const std::vector<Index>& post) {
  const auto n = static_cast<Index>(parent.size());
  std::vector<Index> count(n);
  std::vector<Index> first(n, kNone);  // postorder position of the first descendant
  std::vector<Index> ancestor(n);
  // Row i's row subtree so far: one past the largest first[] of a leaf seen
  // (0 for none), and the previous leaf.
  struct RowState {
    Index seen_first = 0;
    Index prev_leaf = kNone;
  };
  std::vector<RowState> row(n);
  for (Index k = 0; k < n; ++k) {
    Index j = post[k];
    count[j] = first[j] == kNone ? 1 : 0;
    for (; j != kNone && first[j] == kNone; j = parent[j]) first[j] = k;
    ancestor[k] = k;
  }
  for (Index k = 0; k < n; ++k) {
    const Index j = post[k];
    if (parent[j] != kNone) --count[parent[j]];
    const Index first_j = first[j];
    Index leaves = 0;
    m.for_each(j, [&](Index i, std::size_t) {
      if (i <= j) return;
      RowState& r = row[i];
      if (first_j < r.seen_first) return;  // j is no leaf of row i's subtree
      r.seen_first = first_j + 1;
      const Index jprev = r.prev_leaf;
      r.prev_leaf = j;
      ++leaves;
      if (jprev == kNone) return;
      Index q = jprev;  // least common ancestor of jprev and j
      while (q != ancestor[q]) q = ancestor[q];
      for (Index s = jprev; s != q;) {
        const Index up = ancestor[s];
        ancestor[s] = q;
        s = up;
      }
      --count[q];
    });
    count[j] += leaves;
    if (parent[j] != kNone) ancestor[j] = parent[j];
  }
  for (Index j = 0; j < n; ++j) {
    if (parent[j] != kNone) count[parent[j]] += count[j];
  }
  return count;
}

/// Two doubles in one SSE2 register, through the vector extension of GCC
/// and Clang: the products below run two rows at a time. Every lane still
/// sums its products in column order, so the bits are the scalar loop's.
typedef double Pair __attribute__((vector_size(16)));

Pair load_pair(const double* p) {
  Pair v;
  std::memcpy(&v, p, sizeof v);
  return v;
}

/// block(rel[t], rel[j]) -= sum over c < k of x[c][t] * x[c][j], for rows j
/// in [j_begin, j_end) and t in [j, reach): a dense product of the columns
/// @p x with their own rows, scattered into a block of @p rows rows through
/// the relative row map @p rel. Rows j go in pairs and rows t in fours; a
/// pair's first row also lands above the second column's diagonal, in block
/// storage nothing reads.
void subtract_products(const double* const* x, Index k, Index j_begin, Index j_end, Index reach,
                       const Index* rel, double* block, std::size_t rows) {
  Index j = j_begin;
  for (; j + 1 < j_end; j += 2) {
    double* y0 = block + std::size_t{rel[j]} * rows;
    double* y1 = block + std::size_t{rel[j + 1]} * rows;
    Index t = j;
    for (; t + 4 <= reach; t += 4) {
      Pair a01 = {0.0, 0.0}, a23 = {0.0, 0.0}, b01 = {0.0, 0.0}, b23 = {0.0, 0.0};
      for (Index c = 0; c < k; ++c) {
        const double* col = x[c];
        const Pair e0 = {col[j], col[j]};
        const Pair e1 = {col[j + 1], col[j + 1]};
        const Pair x01 = load_pair(col + t);
        const Pair x23 = load_pair(col + t + 2);
        a01 += x01 * e0;
        a23 += x23 * e0;
        b01 += x01 * e1;
        b23 += x23 * e1;
      }
      y0[rel[t]] -= a01[0];
      y0[rel[t + 1]] -= a01[1];
      y0[rel[t + 2]] -= a23[0];
      y0[rel[t + 3]] -= a23[1];
      y1[rel[t]] -= b01[0];
      y1[rel[t + 1]] -= b01[1];
      y1[rel[t + 2]] -= b23[0];
      y1[rel[t + 3]] -= b23[1];
    }
    for (; t < reach; ++t) {
      double a = 0.0, b = 0.0;
      for (Index c = 0; c < k; ++c) {
        const double* col = x[c];
        a += col[t] * col[j];
        b += col[t] * col[j + 1];
      }
      y0[rel[t]] -= a;
      y1[rel[t]] -= b;
    }
  }
  if (j < j_end) {
    double* y0 = block + std::size_t{rel[j]} * rows;
    for (Index t = j; t < reach; ++t) {
      double a = 0.0;
      for (Index c = 0; c < k; ++c) a += x[c][t] * x[c][j];
      y0[rel[t]] -= a;
    }
  }
}

/// Dense Cholesky of one supernode's block in place: @p cols columns of
/// @p rows rows, column-major, whose top cols x cols lower triangle is the
/// diagonal block. Columns go in pairs: both take the products of the
/// columns before them, then the first is pivoted and updates the second.
/// @p identity holds 0..rows-1 and @p columns receives the column starts;
/// @p first is the elimination step of column 0.
void factor_block(double* block, Index cols, Index rows, const Index* identity,
                  const double** columns, Index first) {
  const auto pivot = [&](Index c) {
    const Index k = first + c;
    // Factorization can dominate a solve's wall time; poll the cooperative
    // cancellation flag every few hundred columns. The throw surfaces as a
    // rung failure, and the ladder's own poll converts it to kCancelled.
    if ((k & 0x1ffU) == 0 && exec::cancellation_requested()) {
      throw std::runtime_error("SparseCholesky: factorization cancelled at elimination step " +
                               std::to_string(k));
    }
    double* col = block + std::size_t{c} * rows;
    const double d = col[c];
    if (!(d > 0.0) || !std::isfinite(d)) {
      throw std::runtime_error("SparseCholesky: matrix not positive definite (pivot " +
                               std::to_string(d) + " at elimination step " + std::to_string(k) +
                               ")");
    }
    const double diag = std::sqrt(d);
    const double scale = 1.0 / diag;
    col[c] = diag;
    for (Index i = c + 1; i < rows; ++i) col[i] *= scale;
  };
  for (Index c = 0; c < cols; ++c) columns[c] = block + std::size_t{c} * rows;
  for (Index c = 0; c < cols; c += 2) {
    const Index pair_end = std::min(c + 2, cols);
    if (c > 0) subtract_products(columns, c, c, pair_end, rows, identity, block, rows);
    pivot(c);
    if (pair_end == c + 1) break;
    double* y0 = block + std::size_t{c} * rows;
    double* y1 = y0 + rows;
    const double l = y0[c + 1];
    for (Index i = c + 1; i < rows; ++i) y1[i] -= y0[i] * l;
    pivot(c + 1);
  }
}

/// What the numeric phase reads and writes besides its block: the permuted
/// matrix, the supernodes, L, and the left-looking loop's update lists. A
/// supernode is queued, once factored, at the supernode of its first row
/// below; each supernode it reaches takes its update and passes it on to
/// the supernode of its next row below, so a list holds the descendants due
/// to update its supernode next, newest first.
struct NumericPhase {
  const Permuted& m;
  const std::vector<Index>& super;     ///< first column of each supernode, then n
  const std::vector<Index>& super_of;  ///< column -> its supernode
  const std::uint32_t* col_ptr;
  const std::uint32_t* row_idx;
  double* values;
  Index max_rows = 0;
  Index max_cols = 0;
  std::size_t max_block = 0;
  std::vector<Index> identity;  ///< 0 .. max_rows - 1
  std::vector<Index> head;      ///< descendants due to update a supernode next
  std::vector<Index> link;
  std::vector<Index> next_row;  ///< a descendant's first row not yet applied

  [[nodiscard]] Index rows_below(Index s) const {
    const Index last = super[s + 1] - 1;
    return col_ptr[last + 1] - col_ptr[last] - 1;
  }
  /// The rows below supernode s's last column.
  [[nodiscard]] const Index* below(Index s) const { return row_idx + col_ptr[super[s + 1] - 1] + 1; }
  /// The supernode @p d updates next, or kNone when it has updated all.
  [[nodiscard]] Index target(Index d) const {
    return next_row[d] == rows_below(d) ? kNone : super_of[below(d)[next_row[d]]];
  }
  void enqueue(Index d, Index target) {
    link[d] = head[target];
    head[target] = d;
  }
};

/// Factors supernodes one at a time in one thread's buffers (CHOLMOD's
/// left-looking supernodal method). A supernode is one dense column-major
/// block whose rows are its own columns followed by the rows below its last
/// column: exactly the rows of its first column in L, and from each later
/// column on, exactly that column's. The block gathers its columns of A,
/// subtracts the update of every descendant its list holds (a dense product
/// of the descendant's columns in L, scattered through a relative row map),
/// is factored in place and copied into L.
class SupernodeWorker {
 public:
  explicit SupernodeWorker(NumericPhase& phase)
      : ph_(phase),
        block_(std::make_unique_for_overwrite<double[]>(phase.max_block)),
        map_(phase.m.perm.size()),
        rel_(phase.max_rows),
        columns_(phase.max_cols) {}

  /// Factors supernode @p s and queues its descendants and itself at their
  /// next supernodes, each through @p pass(d, target).
  template <typename Pass>
  void factor(Index s, Pass&& pass) {
    NumericPhase& ph = ph_;
    const Index k1 = ph.super[s];
    const Index k2 = ph.super[s + 1];
    const Index cols = k2 - k1;
    const Index* below = ph.below(s);
    const Index rows = cols + ph.rows_below(s);
    double* block = block_.get();
    Index* map = map_.data();
    std::fill(block, block + std::size_t{rows} * cols, 0.0);
    for (Index i = k1; i < k2; ++i) map[i] = i - k1;
    for (Index t = cols; t < rows; ++t) map[below[t - cols]] = t;

    const auto av = ph.m.a.values();
    for (Index j = k1; j < k2; ++j) {
      double* col = block + std::size_t{j - k1} * rows;
      ph.m.for_each(j, [&](Index i, std::size_t p) {
        if (i < j) return;
        // A row outside the block can only come from an asymmetric pattern.
        if (i >= k2 && (map[i] < cols || map[i] >= rows || below[map[i] - cols] != i)) {
          throw std::invalid_argument("SparseCholesky: matrix pattern is not symmetric");
        }
        col[map[i]] = av[p];
      });
    }

    for (Index d = ph.head[s]; d != kNone;) {
      const Index next_d = ph.link[d];
      const Index d_below = ph.rows_below(d);
      const Index* d_row = ph.below(d);
      const Index p1 = ph.next_row[d];
      Index p2 = p1;
      while (p2 < d_below && d_row[p2] < k2) ++p2;
      const Index inside = p2 - p1;  // rows in this block's columns
      const Index reach = d_below - p1;
      for (Index t = 0; t < reach; ++t) rel_[t] = map[d_row[p1 + t]];
      // Each column of d ends with d's rows below its diagonal block.
      const Index d_first = ph.super[d];
      const Index d_cols = ph.super[d + 1] - d_first;
      for (Index c = 0; c < d_cols; ++c) {
        columns_[c] = ph.values + ph.col_ptr[d_first + c + 1] - d_below + p1;
      }
      subtract_products(columns_.data(), d_cols, 0, inside, reach, rel_.data(), block, rows);
      ph.next_row[d] = p2;
      if (const Index t = ph.target(d); t != kNone) pass(d, t);
      d = next_d;
    }

    factor_block(block, cols, rows, ph.identity.data(), columns_.data(), k1);
    for (Index c = 0; c < cols; ++c) {
      const double* col = block + std::size_t{c} * rows;
      std::copy(col + c, col + rows, ph.values + ph.col_ptr[k1 + c]);
    }
    ph.next_row[s] = 0;
    if (const Index t = ph.target(s); t != kNone) pass(s, t);
  }

 private:
  NumericPhase& ph_;
  /// Each supernode zeroes its own part, so the pages past the largest block
  /// this thread factors are never touched.
  std::unique_ptr<double[]> block_;
  std::vector<Index> map_;  ///< row -> its position in the current block
  std::vector<Index> rel_;
  std::vector<const double*> columns_;
};

/// Matrices of fewer nodes factor on the calling thread: their numeric
/// phase takes a few hundred µs at most, about what starting the pool's
/// threads costs.
constexpr std::size_t kMinPoolNodes = 2048;

/// Light subtrees per pool thread: many enough to balance the threads, few
/// enough to leave little work above them.
constexpr double kSubtreesPerThread = 8.0;

/// The numeric phase on a pool. A light subtree is a maximal subtree of the
/// supernodal elimination tree holding at most 1 / (kSubtreesPerThread *
/// threads) of the estimated work; each is one task, factored in increasing
/// order with the serial loop's lists, which only its own supernodes fill.
/// Every supernode above them is a task of its own, ready once the tasks
/// below it are done: a descendant's update of it is passed with its place
/// in the serial loop (the supernode that passed it, and the pass's rank
/// there), and its list is the passes sorted by that place, newest first,
/// as the serial loop's list holds them. So every supernode takes its
/// updates in the serial order, and L is bitwise the serial factor.
///
/// A thread whose task readies the task above goes on with that one; an
/// idle thread takes the ready task heaviest with the work above it. A
/// supernode that throws stops its task and spoils the tasks above it, the
/// rest go on, and the error of the lowest such supernode is rethrown: the
/// one the serial loop meets first, since every supernode below it succeeds
/// alike. A cancellation stops every thread.
class SubtreeNumeric {
 public:
  SubtreeNumeric(NumericPhase& phase, const std::vector<Index>& super_parent)
      : ph_(phase), parent_(super_parent) {}

  /// Factors every supernode; returns the number of light subtrees.
  Index run(exec::ThreadPool& pool) {
    build_tasks(pool.thread_count());
    const auto tasks = static_cast<Index>(task_parent_.size());
    std::priority_queue<std::pair<double, Index>> ready;
    for (Index t = 0; t < tasks; ++t) {
      if (pending_[t] == 0) ready.emplace(priority_[t], t);
    }
    Index remaining = tasks;
    bool aborted = false;
    Index first_failure = kNone;
    std::exception_ptr error;
    std::vector<unsigned char> spoiled(tasks, 0);
    std::mutex mutex;
    std::condition_variable ready_cv;

    pool.parallel_for(pool.thread_count(), [&](std::size_t) {
      std::unique_ptr<SupernodeWorker> worker;  // buffers, made with the first task
      Index t = kNone;  // a task this thread readied, to go on with
      for (;;) {
        bool skip = false;
        {
          std::unique_lock<std::mutex> lock(mutex);
          if (t == kNone) {
            ready_cv.wait(lock, [&] { return aborted || remaining == 0 || !ready.empty(); });
            if (aborted || ready.empty()) return;
            t = ready.top().second;
            ready.pop();
          } else if (aborted) {
            return;
          }
          skip = spoiled[t] != 0;
        }
        Index failed = kNone;
        std::exception_ptr failure;
        for (Index k = member_ptr_[t]; !skip && k < member_ptr_[t + 1]; ++k) {
          try {
            if (!worker) worker = std::make_unique<SupernodeWorker>(ph_);
            factor(members_[k], *worker);
          } catch (...) {
            failed = members_[k];
            failure = std::current_exception();
            break;
          }
        }
        bool finished = false;
        {
          const std::lock_guard<std::mutex> lock(mutex);
          if (failed != kNone) {
            if (failed < first_failure) {
              first_failure = failed;
              error = std::move(failure);
            }
            if (exec::cancellation_requested()) aborted = true;
          }
          const Index p = task_parent_[t];
          t = kNone;
          if (p != kNone) {
            if (skip || failed != kNone) spoiled[p] = 1;
            if (--pending_[p] == 0) t = p;
          }
          --remaining;
          finished = aborted || remaining == 0;
        }
        if (finished) ready_cv.notify_all();
      }
    });
    if (error) std::rethrow_exception(error);
    return subtrees_;
  }

 private:
  /// An update passed to a supernode above the light subtrees: descendant
  /// d, passed by supernode x as its rank-th pass.
  struct Pass {
    Index x;
    Index rank;
    Index d;
  };
  /// The passes to one supernode above the light subtrees.
  struct Inbox {
    std::mutex mutex;
    std::vector<Pass> passes;
  };

  /// Factors supernode @p s: a supernode above the light subtrees first
  /// lists its passes in the serial order.
  void factor(Index s, SupernodeWorker& worker) {
    if (const Index box = inbox_of_[s]; box != kNone) {
      std::vector<Pass>& passes = inboxes_[box].passes;
      std::sort(passes.begin(), passes.end(), [](const Pass& p, const Pass& q) {
        return p.x < q.x || (p.x == q.x && p.rank < q.rank);
      });
      for (const Pass& p : passes) ph_.enqueue(p.d, s);
    }
    Index rank = 0;
    worker.factor(s, [&](Index d, Index target) {
      const Index box = inbox_of_[target];
      if (box == kNone) {
        ph_.enqueue(d, target);
        return;
      }
      Inbox& inbox = inboxes_[box];
      const std::lock_guard<std::mutex> lock(inbox.mutex);
      inbox.passes.push_back({s, rank++, d});
    });
  }

  /// Cuts the light subtrees by an estimate of each supernode's time, and
  /// makes the tasks. A supernode's block costs about 7.5 ns an entry
  /// (zeroing, gathering, pivoting and the first touch of L's pages), and
  /// its updates of the supernodes above it, taken as one dense product of
  /// its rows below, 0.25 ns a multiply-add and 4 ns a row mapped: the
  /// terms of a fit to serial timings of the paper benchmarks' supernodes
  /// (4-vCPU x86-64 host, first build).
  void build_tasks(std::size_t threads) {
    const auto ns = static_cast<Index>(parent_.size());
    std::vector<double> work(ns);
    std::vector<double> subtree(ns, 0.0);
    double total = 0.0;
    for (Index s = 0; s < ns; ++s) {
      const double cols = ph_.super[s + 1] - ph_.super[s];
      const double below = ph_.rows_below(s);
      work[s] = 7.5 * (cols + below) * cols + 0.25 * cols * below * (below + 1) / 2 + 4.0 * below;
      subtree[s] += work[s];
      if (parent_[s] == kNone) {
        total += subtree[s];
      } else {
        subtree[parent_[s]] += subtree[s];
      }
    }
    const double limit = total / (kSubtreesPerThread * static_cast<double>(threads));
    // Parents first: a supernode above the limit is a task and has an
    // inbox; the root of a light subtree starts a task its subtree joins.
    std::vector<Index> task_of(ns);
    std::vector<double> above(ns);  // work from s up to its root
    inbox_of_.assign(ns, kNone);
    const auto new_task = [&](Index parent, double weight) {
      task_parent_.push_back(parent == kNone ? kNone : task_of[parent]);
      priority_.push_back(weight + (parent == kNone ? 0.0 : above[parent]));
      return static_cast<Index>(task_parent_.size() - 1);
    };
    Index boxes = 0;
    for (Index s = ns; s-- > 0;) {
      const Index p = parent_[s];
      above[s] = work[s] + (p == kNone ? 0.0 : above[p]);
      if (subtree[s] > limit) {
        task_of[s] = new_task(p, work[s]);
        inbox_of_[s] = boxes++;
      } else if (p == kNone || subtree[p] > limit) {
        task_of[s] = new_task(p, subtree[s]);
        ++subtrees_;
      } else {
        task_of[s] = task_of[p];
      }
    }
    inboxes_ = std::make_unique<Inbox[]>(boxes);
    const auto tasks = static_cast<Index>(task_parent_.size());
    member_ptr_.assign(std::size_t{tasks} + 1, 0);
    for (Index s = 0; s < ns; ++s) ++member_ptr_[task_of[s] + 1];
    for (Index t = 0; t < tasks; ++t) member_ptr_[t + 1] += member_ptr_[t];
    members_.resize(ns);
    std::vector<Index> fill(member_ptr_.begin(), member_ptr_.end() - 1);
    for (Index s = 0; s < ns; ++s) members_[fill[task_of[s]]++] = s;
    pending_.assign(tasks, 0);
    for (Index t = 0; t < tasks; ++t) {
      if (task_parent_[t] != kNone) ++pending_[task_parent_[t]];
    }
  }

  NumericPhase& ph_;
  const std::vector<Index>& parent_;  ///< each supernode's parent
  Index subtrees_ = 0;
  // Task t factors members_[member_ptr_[t] ..] in increasing order once
  // pending_[t] tasks below it are done; task_parent_[t] waits for it.
  std::vector<Index> member_ptr_;
  std::vector<Index> members_;
  std::vector<Index> task_parent_;
  std::vector<Index> pending_;
  std::vector<double> priority_;  ///< a task's work and the work above it
  std::vector<Index> inbox_of_;   ///< a supernode's inbox, kNone for a light one
  std::unique_ptr<Inbox[]> inboxes_;
};

/// The pool a build's numeric phase runs on, if any: one per process at the
/// process's default size, made by the first build that wants it and never
/// joined, so no build waits for its threads to start or to stop. A build
/// holds it from before its ordering, while its threads come up, to the end
/// of its numeric phase. A small matrix, a one-thread default, a build in a
/// region's task (where a pool would run inline) and a build that finds the
/// pool held by another thread's build factor on the calling thread.
class PoolLease {
 public:
  explicit PoolLease(std::size_t n) {
    if (n < kMinPoolNodes || exec::in_region()) return;
    const std::size_t threads = exec::default_thread_count();
    if (threads <= 1) return;
    Shared& shared = Shared::instance();
    lock_ = std::unique_lock<std::mutex>(shared.mutex, std::try_to_lock);
    if (!lock_) return;
    if (!shared.pool || shared.pool->thread_count() != threads) {
      shared.pool = std::make_unique<exec::ThreadPool>(threads);
    }
    pool_ = shared.pool.get();
  }

  [[nodiscard]] exec::ThreadPool* get() const { return pool_; }

 private:
  struct Shared {
    std::mutex mutex;  ///< held by the build using the pool
    std::unique_ptr<exec::ThreadPool> pool;
    /// Never destroyed: the process exits without joining the threads.
    static Shared& instance() {
      static Shared* const shared = new Shared;
      return *shared;
    }
  };
  std::unique_lock<std::mutex> lock_;
  exec::ThreadPool* pool_ = nullptr;
};

}  // namespace

SparseCholesky::SparseCholesky(const Csr& a, const SparseCholeskyOptions& options)
    : n_(a.dimension()) {
  // A new pool's threads start while AMD orders the matrix, so they are
  // waiting when the numeric phase begins.
  const PoolLease pool(n_);
  perm_ = fill_reducing_ordering(a);
  factor(a, options, pool.get());
}

SparseCholesky::SparseCholesky(const Csr& a, std::vector<std::size_t> perm,
                               const SparseCholeskyOptions& options)
    : n_(a.dimension()), perm_(std::move(perm)) {
  const PoolLease pool(n_);
  factor(a, options, pool.get());
}

void SparseCholesky::factor(const Csr& a, const SparseCholeskyOptions& options,
                            exec::ThreadPool* pool) {
  PDN3D_FAULT_STALL("linalg.chol.stall", 50.0);
  if (perm_.size() != n_) throw std::invalid_argument("SparseCholesky: permutation size");
  if (n_ >= kNone) throw std::length_error("SparseCholesky: factor exceeds 32-bit indexing");
  const auto n = static_cast<Index>(n_);
  std::vector<Index> pos(n, kNone);  // old -> new
  for (Index k = 0; k < n; ++k) {
    if (perm_[k] >= n_ || pos[perm_[k]] != kNone) {
      throw std::invalid_argument("SparseCholesky: not a permutation");
    }
    pos[perm_[k]] = k;
  }
  const Permuted m{a, perm_, pos};

  // Symbolic phase: elimination tree, column counts (and the fill guard on
  // their sum), supernodes and L's pattern.
  std::vector<Index> super;  // first column of each supernode, then n
  std::vector<Index> super_of(n);
  std::vector<Index> super_parent;  // each supernode's parent, kNone at a root
  {
    PDN3D_TRACE_SPAN("solver/factor_symbolic");
    std::size_t nnz_lower = 0;
    const std::vector<Index> parent = elimination_tree(m, n, nnz_lower);
    const std::vector<Index> count = column_counts(m, parent, postorder(parent));
    std::size_t factor_nnz = 0;
    for (const Index c : count) factor_nnz += c;
    if (static_cast<double>(factor_nnz) > options.max_fill_ratio * static_cast<double>(nnz_lower)) {
      throw std::runtime_error(
          "SparseCholesky: fill ratio exceeds guard (nnz(L) >= " + std::to_string(factor_nnz) +
          " against " + std::to_string(nnz_lower) + " lower-triangle nonzeros, limit ratio " +
          std::to_string(options.max_fill_ratio) + ")");
    }
    fill_ratio_ = nnz_lower > 0 ? static_cast<double>(factor_nnz) / static_cast<double>(nnz_lower)
                                : 1.0;
    if (factor_nnz > std::numeric_limits<std::uint32_t>::max()) {
      throw std::length_error("SparseCholesky: factor exceeds 32-bit indexing");
    }

    // Fundamental supernodes: column j continues j-1's supernode when j is
    // j-1's parent, j-1 is j's only child, and j's pattern is j-1's minus j-1.
    std::vector<Index> children(n, 0);
    for (Index j = 0; j < n; ++j) {
      if (parent[j] != kNone) ++children[parent[j]];
    }
    for (Index j = 0; j < n; ++j) {
      if (j == 0 || parent[j - 1] != j || count[j - 1] != count[j] + 1 || children[j] > 1) {
        super.push_back(j);
      }
      super_of[j] = static_cast<Index>(super.size() - 1);
    }
    super.push_back(n);
    const auto ns = static_cast<Index>(super.size() - 1);
    super_parent.resize(ns);
    for (Index s = 0; s < ns; ++s) {
      const Index up = parent[super[s + 1] - 1];
      super_parent[s] = up == kNone ? kNone : super_of[up];
    }

    // L's pattern. A supernode's columns share the rows below its last
    // column; row k joins them for every supernode on the tree path from an
    // entry of row k up to k's own supernode, in increasing k, so each list
    // comes out sorted. Those rows go into the last column, and the other
    // columns copy them behind their dense diagonal part.
    col_ptr_.assign(n_ + 1, 0);
    for (Index j = 0; j < n; ++j) col_ptr_[j + 1] = col_ptr_[j] + count[j];
    row_idx_.resize(factor_nnz);
    // What the walk reads and writes per supernode, side by side: the row
    // it last took, where its next row goes, where its rows end and its
    // parent.
    struct WalkState {
      Index mark;
      Index fill;
      Index end;
      Index parent;
    };
    std::vector<WalkState> walk(ns);
    for (Index s = 0; s < ns; ++s) {
      const Index last = super[s + 1] - 1;
      row_idx_[col_ptr_[last]] = last;
      walk[s] = {kNone, col_ptr_[last] + 1, col_ptr_[last + 1], super_parent[s]};
    }
    for (Index k = 0; k < n; ++k) {
      walk[super_of[k]].mark = k;
      m.for_each(k, [&](Index j, std::size_t) {
        if (j >= k) return;
        for (Index s = super_of[j]; walk[s].mark != k; s = walk[s].parent) {
          WalkState& w = walk[s];
          if (w.fill == w.end) {
            throw std::invalid_argument("SparseCholesky: matrix pattern is not symmetric");
          }
          w.mark = k;
          row_idx_[w.fill++] = k;
        }
      });
    }
    for (Index s = 0; s < ns; ++s) {
      const Index last = super[s + 1] - 1;
      if (walk[s].fill != walk[s].end) {
        throw std::invalid_argument("SparseCholesky: matrix pattern is not symmetric");
      }
      const Index* below = row_idx_.data() + col_ptr_[last] + 1;
      const Index below_count = col_ptr_[last + 1] - col_ptr_[last] - 1;
      for (Index j = super[s]; j < last; ++j) {
        Index* out = row_idx_.data() + col_ptr_[j];
        for (Index i = j; i <= last; ++i) *out++ = i;
        std::copy(below, below + below_count, out);
      }
    }
  }

  // Numeric phase: every supernode in increasing order on this thread, or
  // the light subtrees on the pool first.
  PDN3D_TRACE_SPAN_NAMED(span, "solver/factor_numeric");
  const auto ns = static_cast<Index>(super.size() - 1);
  values_ = std::make_unique_for_overwrite<double[]>(row_idx_.size());
  NumericPhase phase{.m = m,
                     .super = super,
                     .super_of = super_of,
                     .col_ptr = col_ptr_.data(),
                     .row_idx = row_idx_.data(),
                     .values = values_.get(),
                     .identity = {},
                     .head = std::vector<Index>(ns, kNone),
                     .link = std::vector<Index>(ns, kNone),
                     .next_row = std::vector<Index>(ns, 0)};
  for (Index s = 0; s < ns; ++s) {
    const Index cols = super[s + 1] - super[s];
    const Index rows = cols + phase.rows_below(s);
    phase.max_rows = std::max(phase.max_rows, rows);
    phase.max_cols = std::max(phase.max_cols, cols);
    phase.max_block = std::max(phase.max_block, std::size_t{rows} * cols);
  }
  phase.identity.resize(phase.max_rows);
  for (Index i = 0; i < phase.max_rows; ++i) phase.identity[i] = i;

  if (pool != nullptr) {
    span.attribute("threads", static_cast<std::uint64_t>(pool->thread_count()));
    const Index subtrees = SubtreeNumeric(phase, super_parent).run(*pool);
    span.attribute("subtrees", static_cast<std::uint64_t>(subtrees));
  } else {
    span.attribute("threads", std::uint64_t{1});
    span.attribute("subtrees", std::uint64_t{0});
    SupernodeWorker worker(phase);
    for (Index s = 0; s < ns; ++s) {
      worker.factor(s, [&](Index d, Index t) { phase.enqueue(d, t); });
    }
  }
  // The sweeps address a block in the original node order: every row index
  // of L becomes the node it eliminates.
  for (Index& row : row_idx_) row = static_cast<Index>(perm_[row]);
  super_ = std::move(super);
}

void SparseCholesky::solve(std::span<const double> b, std::span<double> x) const {
  if (b.size() != n_ || x.size() != n_) {
    throw std::invalid_argument("SparseCholesky::solve: size mismatch");
  }
  if (x.data() != b.data()) std::copy(b.begin(), b.end(), x.begin());
  solve_block(x, 1);
}

std::vector<double> SparseCholesky::solve(std::span<const double> b) const {
  std::vector<double> x(n_, 0.0);
  solve(b, x);
  return x;
}

template <std::size_t Width>
void SparseCholesky::forward_by_columns(double* y) const {
  const double* values = values_.get();
  const std::uint32_t* col_ptr = col_ptr_.data();
  const std::uint32_t* row_idx = row_idx_.data();
  const std::size_t* node = perm_.data();
  for (std::size_t j = 0; j < n_; ++j) {
    double* yj = y + node[j] * Width;
    const double d = values[col_ptr[j]];
    double t[Width];
    for (std::size_t r = 0; r < Width; ++r) {
      t[r] = yj[r] / d;
      yj[r] = t[r];
    }
    for (std::uint32_t p = col_ptr[j] + 1; p < col_ptr[j + 1]; ++p) {
      const double v = values[p];
      double* yi = y + std::size_t{row_idx[p]} * Width;
      for (std::size_t r = 0; r < Width; ++r) yi[r] -= v * t[r];
    }
  }
}

template <std::size_t Width>
void SparseCholesky::forward_by_supernodes(double* y) const {
  // A supernode's columns first divide and update the later columns of its
  // diagonal block, one after another. The rows below it, which every column
  // shares and none of them reads, then take the supernode's updates in
  // column order, each row held in registers: every entry sees the
  // subtractions of forward_by_columns in its order.
  const double* values = values_.get();
  const std::uint32_t* col_ptr = col_ptr_.data();
  const std::uint32_t* row_idx = row_idx_.data();
  const std::size_t* node = perm_.data();
  for (std::size_t s = 0; s + 1 < super_.size(); ++s) {
    const std::size_t first = super_[s];
    const std::size_t end = super_[s + 1];
    for (std::size_t j = first; j < end; ++j) {
      double* yj = y + node[j] * Width;
      const double d = values[col_ptr[j]];
      double t[Width];
      for (std::size_t r = 0; r < Width; ++r) {
        t[r] = yj[r] / d;
        yj[r] = t[r];
      }
      const std::uint32_t diagonal_end = col_ptr[j] + static_cast<std::uint32_t>(end - j);
      for (std::uint32_t p = col_ptr[j] + 1; p < diagonal_end; ++p) {
        const double v = values[p];
        double* yi = y + std::size_t{row_idx[p]} * Width;
        for (std::size_t r = 0; r < Width; ++r) yi[r] -= v * t[r];
      }
    }
    // Row k below sits at col_ptr[j] + (end - j) + k in every column j.
    const std::uint32_t* below = row_idx + col_ptr[end - 1] + 1;
    const std::size_t rows = col_ptr[end] - col_ptr[end - 1] - 1;
    for (std::size_t k = 0; k < rows; ++k) {
      double* yi = y + std::size_t{below[k]} * Width;
      double acc[Width];
      for (std::size_t r = 0; r < Width; ++r) acc[r] = yi[r];
      for (std::size_t j = first; j < end; ++j) {
        const double v = values[col_ptr[j] + (end - j) + k];
        const double* t = y + node[j] * Width;
        for (std::size_t r = 0; r < Width; ++r) acc[r] -= v * t[r];
      }
      for (std::size_t r = 0; r < Width; ++r) yi[r] = acc[r];
    }
  }
}

template <std::size_t Width>
void SparseCholesky::sweep(double* y) const {
  // solve()'s two sweeps with every scalar widened to Width right-hand
  // sides. Each right-hand side sees solve()'s operations in solve()'s order,
  // so its slice comes out bit for bit. Column j of L eliminates node
  // perm_[j], and its row indices are nodes too, so the block is read and
  // written where it lies.
  if constexpr (Width < kRowWiseWidth) {
    forward_by_columns<Width>(y);
  } else {
    forward_by_supernodes<Width>(y);
  }
  const double* values = values_.get();
  const std::uint32_t* col_ptr = col_ptr_.data();
  const std::uint32_t* row_idx = row_idx_.data();
  const std::size_t* node = perm_.data();
  for (std::size_t j = n_; j-- > 0;) {
    double* yj = y + node[j] * Width;
    double sum[Width];
    for (std::size_t r = 0; r < Width; ++r) sum[r] = yj[r];
    for (std::uint32_t p = col_ptr[j] + 1; p < col_ptr[j + 1]; ++p) {
      const double v = values[p];
      const double* yi = y + std::size_t{row_idx[p]} * Width;
      for (std::size_t r = 0; r < Width; ++r) sum[r] -= v * yi[r];
    }
    const double d = values[col_ptr[j]];
    for (std::size_t r = 0; r < Width; ++r) yj[r] = sum[r] / d;
  }
}

void SparseCholesky::solve_block(std::span<double> y, std::size_t width) const {
  if (width == 0 || width > kSolveBlock || y.size() != n_ * width) {
    throw std::invalid_argument("SparseCholesky::solve_block: size mismatch");
  }
  at_width(width, [&](auto w) { sweep<decltype(w)::value>(y.data()); });
}

}  // namespace pdn3d::linalg
