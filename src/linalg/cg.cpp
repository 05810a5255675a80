#include "linalg/cg.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <stdexcept>
#include <string>

#include "exec/cancel.hpp"
#include "faults/faults.hpp"
#include "linalg/ichol.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/timer.hpp"

namespace pdn3d::linalg {

const char* to_string(CgFailure failure) {
  switch (failure) {
    case CgFailure::kNone: return "none";
    case CgFailure::kMaxIterations: return "max-iterations";
    case CgFailure::kDivergedNonFinite: return "diverged-non-finite";
    case CgFailure::kStagnated: return "stagnated";
    case CgFailure::kIndefinite: return "indefinite";
    case CgFailure::kCancelled: return "cancelled";
  }
  return "?";
}

namespace {

/// y = A x for L lane-interleaved systems over one pattern, lane l with the
/// values @p av[l], returning each lane's x.y from the same pass. Each lane
/// accumulates in row order, so its product equals dot(x, y) bit for bit;
/// fusing saves one sweep over both vectors per CG iteration.
template <std::size_t L>
std::array<double, L> multiply_dot(std::size_t n, const std::size_t* rp, const std::size_t* ci,
                                   const std::array<const double*, L>& av, const double* x,
                                   double* y) {
  std::array<double, L> xy{};
  for (std::size_t r = 0; r < n; ++r) {
    std::array<double, L> sum{};
    for (std::size_t k = rp[r]; k < rp[r + 1]; ++k) {
      const double* xc = x + ci[k] * L;
      for (std::size_t l = 0; l < L; ++l) sum[l] += av[l][k] * xc[l];
    }
    for (std::size_t l = 0; l < L; ++l) {
      y[r * L + l] = sum[l];
      xy[l] += x[r * L + l] * sum[l];
    }
  }
  return xy;
}

template <std::size_t L>
std::array<double, L> dot_lanes(std::size_t n, const double* a, const double* b) {
  std::array<double, L> s{};
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t l = 0; l < L; ++l) s[l] += a[i * L + l] * b[i * L + l];
  }
  return s;
}

/// The lane solve behind solve_cg (L = 1) and solve_cg_lanes. Each lane runs
/// solve_cg's sequence -- set-up, then one CG iteration per lockstep pass,
/// then the true-residual check -- with the passes' loops shared.
template <std::size_t L>
class LaneSolve {
 public:
  LaneSolve(CgLaneFeed& feed, const CgOptions& options, CgScratch& ws)
      : feed_(feed), options_(options), ws_(ws) {}

  void run() {
    for (;;) {
      refill();
      if (active_ == 0) return;
      for (std::size_t l = 0; l < L; ++l) {
        if (lanes_[l].active && lanes_[l].it >= options_.max_iterations) finish(l);
      }
      if (active_ == 0) continue;
      if (exec::cancellation_requested()) {
        for (std::size_t l = 0; l < L; ++l) {
          if (!lanes_[l].active) continue;
          CgResult& res = ws_.results[l];
          res.failure = CgFailure::kCancelled;
          res.detail = "cancelled by caller at iteration " + std::to_string(lanes_[l].it);
          finish(l);
        }
        continue;
      }
      iterate();
    }
  }

 private:
  struct Lane {
    bool active = false;
    CgSystem sys;
    std::unique_ptr<IncompleteCholesky> owned_ic;
    double bnorm = 0.0;
    double target = 0.0;
    double r0norm = 0.0;    ///< ||b - A x0||
    bool poisoned = false;  ///< the linalg.cg.nan fault replaced r0[0]
    double rz = 0.0;
    double best_before_window = 0.0;
    double best_in_window = 0.0;
    std::size_t window_start = 0;
    std::size_t it = 0;
  };

  /// One CG iteration of every active lane.
  void iterate() {
    const std::size_t n = n_;
    double* const x = ws_.x.data();
    double* const r = ws_.r.data();
    double* const z = ws_.z.data();
    double* const p = ws_.p.data();
    double* const ap = ws_.ap.data();

    const std::array<double, L> pap = multiply_dot<L>(n, rp_, ci_, av_, p, ap);
    std::array<double, L> alpha{};
    for (std::size_t l = 0; l < L; ++l) {
      Lane& lane = lanes_[l];
      if (!lane.active) continue;
      if (!std::isfinite(pap[l])) {
        fail(l, CgFailure::kDivergedNonFinite,
             "curvature p'Ap became non-finite at iteration " + std::to_string(lane.it));
      } else if (pap[l] <= 0.0) {
        // The matrix is not SPD on this subspace -- CG's update is undefined.
        fail(l, CgFailure::kIndefinite,
             "non-positive curvature p'Ap = " + std::to_string(pap[l]) + " at iteration " +
                 std::to_string(lane.it));
      } else {
        alpha[l] = lane.rz / pap[l];
      }
    }
    if (active_ == 0) return;

    // x, r and ||r||^2 in one pass, so each vector is streamed once. A lane
    // that is done already handed its x over; its alpha of 0 keeps it quiet.
    std::array<double, L> rr{};
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t l = 0; l < L; ++l) {
        const std::size_t j = i * L + l;
        x[j] += alpha[l] * p[j];
        r[j] -= alpha[l] * ap[j];
        rr[l] += r[j] * r[j];
      }
    }

    for (std::size_t l = 0; l < L; ++l) {
      Lane& lane = lanes_[l];
      if (!lane.active) continue;
      CgResult& res = ws_.results[l];
      res.iterations = lane.it + 1;
      const double rnorm = std::sqrt(rr[l]);
      if (!std::isfinite(rnorm)) {
        fail(l, CgFailure::kDivergedNonFinite,
             "residual norm became non-finite at iteration " + std::to_string(lane.it));
        continue;
      }
      if (rnorm <= lane.target) {
        res.converged = true;
        finish(l);
        continue;
      }
      if (options_.stagnation_window > 0) {
        lane.best_in_window = std::min(lane.best_in_window, rnorm);
        if (lane.it + 1 - lane.window_start >= options_.stagnation_window) {
          if (lane.best_in_window >
              lane.best_before_window * (1.0 - options_.stagnation_improvement)) {
            fail(l, CgFailure::kStagnated,
                 "residual stalled at " + std::to_string(lane.best_in_window) + " (target " +
                     std::to_string(lane.target) + ") over " +
                     std::to_string(options_.stagnation_window) + " iterations");
            continue;
          }
          lane.best_before_window = lane.best_in_window;
          lane.window_start = lane.it + 1;
        }
      }
    }
    if (active_ == 0) return;

    precondition(r, z);
    const std::array<double, L> rz_new = dot_lanes<L>(n, r, z);
    std::array<double, L> beta{};
    for (std::size_t l = 0; l < L; ++l) {
      Lane& lane = lanes_[l];
      if (!lane.active) continue;
      beta[l] = rz_new[l] / lane.rz;
      lane.rz = rz_new[l];
      ++lane.it;
    }
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t l = 0; l < L; ++l) {
        const std::size_t j = i * L + l;
        p[j] = z[j] + beta[l] * p[j];
      }
    }
  }

  void precondition(const double* r, double* z) const {
    switch (options_.preconditioner) {
      case Preconditioner::kNone:
        std::copy(r, r + n_ * L, z);
        break;
      case Preconditioner::kIncompleteCholesky:
        IncompleteCholesky::apply_lanes<L>(ic_, r, z);
        break;
    }
  }

  /// Load systems into free lanes until every lane iterates or the feed is
  /// empty. A system that needs no iteration finishes on the spot.
  void refill() {
    for (std::size_t l = 0; l < L; ++l) {
      while (!lanes_[l].active && !drained_) {
        CgSystem sys;
        if (!feed_.next(l, sys)) {
          drained_ = true;
          break;
        }
        load(l, sys);
      }
    }
    retarget();
  }

  /// solve_cg's set-up for one system: checks, starting residual, IC(0),
  /// fault sites. The lane iterates from the next pass unless the guess
  /// already meets the target (or a check failed), in which case it finishes
  /// here.
  void load(std::size_t l, const CgSystem& sys) {
    static auto& m_solves = obs::counter("cg.solves");
    static auto& m_failures = obs::counter("cg.failures");
    if (sys.a == nullptr) throw std::invalid_argument("solve_cg: null matrix");
    const Csr& a = *sys.a;
    const std::size_t n = a.dimension();
    if (sys.b.size() != n) throw std::invalid_argument("solve_cg: rhs size mismatch");
    if (!sys.x0.empty() && sys.x0.size() != n) {
      throw std::invalid_argument("solve_cg: x0 size mismatch");
    }
    if (sys.ic != nullptr && sys.ic->dimension() != n) {
      throw std::invalid_argument("solve_cg: cached IC dimension mismatch");
    }
    adopt_pattern(a);

    Lane& lane = lanes_[l];
    lane.sys = sys;
    CgResult& res = ws_.results[l];
    res.iterations = 0;
    res.residual_norm = 0.0;
    res.converged = false;
    res.failure = CgFailure::kNone;
    res.detail.clear();
    m_solves.add(1);
    PDN3D_FAULT_STALL("linalg.cg.stall", 50.0);

    if (n == 0) {
      res.x.clear();
      res.converged = true;
      feed_.finish(l, res);
      return;
    }
    lane.bnorm = norm2(sys.b);
    if (!std::isfinite(lane.bnorm)) {
      // A NaN/Inf rhs would otherwise burn max_iterations before
      // "converging" false -- every dot product is poisoned. Diagnose and
      // bail immediately.
      res.x.assign(n, 0.0);
      res.failure = CgFailure::kDivergedNonFinite;
      res.detail = "right-hand side contains NaN/Inf entries";
      res.residual_norm = lane.bnorm;
      m_failures.add(1);
      feed_.finish(l, res);
      return;
    }
    if (lane.bnorm == 0.0) {
      res.x.assign(n, 0.0);
      res.converged = true;
      feed_.finish(l, res);
      return;
    }
    lane.target = options_.rel_tolerance * lane.bnorm;

    // One lane's vectors are plain vectors: set it up in place.
    std::vector<double>& r0 = L == 1 ? ws_.r : ws_.r0;
    std::vector<double>& z0 = L == 1 ? ws_.z : ws_.z0;
    if (sys.x0.empty()) {
      r0.assign(sys.b.begin(), sys.b.end());  // r = b - A*0
    } else {
      r0.resize(n);
      a.multiply(sys.x0, r0);
      for (std::size_t i = 0; i < n; ++i) r0[i] = sys.b[i] - r0[i];
    }
    for (std::size_t i = 0; i < n; ++i) ws_.x[i * L + l] = sys.x0.empty() ? 0.0 : sys.x0[i];
    av_[l] = a.values().data();
    if (options_.preconditioner == Preconditioner::kIncompleteCholesky) {
      if (sys.ic == nullptr) {
        PDN3D_TRACE_SPAN("cg/precond_build");
        const util::ScopedTimer build_timer("cg.precond_build_seconds");
        lane.owned_ic = std::make_unique<IncompleteCholesky>(a);
        lane.sys.ic = lane.owned_ic.get();
      }
      check_ic_pattern(*lane.sys.ic);
      ic_[l] = lane.sys.ic;
    }

    lane.poisoned = PDN3D_FAULT_POINT("linalg.cg.nan");
    if (lane.poisoned) {
      // Poison the residual: the solve reports kDivergedNonFinite, exercising
      // the escalation ladder.
      r0[0] = std::numeric_limits<double>::quiet_NaN();
    }

    // The true starting residual. A guess that already meets the target (an
    // unloaded state started at the rail) takes no iteration; the
    // true-residual check in finish() accepts it.
    const double r0norm = norm2(r0);
    lane.r0norm = r0norm;
    if (!std::isfinite(r0norm)) {
      res.failure = CgFailure::kDivergedNonFinite;
      res.detail = "initial residual is non-finite";
    }
    lane.it = 0;
    // Stagnation watchdog state: best residual seen before/within the
    // current window, starting from the true starting residual. CG's
    // residual norm is not monotone, so we compare window bests rather than
    // point values.
    lane.best_before_window = r0norm;
    lane.best_in_window = r0norm;
    lane.window_start = 0;
    if (!(r0norm > lane.target)) {  // NaN as well
      lane.active = true;  // finish() expects an occupied lane
      ++active_;
      finish(l);
      return;
    }
    z0.resize(n);
    switch (options_.preconditioner) {
      case Preconditioner::kNone:
        z0 = r0;
        break;
      case Preconditioner::kIncompleteCholesky:
        lane.sys.ic->apply(r0, z0);
        break;
    }
    lane.rz = dot(r0, z0);
    for (std::size_t i = 0; i < n; ++i) {
      if constexpr (L > 1) {
        ws_.r[i * L + l] = r0[i];
        ws_.z[i * L + l] = z0[i];
      }
      ws_.p[i * L + l] = z0[i];
    }
    lane.active = true;
    ++active_;
  }

  void fail(std::size_t l, CgFailure failure, std::string detail) {
    CgResult& res = ws_.results[l];
    res.failure = failure;
    res.detail = std::move(detail);
    finish(l);
  }

  /// solve_cg's exit: report the true residual, not the recurrence residual,
  /// accept a result within 10x of the target, count the solve, and hand it
  /// to the feed. The lane is free afterwards.
  void finish(std::size_t l) {
    static auto& m_iterations = obs::counter("cg.iterations");
    static auto& m_failures = obs::counter("cg.failures");
    static auto& m_iters_hist =
        obs::histogram("cg.iterations_per_solve", obs::exponential_buckets(1.0, 2.0, 16));
    static auto& m_exit_residual = obs::gauge("cg.exit_relative_residual");
    Lane& lane = lanes_[l];
    CgResult& res = ws_.results[l];
    const Csr& a = *lane.sys.a;
    const std::size_t n = n_;
    res.x.resize(n);
    for (std::size_t i = 0; i < n; ++i) res.x[i] = ws_.x[i * L + l];
    if (res.iterations == 0 && !lane.poisoned) {
      // x is still the guess, so b - A x is the starting residual, computed
      // by the same operations.
      res.residual_norm = lane.r0norm;
    } else {
      std::vector<double>& tmp = ws_.r0;
      tmp.resize(n);
      a.multiply(res.x, tmp);
      for (std::size_t i = 0; i < n; ++i) tmp[i] = lane.sys.b[i] - tmp[i];
      res.residual_norm = norm2(tmp);
    }
    if (std::isfinite(res.residual_norm) && res.residual_norm <= lane.target * 10.0) {
      res.converged = true;
    }
    if (res.converged) {
      res.failure = CgFailure::kNone;
      res.detail.clear();
    } else if (res.failure == CgFailure::kNone) {
      res.failure = CgFailure::kMaxIterations;
      res.detail = "residual " + std::to_string(res.residual_norm) + " above target " +
                   std::to_string(lane.target) + " after " + std::to_string(res.iterations) +
                   " iterations";
    }
    m_iterations.add(res.iterations);
    m_iters_hist.observe(static_cast<double>(res.iterations));
    m_exit_residual.set(lane.bnorm > 0.0 ? res.residual_norm / lane.bnorm : res.residual_norm);
    if (!res.converged) m_failures.add(1);

    lane.active = false;
    --active_;
    feed_.finish(l, res);
    lane.owned_ic.reset();
    retarget();
  }

  /// Point every free lane at an occupied lane's matrix and factor, so the
  /// shared passes never read a finished system's (possibly released)
  /// arrays. With no lane occupied the passes do not run.
  void retarget() {
    std::size_t live = L;
    for (std::size_t l = 0; l < L; ++l) {
      if (lanes_[l].active) {
        live = l;
        break;
      }
    }
    if (live == L) return;
    for (std::size_t l = 0; l < L; ++l) {
      if (lanes_[l].active) continue;
      av_[l] = av_[live];
      ic_[l] = ic_[live];
    }
  }

  /// The first system fixes the pattern (kept alive here) and sizes the
  /// lane vectors; every later one must match it exactly.
  void adopt_pattern(const Csr& a) {
    if (!pattern_) {
      pattern_ = a.pattern();
      n_ = a.dimension();
      rp_ = a.row_ptr().data();
      ci_ = a.col_idx().data();
      // A lane's entries are written when a system loads into it; a lane
      // that never loads computes on stale values nobody reads.
      for (std::vector<double>* v : {&ws_.x, &ws_.r, &ws_.z, &ws_.p, &ws_.ap}) v->resize(n_ * L);
      return;
    }
    if (a.pattern() == pattern_) return;
    if (a.dimension() != n_ || !same(a.row_ptr(), std::span(pattern_->row_ptr)) ||
        !same(a.col_idx(), std::span(pattern_->col_idx))) {
      throw std::invalid_argument("solve_cg_lanes: systems do not share one sparsity pattern");
    }
  }

  /// A factor joining occupied lanes must have their factors' pattern.
  void check_ic_pattern(const IncompleteCholesky& ic) const {
    for (std::size_t l = 0; l < L; ++l) {
      if (!lanes_[l].active) continue;
      const IncompleteCholesky& other = *ic_[l];
      if (&other != &ic && (!same(ic.row_ptr(), other.row_ptr()) ||
                            !same(ic.col_idx(), other.col_idx()))) {
        throw std::invalid_argument("solve_cg_lanes: IC(0) factors do not share one pattern");
      }
      return;
    }
  }

  template <typename T>
  static bool same(std::span<const T> x, std::span<const T> y) {
    return std::equal(x.begin(), x.end(), y.begin(), y.end());
  }

  CgLaneFeed& feed_;
  const CgOptions& options_;
  CgScratch& ws_;
  std::array<Lane, L> lanes_{};
  std::size_t active_ = 0;
  bool drained_ = false;
  std::shared_ptr<const CsrPattern> pattern_;
  std::size_t n_ = 0;
  const std::size_t* rp_ = nullptr;
  const std::size_t* ci_ = nullptr;
  std::array<const double*, L> av_{};
  std::array<const IncompleteCholesky*, L> ic_{};
};

/// The feed of a plain solve_cg: one system, whose result it keeps.
class OneSystem final : public CgLaneFeed {
 public:
  explicit OneSystem(const CgSystem& system) : system_(system) {}
  bool next(std::size_t, CgSystem& system) override {
    if (handed_out_) return false;
    handed_out_ = true;
    system = system_;
    return true;
  }
  void finish(std::size_t, CgResult& result) override { result_ = std::move(result); }
  CgResult& result() { return result_; }

 private:
  CgSystem system_;
  bool handed_out_ = false;
  CgResult result_;
};

}  // namespace

CgResult solve_cg(const Csr& a, std::span<const double> b, const CgOptions& options,
                  CgScratch* scratch) {
  const std::size_t n = a.dimension();
  if (b.size() != n) throw std::invalid_argument("solve_cg: rhs size mismatch");
  if (!options.x0.empty() && options.x0.size() != n) {
    throw std::invalid_argument("solve_cg: x0 size mismatch");
  }

  PDN3D_TRACE_SPAN_NAMED(span, "cg/solve");
  CgScratch local;
  CgScratch& ws = scratch != nullptr ? *scratch : local;
  OneSystem feed({.a = &a,
                  .b = b,
                  .x0 = options.x0,
                  .ic = options.preconditioner == Preconditioner::kIncompleteCholesky
                            ? options.cached_ic
                            : nullptr});
  LaneSolve<1>(feed, options, ws).run();
  CgResult& result = feed.result();
  span.attribute("iterations", static_cast<std::uint64_t>(result.iterations));
  span.attribute("converged", result.converged ? "true" : "false");
  return std::move(result);
}

void solve_cg_lanes(CgLaneFeed& feed, std::size_t systems, const CgOptions& options,
                    CgScratch& scratch) {
  PDN3D_TRACE_SPAN("cg/solve_lanes");
  static auto& m_lane_solves = obs::counter("cg.lane_solves");
  m_lane_solves.add(1);
  switch (std::min(systems, kCgLanes)) {
    case 0:
      return;
    case 1:
      LaneSolve<1>(feed, options, scratch).run();
      return;
    case 2:
      LaneSolve<2>(feed, options, scratch).run();
      return;
    default:
      LaneSolve<kCgLanes>(feed, options, scratch).run();
      return;
  }
}

}  // namespace pdn3d::linalg
