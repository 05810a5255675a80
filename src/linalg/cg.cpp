#include "linalg/cg.hpp"

#include <cmath>
#include <limits>
#include <memory>
#include <stdexcept>

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

CgResult solve_cg(const Csr& a, std::span<const double> b, const CgOptions& options,
                  CgScratch* scratch) {
  const std::size_t n = a.dimension();
  if (b.size() != n) throw std::invalid_argument("solve_cg: rhs size mismatch");

  PDN3D_TRACE_SPAN_NAMED(span, "cg/solve");
  static auto& m_solves = obs::counter("cg.solves");
  static auto& m_iterations = obs::counter("cg.iterations");
  static auto& m_failures = obs::counter("cg.failures");
  static auto& m_iters_hist =
      obs::histogram("cg.iterations_per_solve", obs::exponential_buckets(1.0, 2.0, 16));
  static auto& m_exit_residual = obs::gauge("cg.exit_relative_residual");
  m_solves.add(1);
  PDN3D_FAULT_STALL("linalg.cg.stall", 50.0);

  CgResult result;
  result.x.assign(n, 0.0);
  if (n == 0) {
    result.converged = true;
    return result;
  }

  const double bnorm = norm2(b);
  if (!std::isfinite(bnorm)) {
    // A NaN/Inf rhs would otherwise burn max_iterations before "converging"
    // false -- every dot product is poisoned. Diagnose and bail immediately.
    result.failure = CgFailure::kDivergedNonFinite;
    result.detail = "right-hand side contains NaN/Inf entries";
    result.residual_norm = bnorm;
    m_failures.add(1);
    return result;
  }
  if (bnorm == 0.0) {
    result.converged = true;
    return result;
  }
  const double target = options.rel_tolerance * bnorm;

  CgScratch local;
  CgScratch& ws = scratch != nullptr ? *scratch : local;
  std::vector<double>& r = ws.r;
  std::vector<double>& z = ws.z;
  std::vector<double>& p = ws.p;
  std::vector<double>& ap = ws.ap;
  r.assign(b.begin(), b.end());  // r = b - A*0
  z.assign(n, 0.0);
  p.assign(n, 0.0);
  ap.assign(n, 0.0);
  std::unique_ptr<IncompleteCholesky> owned_ic;
  const IncompleteCholesky* ic = nullptr;
  switch (options.preconditioner) {
    case Preconditioner::kNone:
      break;
    case Preconditioner::kIncompleteCholesky:
      if (options.cached_ic != nullptr) {
        if (options.cached_ic->dimension() != n) {
          throw std::invalid_argument("solve_cg: cached IC dimension mismatch");
        }
        ic = options.cached_ic;
      } else {
        PDN3D_TRACE_SPAN("cg/precond_build");
        const util::ScopedTimer build_timer("cg.precond_build_seconds");
        owned_ic = std::make_unique<IncompleteCholesky>(a);
        ic = owned_ic.get();
      }
      break;
  }

  const auto apply_precond = [&](std::span<const double> rr, std::span<double> zz) {
    switch (options.preconditioner) {
      case Preconditioner::kNone:
        std::copy(rr.begin(), rr.end(), zz.begin());
        break;
      case Preconditioner::kIncompleteCholesky:
        ic->apply(rr, zz);
        break;
    }
  };

  if (PDN3D_FAULT_POINT("linalg.cg.nan")) {
    // Poison the residual: first iteration's curvature goes NaN and the solve
    // reports kDivergedNonFinite, exercising the escalation ladder.
    r[0] = std::numeric_limits<double>::quiet_NaN();
  }

  apply_precond(r, z);
  p = z;
  double rz = dot(r, z);

  // Stagnation watchdog state: best residual seen before/within the current
  // window. CG's residual norm is not monotone, so we compare window bests
  // rather than point values.
  double best_before_window = bnorm;
  double best_in_window = bnorm;
  std::size_t window_start = 0;

  for (std::size_t it = 0; it < options.max_iterations; ++it) {
    if (exec::cancellation_requested()) {
      result.failure = CgFailure::kCancelled;
      result.detail = "cancelled by caller at iteration " + std::to_string(it);
      break;
    }
    a.multiply(p, ap);
    const double pap = dot(p, ap);
    if (!std::isfinite(pap)) {
      result.failure = CgFailure::kDivergedNonFinite;
      result.detail = "curvature p'Ap became non-finite at iteration " + std::to_string(it);
      break;
    }
    if (pap <= 0.0) {
      // The matrix is not SPD on this subspace -- CG's update is undefined.
      result.failure = CgFailure::kIndefinite;
      result.detail = "non-positive curvature p'Ap = " + std::to_string(pap) +
                      " at iteration " + std::to_string(it);
      break;
    }
    const double alpha = rz / pap;
    axpy(alpha, p, result.x);
    axpy(-alpha, ap, r);
    result.iterations = it + 1;

    const double rnorm = norm2(r);
    if (!std::isfinite(rnorm)) {
      result.failure = CgFailure::kDivergedNonFinite;
      result.detail = "residual norm became non-finite at iteration " + std::to_string(it);
      break;
    }
    if (rnorm <= target) {
      result.converged = true;
      break;
    }

    if (options.stagnation_window > 0) {
      best_in_window = std::min(best_in_window, rnorm);
      if (it + 1 - window_start >= options.stagnation_window) {
        if (best_in_window > best_before_window * (1.0 - options.stagnation_improvement)) {
          result.failure = CgFailure::kStagnated;
          result.detail = "residual stalled at " + std::to_string(best_in_window) +
                          " (target " + std::to_string(target) + ") over " +
                          std::to_string(options.stagnation_window) + " iterations";
          break;
        }
        best_before_window = best_in_window;
        window_start = it + 1;
      }
    }

    apply_precond(r, z);
    const double rz_new = dot(r, z);
    const double beta = rz_new / rz;
    rz = rz_new;
    for (std::size_t i = 0; i < n; ++i) p[i] = z[i] + beta * p[i];
  }

  // Report the true residual, not the recurrence residual.
  a.multiply(result.x, ap);
  for (std::size_t i = 0; i < n; ++i) ap[i] = b[i] - ap[i];
  result.residual_norm = norm2(ap);
  if (std::isfinite(result.residual_norm) && result.residual_norm <= target * 10.0) {
    result.converged = true;
  }
  if (result.converged) {
    result.failure = CgFailure::kNone;
    result.detail.clear();
  } else if (result.failure == CgFailure::kNone) {
    result.failure = CgFailure::kMaxIterations;
    result.detail = "residual " + std::to_string(result.residual_norm) + " above target " +
                    std::to_string(target) + " after " + std::to_string(result.iterations) +
                    " iterations";
  }

  m_iterations.add(result.iterations);
  m_iters_hist.observe(static_cast<double>(result.iterations));
  m_exit_residual.set(bnorm > 0.0 ? result.residual_norm / bnorm : result.residual_norm);
  if (!result.converged) m_failures.add(1);
  span.attribute("iterations", static_cast<std::uint64_t>(result.iterations));
  span.attribute("converged", result.converged ? "true" : "false");
  return result;
}

}  // namespace pdn3d::linalg
