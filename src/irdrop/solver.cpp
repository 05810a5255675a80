#include "irdrop/solver.hpp"

#include <cmath>
#include <sstream>
#include <stdexcept>

#include "exec/cancel.hpp"
#include "faults/faults.hpp"
#include "linalg/coo.hpp"
#include "linalg/dense.hpp"
#include "linalg/reorder.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "pdn/mesh_validator.hpp"
#include "util/log.hpp"
#include "util/timer.hpp"

namespace pdn3d::irdrop {

namespace {

/// Process-wide mirrors of the per-instance SolveTelemetry counters, named
/// `solver.<noun_verb>[.<rung>]` per the metric naming convention.
obs::Counter& rung_attempt_counter(SolverKind kind) {
  static std::array<obs::Counter*, kSolverKindEnd> counters = [] {
    std::array<obs::Counter*, kSolverKindEnd> out{};
    for (auto k = static_cast<std::size_t>(SolverKind::kSparseDirect); k < kSolverKindEnd; ++k) {
      out[k] = &obs::counter(std::string("solver.rung_attempts.") +
                             to_string(static_cast<SolverKind>(k)));
    }
    return out;
  }();
  return *counters[static_cast<std::size_t>(kind)];
}

obs::Counter& rung_failure_counter(SolverKind kind) {
  static std::array<obs::Counter*, kSolverKindEnd> counters = [] {
    std::array<obs::Counter*, kSolverKindEnd> out{};
    for (auto k = static_cast<std::size_t>(SolverKind::kSparseDirect); k < kSolverKindEnd; ++k) {
      out[k] = &obs::counter(std::string("solver.rung_failures.") +
                             to_string(static_cast<SolverKind>(k)));
    }
    return out;
  }();
  return *counters[static_cast<std::size_t>(kind)];
}

}  // namespace

const char* to_string(SolverKind kind) {
  switch (kind) {
    case SolverKind::kSparseDirect: return "sparse-direct";
    case SolverKind::kPcgIc: return "ic-pcg";
    case SolverKind::kPcgJacobi: return "jacobi-pcg";
    case SolverKind::kBandedDirect: return "banded-direct";
    case SolverKind::kDense: return "dense-cholesky";
  }
  return "?";
}

SolverKind select_solver_kind(std::size_t expected_solves) {
  return expected_solves >= kSparseDirectMinSolves ? SolverKind::kSparseDirect
                                                   : SolverKind::kPcgIc;
}

IrSolver::IrSolver(const pdn::StackModel& model, SolverKind kind, IrSolverOptions options)
    : kind_(kind), options_(options), vdd_(model.vdd()) {
  if (options_.validate) {
    core::ValidationReport report = pdn::validate_stack_model(model);
    if (!report.ok()) throw core::ValidationError(std::move(report));
  } else {
    // Minimal invariants even when the caller opted out of full validation:
    // without them the matrix assembly below is undefined.
    if (model.node_count() == 0) throw std::invalid_argument("IrSolver: empty model");
    if (model.taps().empty()) {
      throw std::invalid_argument("IrSolver: no supply taps -- the system would be singular");
    }
  }

  const std::size_t n = model.node_count();
  linalg::CooBuilder builder(n);
  for (const auto& r : model.resistors()) {
    builder.stamp_conductance(r.a, r.b, 1.0 / r.ohms);
  }
  supply_rhs_.assign(n, 0.0);
  for (const auto& t : model.taps()) {
    const double g = 1.0 / t.ohms;
    builder.stamp_to_ground(t.node, g);
    supply_rhs_[t.node] += g * vdd_;
  }
  g_ = builder.compress();

  if (kind_ == SolverKind::kPcgIc) {
    std::call_once(ic_once_, [&] {
      PDN3D_TRACE_SPAN("solver/precond_build");
      const util::ScopedTimer build_timer("solver.precond_build_seconds");
      ic_ = std::make_unique<linalg::IncompleteCholesky>(g_);
    });
  }
  // The direct factorizations (sparse, banded) are built lazily (see
  // sparse() / banded()) so that a starting rung and an escalation into it
  // share one path, and a factorization failure becomes a rung failure
  // instead of a constructor throw.
}

const linalg::BandedCholesky* IrSolver::banded(std::string* error) const {
  // call_once so concurrent solves escalating into this rung race neither on
  // the build nor on the sticky error string.
  std::call_once(banded_once_, [&] {
    try {
      banded_ = std::make_unique<linalg::BandedCholesky>(g_, linalg::rcm_ordering(g_));
    } catch (const std::exception& e) {
      banded_error_ = e.what();
    }
  });
  if (!banded_ && error != nullptr) *error = banded_error_;
  return banded_.get();
}

const linalg::SparseCholesky* IrSolver::sparse(std::string* error) const {
  static auto& m_builds = obs::counter("solver.factor_builds");
  static auto& m_build_failures = obs::counter("solver.factor_build_failures");
  static auto& m_cache_hits = obs::counter("solver.factor_cache_hits");
  static auto& m_fill_ratio = obs::gauge("solver.factor_fill_ratio");
  static auto& m_factor_nnz = obs::gauge("solver.factor_nnz");

  bool built_now = false;
  std::call_once(sparse_once_, [&] {
    built_now = true;
    PDN3D_TRACE_SPAN("solver/factor_build");
    const util::ScopedTimer build_timer("solver.factor_build_seconds");
    try {
      linalg::SparseCholeskyOptions opts;
      opts.max_fill_ratio = options_.max_fill_ratio;
      sparse_ = std::make_unique<linalg::SparseCholesky>(g_, opts);
      m_builds.add(1);
      m_fill_ratio.set(sparse_->fill_ratio());
      m_factor_nnz.set(static_cast<double>(sparse_->factor_nnz()));
    } catch (const std::exception& e) {
      sparse_error_ = e.what();
      m_build_failures.add(1);
    }
  });
  if (sparse_ && !built_now) m_cache_hits.add(1);
  if (!sparse_ && error != nullptr) *error = sparse_error_;
  return sparse_.get();
}

bool IrSolver::sparse_factor_available() const { return sparse(nullptr) != nullptr; }

IrSolver::RungResult IrSolver::run_rung(SolverKind kind, std::span<const double> rhs,
                                        SolveScratch& ws) const {
  RungResult out;
  const std::size_t n = g_.dimension();
  try {
    switch (kind) {
      case SolverKind::kSparseDirect: {
        std::string error;
        const linalg::SparseCholesky* fac = sparse(&error);
        if (fac == nullptr) {
          out.detail = "sparse factorization declined: " + error;
          return out;
        }
        out.x.assign(n, 0.0);
        fac->solve(rhs, out.x, ws.direct);
        out.produced = true;
        return out;
      }
      case SolverKind::kPcgIc:
      case SolverKind::kPcgJacobi: {
        linalg::CgOptions opts;
        opts.rel_tolerance = options_.cg_rel_tolerance;
        opts.max_iterations = options_.cg_max_iterations;
        if (kind == SolverKind::kPcgIc) {
          opts.preconditioner = linalg::Preconditioner::kIncompleteCholesky;
          // Reuse the factor built at construction; per-state re-solves are
          // the hot path of LUT construction and co-optimization sweeps.
          std::call_once(ic_once_, [&] { ic_ = std::make_unique<linalg::IncompleteCholesky>(g_); });
          opts.cached_ic = ic_.get();
        } else {
          opts.preconditioner = linalg::Preconditioner::kJacobi;
        }
        if (ws.warm_start && ws.warm.size() == n) opts.x0 = ws.warm;
        auto result = linalg::solve_cg(g_, rhs, opts, &ws.cg);
        out.iterations = result.iterations;
        if (!result.converged) {
          out.detail = std::string(linalg::to_string(result.failure)) +
                       (result.detail.empty() ? "" : ": " + result.detail);
          return out;
        }
        out.x = std::move(result.x);
        out.produced = true;
        return out;
      }
      case SolverKind::kBandedDirect: {
        std::string error;
        const linalg::BandedCholesky* fac = banded(&error);
        if (fac == nullptr) {
          out.detail = "banded factorization failed: " + error;
          return out;
        }
        out.x = fac->solve(rhs);
        out.produced = true;
        return out;
      }
      case SolverKind::kDense: {
        if (kind_ != SolverKind::kDense && n > options_.dense_escalation_limit) {
          out.detail = "matrix dimension " + std::to_string(n) +
                       " exceeds the dense escalation limit " +
                       std::to_string(options_.dense_escalation_limit);
          return out;
        }
        linalg::DenseMatrix a(n, n);
        const auto rp = g_.row_ptr();
        const auto ci = g_.col_idx();
        const auto vals = g_.values();
        for (std::size_t r = 0; r < n; ++r) {
          for (std::size_t k = rp[r]; k < rp[r + 1]; ++k) a(r, ci[k]) = vals[k];
        }
        out.x = linalg::solve_cholesky(std::move(a), rhs);
        out.produced = true;
        return out;
      }
    }
  } catch (const std::exception& e) {
    out.produced = false;
    out.x.clear();
    out.detail = e.what();
  }
  return out;
}

SolveOutcome IrSolver::solve_one(std::span<const double> sinks, bool want_ir,
                                 SolveScratch& ws) const {
  const std::size_t n = g_.dimension();

  PDN3D_TRACE_SPAN_NAMED(span, "solver/solve");
  static auto& m_solves = obs::counter("solver.solves");
  static auto& m_failures = obs::counter("solver.failures");
  static auto& m_escalations = obs::counter("ladder.escalations");
  static auto& m_iters_hist =
      obs::histogram("solver.iterations_per_solve", obs::exponential_buckets(1.0, 2.0, 16));
  static auto& m_rung_used = obs::gauge("solver.rung_used");

  SolveOutcome outcome;

  std::vector<double>& rhs = ws.rhs;
  rhs.assign(n, 0.0);
  for (std::size_t i = 0; i < n; ++i) rhs[i] = supply_rhs_[i] - sinks[i];
  const double bnorm = linalg::norm2(rhs);

  std::ostringstream trail;  // per-rung failure reasons for the final status
  const std::size_t first = static_cast<std::size_t>(kind_);
  const std::size_t last = options_.escalate ? kSolverKindEnd - 1 : first;

  for (std::size_t k = first; k <= last; ++k) {
    // Cooperative cancellation (service watchdog): stop climbing the ladder
    // and report kCancelled instead of escalating into ever-pricier rungs.
    if (exec::cancellation_requested()) {
      ++telemetry_.failures;
      m_failures.add(1);
      outcome.status = core::Status::cancelled(
          trail.tellp() > 0 ? "solve cancelled [" + trail.str() + "]" : "solve cancelled");
      return outcome;
    }
    const SolverKind kind = static_cast<SolverKind>(k);
    ++telemetry_.rung_attempts[k];
    rung_attempt_counter(kind).add(1);
    RungResult rung = run_rung(kind, rhs, ws);

    std::string reject;
    if (!rung.produced) {
      reject = rung.detail.empty() ? "no solution produced" : rung.detail;
    } else {
      // Verify the true residual before trusting any rung; a factorization
      // of a near-singular system can "succeed" and still return garbage.
      std::vector<double>& ax = ws.ax;
      ax.assign(n, 0.0);
      g_.multiply(rung.x, ax);
      double res = 0.0;
      bool finite = true;
      for (std::size_t i = 0; i < n; ++i) {
        const double d = rhs[i] - ax[i];
        res += d * d;
        if (!std::isfinite(rung.x[i])) finite = false;
      }
      res = std::sqrt(res);
      const double rel = bnorm > 0.0 ? res / bnorm : res;
      if (!finite || !std::isfinite(rel)) {
        reject = "solution contains non-finite entries";
      } else if (rel > options_.verify_rel_tol) {
        std::ostringstream os;
        os << "residual check failed: ||b-Gx||/||b|| = " << rel << " > "
           << options_.verify_rel_tol;
        reject = os.str();
      } else {
        // Verified-correct: accept this rung.
        outcome.x = std::move(rung.x);
        if (ws.warm_start) ws.warm = outcome.x;  // voltages, pre-IR-conversion
        if (want_ir) {
          for (double& v : outcome.x) v = vdd_ - v;
        }
        outcome.kind_used = kind;
        outcome.iterations = rung.iterations;
        outcome.rel_residual = rel;
        ++telemetry_.solves;
        m_solves.add(1);
        m_iters_hist.observe(static_cast<double>(rung.iterations));
        m_rung_used.set(static_cast<double>(k));
        span.attribute("rung", to_string(kind));
        span.attribute("iterations", static_cast<std::uint64_t>(rung.iterations));
        if (outcome.escalations > 0) {
          util::log_warn("IrSolver: ", to_string(kind_), " failed, recovered by ",
                         to_string(kind), " after ", outcome.escalations, " escalation(s) [",
                         trail.str(), "]");
        }
        return outcome;
      }
    }

    ++telemetry_.rung_failures[k];
    rung_failure_counter(kind).add(1);
    if (trail.tellp() > 0) trail << "; ";
    trail << to_string(kind) << ": " << reject;
    if (k < last) {
      ++outcome.escalations;
      ++telemetry_.escalations;
      m_escalations.add(1);
    }
  }

  ++telemetry_.failures;
  m_failures.add(1);
  outcome.status = core::Status::numerical_failure(
      "all solver rungs failed [" + trail.str() + "]");
  return outcome;
}

SolveOutcome IrSolver::solve_batch(const SolveRequest& request, SolveScratch& ws) const {
  const std::size_t n = g_.dimension();
  const std::size_t count = request.batch_count;

  PDN3D_TRACE_SPAN_NAMED(span, "solver/solve_batch");
  span.attribute("batch", static_cast<std::uint64_t>(count));
  static auto& m_solves = obs::counter("solver.solves");
  static auto& m_iters_hist =
      obs::histogram("solver.iterations_per_solve", obs::exponential_buckets(1.0, 2.0, 16));
  static auto& m_rung_used = obs::gauge("solver.rung_used");

  SolveOutcome out;
  out.x.assign(n * count, 0.0);
  std::vector<char> done(count, 0);

  // Fast path: one batched pair of triangular sweeps covers every right-hand
  // side, then each slice is residual-verified exactly as a scalar solve
  // would be. Slices the verification rejects (and everything, when the
  // factor was declined) fall through to the scalar escalation ladder below.
  if (kind_ == SolverKind::kSparseDirect) {
    const linalg::SparseCholesky* fac = sparse(nullptr);
    if (fac != nullptr) {
      std::vector<double>& rhs = ws.batch_rhs;
      rhs.assign(n * count, 0.0);
      for (std::size_t r = 0; r < count; ++r) {
        for (std::size_t i = 0; i < n; ++i) {
          rhs[r * n + i] = supply_rhs_[i] - request.sinks[r * n + i];
        }
      }
      ws.batch_x.assign(n * count, 0.0);
      fac->solve_batch(rhs, ws.batch_x, count, ws.direct);

      for (std::size_t r = 0; r < count; ++r) {
        const std::span<const double> brhs(rhs.data() + r * n, n);
        const std::span<const double> bx(ws.batch_x.data() + r * n, n);
        std::vector<double>& ax = ws.ax;
        ax.assign(n, 0.0);
        g_.multiply(bx, ax);
        double res = 0.0;
        bool finite = true;
        for (std::size_t i = 0; i < n; ++i) {
          const double d = brhs[i] - ax[i];
          res += d * d;
          if (!std::isfinite(bx[i])) finite = false;
        }
        res = std::sqrt(res);
        const double bnorm = linalg::norm2(brhs);
        const double rel = bnorm > 0.0 ? res / bnorm : res;
        if (!finite || !std::isfinite(rel) || rel > options_.verify_rel_tol) continue;

        ++telemetry_.rung_attempts[static_cast<std::size_t>(SolverKind::kSparseDirect)];
        rung_attempt_counter(SolverKind::kSparseDirect).add(1);
        for (std::size_t i = 0; i < n; ++i) {
          out.x[r * n + i] = request.want_ir ? vdd_ - bx[i] : bx[i];
        }
        out.kind_used = SolverKind::kSparseDirect;
        out.rel_residual = std::max(out.rel_residual, rel);
        ++telemetry_.solves;
        m_solves.add(1);
        m_iters_hist.observe(0.0);
        m_rung_used.set(static_cast<double>(static_cast<std::size_t>(SolverKind::kSparseDirect)));
        done[r] = 1;
      }
    }
  }

  for (std::size_t r = 0; r < count; ++r) {
    if (done[r]) continue;
    const std::span<const double> sinks(request.sinks.data() + r * n, n);
    SolveOutcome one = solve_one(sinks, request.want_ir, ws);
    if (!one.ok()) {
      // All-or-nothing: a partially-solved batch must not look like success.
      out.x.clear();
      out.status = core::Status(one.status.code(),
                                "batch slice " + std::to_string(r) + ": " + one.status.message());
      out.escalations += one.escalations;
      return out;
    }
    std::copy(one.x.begin(), one.x.end(), out.x.begin() + static_cast<std::ptrdiff_t>(r * n));
    out.kind_used = one.kind_used;
    out.iterations += one.iterations;
    out.rel_residual = std::max(out.rel_residual, one.rel_residual);
    out.escalations += one.escalations;
  }
  return out;
}

SolveOutcome IrSolver::solve(const SolveRequest& request, SolveScratch* scratch) const {
  const std::size_t n = g_.dimension();
  if (request.batch_count == 0) {
    throw std::invalid_argument("IrSolver::solve: batch_count must be >= 1");
  }
  if (request.sinks.size() != n * request.batch_count) {
    throw std::invalid_argument("IrSolver::solve: sink vector size mismatch");
  }

  PDN3D_FAULT_ALLOC("irdrop.solve.alloc");

  SolveScratch local;
  SolveScratch& ws = scratch != nullptr ? *scratch : local;

  // Pre-solve injection health: a NaN load current poisons every inner
  // product, so catch it here with the offending node instead of letting CG
  // spin.
  static auto& m_failures = obs::counter("solver.failures");
  for (std::size_t i = 0; i < request.sinks.size(); ++i) {
    if (!std::isfinite(request.sinks[i])) {
      SolveOutcome outcome;
      outcome.status = core::Status::input_error(
          "non-finite sink current at node " + std::to_string(i % n) +
          (request.batch_count > 1 ? " (batch slice " + std::to_string(i / n) + ")" : ""));
      ++telemetry_.failures;
      m_failures.add(1);
      return outcome;
    }
  }

  if (request.batch_count == 1) return solve_one(request.sinks, request.want_ir, ws);
  return solve_batch(request, ws);
}

}  // namespace pdn3d::irdrop
