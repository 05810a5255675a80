#include "irdrop/solver.hpp"

#include <cmath>
#include <limits>
#include <sstream>
#include <stdexcept>

#include "exec/cancel.hpp"
#include "faults/faults.hpp"
#include "linalg/coo.hpp"
#include "linalg/dense.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "pdn/mesh_validator.hpp"
#include "util/log.hpp"
#include "util/timer.hpp"

namespace pdn3d::irdrop {

namespace {

/// The live rungs, declared once: to_string and the per-rung counters read
/// this table.
struct RungInfo {
  SolverKind kind;
  const char* name;
};
constexpr std::array<RungInfo, 3> kRungs{{
    {SolverKind::kSparseDirect, "sparse-direct"},
    {SolverKind::kPcgIc, "ic-pcg"},
    {SolverKind::kDense, "dense-cholesky"},
}};

/// Process-wide mirrors of the per-instance SolveTelemetry counters, named
/// `solver.<noun_verb>.<rung>` per the metric naming convention and indexed
/// by the SolverKind value.
using RungCounters = std::array<obs::Counter*, kSolverKindEnd>;

RungCounters register_rung_counters(const std::string& prefix) {
  RungCounters out{};
  for (const RungInfo& rung : kRungs) {
    out[static_cast<std::size_t>(rung.kind)] = &obs::counter(prefix + rung.name);
  }
  return out;
}

obs::Counter& rung_attempt_counter(SolverKind kind) {
  static const RungCounters counters = register_rung_counters("solver.rung_attempts.");
  return *counters[static_cast<std::size_t>(kind)];
}

obs::Counter& rung_failure_counter(SolverKind kind) {
  static const RungCounters counters = register_rung_counters("solver.rung_failures.");
  return *counters[static_cast<std::size_t>(kind)];
}

/// The acceptance check every rung's answer must pass: the true relative
/// residual ||rhs - Gx|| / ||rhs|| (plain ||rhs - Gx|| when rhs = 0), or NaN
/// when x has a non-finite entry. @p ax receives G*x. A factorization of a
/// near-singular system can "succeed" and still return garbage, so no rung
/// is trusted without it.
double relative_residual(const linalg::Csr& g, std::span<const double> rhs,
                         std::span<const double> x, std::vector<double>& ax) {
  const std::size_t n = g.dimension();
  ax.assign(n, 0.0);
  g.multiply(x, ax);
  double res = 0.0;
  bool finite = true;
  for (std::size_t i = 0; i < n; ++i) {
    const double d = rhs[i] - ax[i];
    res += d * d;
    if (!std::isfinite(x[i])) finite = false;
  }
  if (!finite) return std::numeric_limits<double>::quiet_NaN();
  res = std::sqrt(res);
  const double bnorm = linalg::norm2(rhs);
  return bnorm > 0.0 ? res / bnorm : res;
}

}  // namespace

const char* to_string(SolverKind kind) {
  for (const RungInfo& rung : kRungs) {
    if (rung.kind == kind) return rung.name;
  }
  return "?";
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

  // An ic-pcg start builds IC(0) now, as part of setting up the design. The
  // sparse factor is built on first use (see sparse()) so that a declined
  // factorization becomes a rung failure instead of a constructor throw.
  // Both builds go through one accessor each, so a start rung and an
  // escalation into it share one path, span and timer.
  if (kind_ == SolverKind::kPcgIc) (void)ic();
}

const linalg::IncompleteCholesky& IrSolver::ic() const {
  std::call_once(ic_once_, [&] {
    PDN3D_TRACE_SPAN("solver/precond_build");
    const util::ScopedTimer build_timer("solver.precond_build_seconds");
    ic_ = std::make_unique<linalg::IncompleteCholesky>(g_);
  });
  return *ic_;
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
      case SolverKind::kPcgIc: {
        linalg::CgOptions opts;
        opts.rel_tolerance = options_.cg_rel_tolerance;
        opts.max_iterations = options_.cg_max_iterations;
        // Reuse the cached IC(0) factor; per-state re-solves are the hot path
        // of LUT construction and co-optimization sweeps.
        opts.cached_ic = &ic();
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
      case SolverKind::kDense: {
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

  // The two production rungs back each other up: a failed ic-pcg start
  // escalates to the sparse factor, and a failed or declined factor to
  // ic-pcg. The dense reference rung runs only when a caller starts on it.
  const SolverKind fallback =
      kind_ == SolverKind::kSparseDirect ? SolverKind::kPcgIc : SolverKind::kSparseDirect;
  const SolverKind ladder[] = {kind_, fallback};
  const std::size_t rungs = options_.escalate && kind_ != SolverKind::kDense ? 2 : 1;

  std::ostringstream trail;  // per-rung failure reasons for the final status
  for (std::size_t step = 0; step < rungs; ++step) {
    // Cooperative cancellation (service watchdog): stop instead of
    // escalating into the other rung.
    if (exec::cancellation_requested()) {
      ++telemetry_.failures;
      m_failures.add(1);
      outcome.status = core::Status::cancelled(
          trail.tellp() > 0 ? "solve cancelled [" + trail.str() + "]" : "solve cancelled");
      return outcome;
    }
    const SolverKind kind = ladder[step];
    const auto k = static_cast<std::size_t>(kind);
    ++telemetry_.rung_attempts[k];
    rung_attempt_counter(kind).add(1);
    RungResult rung = run_rung(kind, rhs, ws);

    std::string reject;
    if (!rung.produced) {
      reject = rung.detail.empty() ? "no solution produced" : rung.detail;
    } else {
      const double rel = relative_residual(g_, rhs, rung.x, ws.ax);
      if (!std::isfinite(rel)) {
        reject = "solution contains non-finite entries";
      } else if (rel > options_.verify_rel_tol) {
        std::ostringstream os;
        os << "residual check failed: ||b-Gx||/||b|| = " << rel << " > "
           << options_.verify_rel_tol;
        reject = os.str();
      } else {
        // Verified-correct: accept this rung.
        outcome.x = std::move(rung.x);
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
    if (step + 1 < rungs) {
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
  // factor was declined) fall through to the scalar solve below, which
  // escalates as usual.
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
        const double rel = relative_residual(g_, brhs, bx, ws.ax);
        if (!std::isfinite(rel) || rel > options_.verify_rel_tol) continue;

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
