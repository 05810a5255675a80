#include "irdrop/solver.hpp"

#include <algorithm>
#include <array>
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

/// One past the largest SolverKind value: the size of per-rung arrays indexed
/// by the value (the slots of retired values stay null).
constexpr std::size_t kSolverKindEnd = 6;

/// Process-wide per-rung counters, named `solver.<noun_verb>.<rung>` per the
/// metric naming convention and indexed by the SolverKind value.
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

bool MeshStructure::matches(const pdn::StackModel& model) const {
  if (!layout_.pattern || model.node_count() != nodes_) return false;
  const auto resistors = model.resistors();
  const auto taps = model.taps();
  if (resistors.size() * 2 != ends_.size() || taps.size() != taps_.size()) return false;
  for (std::size_t i = 0; i < resistors.size(); ++i) {
    if (resistors[i].a != ends_[2 * i] || resistors[i].b != ends_[2 * i + 1]) return false;
  }
  for (std::size_t i = 0; i < taps.size(); ++i) {
    if (taps[i].node != taps_[i]) return false;
  }
  return true;
}

void MeshStructure::build(const pdn::StackModel& model) {
  if (model.node_count() > std::numeric_limits<std::uint32_t>::max()) {
    throw std::length_error("MeshStructure: node ids exceed 32 bits");
  }
  // The stamp sequence of IrSolver's assembly: G[a][a], G[b][b], G[a][b],
  // G[b][a] per resistor, then one diagonal entry per tap. Built aside, so a
  // throw leaves the previous structure whole.
  std::vector<std::uint32_t> ends;
  std::vector<std::uint32_t> taps;
  std::vector<std::size_t> rows;
  std::vector<std::size_t> cols;
  const std::size_t triplets = 4 * model.resistors().size() + model.taps().size();
  rows.reserve(triplets);
  cols.reserve(triplets);
  ends.reserve(2 * model.resistors().size());
  for (const auto& r : model.resistors()) {
    ends.push_back(static_cast<std::uint32_t>(r.a));
    ends.push_back(static_cast<std::uint32_t>(r.b));
    rows.insert(rows.end(), {r.a, r.b, r.a, r.b});
    cols.insert(cols.end(), {r.a, r.b, r.b, r.a});
  }
  taps.reserve(model.taps().size());
  for (const auto& t : model.taps()) {
    taps.push_back(static_cast<std::uint32_t>(t.node));
    rows.push_back(t.node);
    cols.push_back(t.node);
  }
  layout_ = linalg::coo_layout(model.node_count(), rows, cols);
  nodes_ = model.node_count();
  ends_ = std::move(ends);
  taps_ = std::move(taps);
}

IrSolver::IrSolver(const pdn::StackModel& model, SolverKind kind, IrSolverOptions options,
                   MeshStructure* structure)
    : kind_(kind), options_(options), vdd_(model.vdd()) {
  if (options_.validate) {
    PDN3D_TRACE_SPAN("solver/validate");
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

  {
    static auto& m_structure_builds = obs::counter("solver.structure_builds");
    static auto& m_structure_reuses = obs::counter("solver.structure_reuses");
    MeshStructure local;
    MeshStructure& st = structure != nullptr ? *structure : local;
    if (st.matches(model)) {
      m_structure_reuses.add(1);
    } else {
      PDN3D_TRACE_SPAN("solver/structure");
      st.build(model);
      m_structure_builds.add(1);
    }

    // Each value joins its slot in stamp order, from 0.0: the sums of
    // CooBuilder::compress (Coo.DuplicatesSumInInsertionOrder), with its
    // stamping guards.
    PDN3D_TRACE_SPAN("solver/assemble");
    const linalg::CooLayout& layout = st.layout();
    const std::uint32_t* slot = layout.slots.data();
    std::vector<double> values(layout.pattern->col_idx.size(), 0.0);
    for (const auto& r : model.resistors()) {
      const double g = 1.0 / r.ohms;
      if (g <= 0.0) throw std::invalid_argument("stamp_conductance: non-positive conductance");
      if (r.a == r.b) throw std::invalid_argument("stamp_conductance: self-loop");
      values[*slot++] += g;
      values[*slot++] += g;
      values[*slot++] += -g;
      values[*slot++] += -g;
    }
    supply_rhs_.assign(model.node_count(), 0.0);
    for (const auto& t : model.taps()) {
      const double g = 1.0 / t.ohms;
      if (g <= 0.0) throw std::invalid_argument("stamp_to_ground: non-positive conductance");
      values[*slot++] += g;
      supply_rhs_[t.node] += g * vdd_;
    }
    g_ = linalg::assemble(layout, std::move(values));
  }

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

linalg::CgOptions IrSolver::cg_options() const {
  linalg::CgOptions opts;
  opts.rel_tolerance = options_.cg_rel_tolerance;
  opts.max_iterations = options_.cg_max_iterations;
  return opts;
}

IrSolver::RungResult IrSolver::pcg_rung(linalg::CgResult& result) {
  RungResult out;
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
        linalg::CgOptions opts = cg_options();
        // Reuse the cached IC(0) factor; per-state re-solves are the hot path
        // of LUT construction and co-optimization sweeps.
        opts.cached_ic = &ic();
        // Start at the unloaded rail v = VDD. G*(VDD*1) is the tap term of
        // the rhs, so the first residual is the sink vector alone, 3-5
        // decades below ||rhs||; the target stays relative to ||rhs||.
        ws.rail.assign(n, vdd_);
        opts.x0 = ws.rail;
        auto result = linalg::solve_cg(g_, rhs, opts, &ws.cg);
        return pcg_rung(result);
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

core::Status IrSolver::admit(std::span<double> slice) const {
  static auto& m_failures = obs::counter("solver.failures");
  const std::size_t n = g_.dimension();
  if (slice.size() != n) throw std::invalid_argument("IrSolver: sink vector size mismatch");
  for (std::size_t i = 0; i < n; ++i) {
    // A NaN load current poisons every inner product, so name the offending
    // node instead of letting CG spin.
    if (!std::isfinite(slice[i])) {
      m_failures.add(1);
      return core::Status::input_error("non-finite sink current at node " + std::to_string(i));
    }
    slice[i] = supply_rhs_[i] - slice[i];
  }
  return core::Status::ok();
}

SolveOutcome IrSolver::ladder(std::span<const double> rhs, bool want_ir, SolveScratch& ws,
                              RungResult* first) const {
  PDN3D_TRACE_SPAN_NAMED(span, "solver/solve");
  static auto& m_solves = obs::counter("solver.solves");
  static auto& m_failures = obs::counter("solver.failures");
  static auto& m_escalations = obs::counter("ladder.escalations");
  static auto& m_iters_hist =
      obs::histogram("solver.iterations_per_solve", obs::exponential_buckets(1.0, 2.0, 16));

  SolveOutcome outcome;

  // The two production rungs back each other up: a failed ic-pcg start
  // escalates to the sparse factor, and a failed or declined factor to
  // ic-pcg. The dense reference rung runs only when a caller starts on it.
  const SolverKind fallback =
      kind_ == SolverKind::kSparseDirect ? SolverKind::kPcgIc : SolverKind::kSparseDirect;
  const SolverKind ladder[] = {kind_, fallback};
  const std::size_t rungs = options_.escalate && kind_ != SolverKind::kDense ? 2 : 1;

  std::string trail;  // per-rung failure reasons for the final status
  for (std::size_t step = 0; step < rungs; ++step) {
    // Cooperative cancellation (service watchdog): stop instead of
    // escalating into the other rung. A start rung run in a lane or swept
    // with its block polled it already.
    if ((step > 0 || first == nullptr) && exec::cancellation_requested()) {
      m_failures.add(1);
      outcome.status = core::Status::cancelled(
          trail.empty() ? "solve cancelled" : "solve cancelled [" + trail + "]");
      return outcome;
    }
    const SolverKind kind = ladder[step];
    rung_attempt_counter(kind).add(1);
    RungResult rung = step == 0 && first != nullptr ? std::move(*first) : run_rung(kind, rhs, ws);

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
        m_solves.add(1);
        m_iters_hist.observe(static_cast<double>(rung.iterations));
        span.attribute("rung", to_string(kind));
        span.attribute("iterations", static_cast<std::uint64_t>(rung.iterations));
        if (outcome.escalations > 0) {
          util::log_warn("IrSolver: ", to_string(kind_), " failed, recovered by ",
                         to_string(kind), " after ", outcome.escalations, " escalation(s) [",
                         trail, "]");
        }
        return outcome;
      }
    }

    rung_failure_counter(kind).add(1);
    if (!trail.empty()) trail += "; ";
    trail += std::string(to_string(kind)) + ": " + reject;
    if (step + 1 < rungs) {
      ++outcome.escalations;
      m_escalations.add(1);
    }
  }

  m_failures.add(1);
  outcome.status = core::Status::numerical_failure("all solver rungs failed [" + trail + "]");
  return outcome;
}

void IrSolver::solve_block(std::span<double> block, bool want_ir, SolveScratch& ws,
                           std::span<SolveOutcome> out) const {
  const std::size_t count = out.size();
  if (count == 0 || count > linalg::kSolveBlock || block.size() != g_.dimension() * count) {
    throw std::invalid_argument("IrSolver::solve_block: block size mismatch");
  }
  PDN3D_FAULT_ALLOC("irdrop.solve.alloc");
  PDN3D_TRACE_SPAN_NAMED(span, "solver/solve_batch");
  span.attribute("batch", static_cast<std::uint64_t>(count));
  solve_slices(block, want_ir, ws, out);
}

void IrSolver::solve_slices(std::span<double> block, bool want_ir, SolveScratch& ws,
                            std::span<SolveOutcome> out) const {
  const std::size_t count = out.size();
  const std::size_t n = block.size() / count;  // admit() rejects a slice of any other size
  for (std::size_t r = 0; r < count; ++r) {
    out[r] = SolveOutcome{};
    out[r].status = admit(block.subspan(r * n, n));
  }

  // The start rung of a block's slices in one pass over the cached factor;
  // a slice alone runs it in its ladder, like every slice of another start.
  // A pending cancellation leaves it to the ladders, which report it.
  const bool sweep =
      count > 1 && kind_ == SolverKind::kSparseDirect && !exec::cancellation_requested();
  const linalg::SparseCholesky* fac = sweep ? sparse(nullptr) : nullptr;
  if (fac != nullptr) {
    ws.block_x.resize(n * count);
    fac->solve_batch(block, ws.block_x, count, ws.direct);
  }

  for (std::size_t r = 0; r < count; ++r) {
    if (!out[r].ok()) continue;
    RungResult swept;
    if (fac != nullptr) {
      const auto x = std::span(ws.block_x).subspan(r * n, n);
      swept.x.assign(x.begin(), x.end());
      swept.produced = true;
    }
    out[r] = ladder(block.subspan(r * n, n), want_ir, ws, fac != nullptr ? &swept : nullptr);
  }
}

SolveOutcome IrSolver::solve(const SolveRequest& request, SolveScratch* scratch) const {
  SolveScratch local;
  SolveScratch& ws = scratch != nullptr ? *scratch : local;
  PDN3D_FAULT_ALLOC("irdrop.solve.alloc");
  // A block of one: the request's sinks become slice 0 of the scratch
  // block, unless the caller injected them there.
  if (request.sinks.data() != ws.block.data()) {
    ws.block.assign(request.sinks.begin(), request.sinks.end());
  }
  SolveOutcome outcome;
  solve_slices(std::span(ws.block).first(request.sinks.size()), request.want_ir, ws,
               std::span(&outcome, 1));
  return outcome;
}

/// solve()'s side of a lane solve: turns each member into a CG system (its
/// rhs, the rail start, its IC(0)) and each finished lane into solve()'s
/// outcome through the same ladder.
class IrSolver::LaneAdapter final : public linalg::CgLaneFeed {
 public:
  LaneAdapter(LaneFeed& feed, bool want_ir, LaneScratch& scratch)
      : feed_(feed), want_ir_(want_ir), scratch_(scratch) {}

  bool next(std::size_t lane, linalg::CgSystem& system) override {
    for (;;) {
      std::span<const double> sinks;
      const IrSolver* solver = feed_.next(lane, sinks);
      if (solver == nullptr) return false;
      if (!joins(*solver)) {
        // Its topology did not fit the group's structure (or an entry summed
        // to 0.0), or it starts elsewhere: solved alone, a wrong grouping
        // costs time, never a bit.
        SolveOutcome alone =
            solver->solve({.sinks = sinks, .want_ir = want_ir_}, &scratch_.solve);
        feed_.done(lane, alone);
        continue;
      }
      PDN3D_FAULT_ALLOC("irdrop.solve.alloc");
      std::vector<double>& rhs = scratch_.rhs[lane];
      rhs.assign(sinks.begin(), sinks.end());
      SolveOutcome rejected;
      rejected.status = solver->admit(rhs);
      if (!rejected.ok()) {
        feed_.done(lane, rejected);
        continue;
      }

      // The rail start of run_rung; the lane reads it only while loading.
      std::vector<double>& rail = scratch_.solve.rail;
      rail.assign(solver->node_count(), solver->vdd_);
      members_[lane] = solver;
      system = {.a = &solver->g_, .b = rhs, .x0 = rail, .ic = &solver->ic()};
      return true;
    }
  }

  void finish(std::size_t lane, linalg::CgResult& result) override {
    RungResult first = pcg_rung(result);
    SolveOutcome outcome =
        members_[lane]->ladder(scratch_.rhs[lane], want_ir_, scratch_.solve, &first);
    members_[lane] = nullptr;
    feed_.done(lane, outcome);
  }

  /// The members' CG options. The lane solve reads them only after the
  /// first member is loaded, which is when they are set.
  [[nodiscard]] const linalg::CgOptions& options() const { return options_; }

 private:
  /// True when @p solver can share the lanes: the first member's pattern of
  /// G and CG options, and an ic-pcg start.
  bool joins(const IrSolver& solver) {
    const linalg::CgOptions opts = solver.cg_options();
    if (pattern_ == nullptr) {
      pattern_ = solver.g_.pattern().get();
      options_ = opts;
    }
    return solver.kind_ == SolverKind::kPcgIc && solver.g_.pattern().get() == pattern_ &&
           opts.rel_tolerance == options_.rel_tolerance &&
           opts.max_iterations == options_.max_iterations;
  }

  LaneFeed& feed_;
  bool want_ir_;
  LaneScratch& scratch_;
  const linalg::CsrPattern* pattern_ = nullptr;  ///< the lanes' pattern of G
  linalg::CgOptions options_;
  std::array<const IrSolver*, linalg::kCgLanes> members_{};
};

void IrSolver::solve_lanes(LaneFeed& feed, std::size_t members, bool want_ir,
                           LaneScratch& scratch) {
  LaneAdapter adapter(feed, want_ir, scratch);
  linalg::solve_cg_lanes(adapter, members, adapter.options(), scratch.cg);
}

}  // namespace pdn3d::irdrop
