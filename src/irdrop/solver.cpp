#include "irdrop/solver.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>
#include <optional>
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

/// The counters every solve updates, registered once.
struct SolveCounters {
  obs::Counter& solves = obs::counter("solver.solves");
  obs::Counter& failures = obs::counter("solver.failures");
  obs::Counter& escalations = obs::counter("ladder.escalations");
  obs::Histogram& iterations =
      obs::histogram("solver.iterations_per_solve", obs::exponential_buckets(1.0, 2.0, 16));
};

const SolveCounters& counters() {
  static const SolveCounters instance;
  return instance;
}

/// Registered at 0, so stats, metrics and run reports show the row before a
/// workspace first grows.
obs::Counter& m_workspace_grows = obs::counter("solver.workspace_grows");

/// The acceptance check every rung's answer must pass, for W slices at once:
/// rel[r] is the true relative residual ||b - Gx|| / ||b|| of slice r
/// (plain ||b - Gx|| when b = 0), or NaN when its x has a non-finite entry.
/// @p x holds the slices node-major (entry i of slice r at i * W + r), and
/// rhs(i, r) is entry i of slice r's right-hand side. Per slice it forms
/// Csr::multiply's row sums (from 0.0, in column order), the squared
/// differences summed in node order and norm2's sum of squares, so a slice's
/// residual is bit for bit the same at any width, and the block pass and the
/// ladder accept alike. A factorization of a near-singular system can
/// "succeed" and still return garbage, so no rung is trusted without it.
template <std::size_t W, typename Rhs>
void residuals(const linalg::Csr& g, Rhs rhs, const double* x, double* rel) {
  const std::size_t n = g.dimension();
  const std::size_t* row_ptr = g.row_ptr().data();
  const std::size_t* col_idx = g.col_idx().data();
  const double* values = g.values().data();
  double res[W] = {};
  double bsq[W] = {};
  bool finite[W];
  for (std::size_t r = 0; r < W; ++r) finite[r] = true;
  for (std::size_t i = 0; i < n; ++i) {
    double ax[W] = {};
    for (std::size_t k = row_ptr[i]; k < row_ptr[i + 1]; ++k) {
      const double v = values[k];
      const double* xk = x + col_idx[k] * W;
      for (std::size_t r = 0; r < W; ++r) ax[r] += v * xk[r];
    }
    for (std::size_t r = 0; r < W; ++r) {
      const double b = rhs(i, r);
      const double d = b - ax[r];
      res[r] += d * d;
      bsq[r] += b * b;
      finite[r] = finite[r] && std::isfinite(x[i * W + r]);
    }
  }
  for (std::size_t r = 0; r < W; ++r) {
    if (!finite[r]) {
      rel[r] = std::numeric_limits<double>::quiet_NaN();
      continue;
    }
    const double norm = std::sqrt(res[r]);
    const double bnorm = std::sqrt(bsq[r]);
    rel[r] = bnorm > 0.0 ? norm / bnorm : norm;
  }
}

/// The verdict on a residual from residuals(): empty when the answer is
/// accepted, else the reason a ladder records for rejecting it.
std::string reject_reason(double rel, double tol) {
  if (!std::isfinite(rel)) return "solution contains non-finite entries";
  if (rel <= tol) return {};
  std::ostringstream os;
  os << "residual check failed: ||b-Gx||/||b|| = " << rel << " > " << tol;
  return os.str();
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
  const std::size_t n = model.node_count();
  const auto resistors = model.resistors();
  const auto taps = model.taps();
  const std::size_t stamps = 4 * resistors.size() + taps.size();
  if (n >= std::numeric_limits<std::uint32_t>::max() ||
      stamps > std::numeric_limits<std::uint32_t>::max()) {
    throw std::length_error("MeshStructure: node ids or stamps exceed 32 bits");
  }
  // The stamp sequence of IrSolver's assembly: G[a][a], G[b][b], G[a][b],
  // G[b][a] for resistor i (stamps 4i .. 4i + 3), then G[v][v] for tap t
  // (stamp 4R + t), R the resistor count. A row's entries are its diagonal
  // and one per other end of its resistors, so each row lists only its
  // resistor ends e (2i in row a, 2i + 1 in row b; column ends[e ^ 1]) and
  // its taps (2R + t; the diagonal), in stamp order, in a run of one array.
  // Sorted by column, stably, a run holds the row's columns in order with
  // each column's stamps in stamp order: linalg::coo_layout's order,
  // without its triplets. Built aside, so a throw leaves the previous
  // structure whole.
  const std::size_t ends_count = 2 * resistors.size();
  std::vector<std::uint32_t> ends(ends_count);
  std::vector<std::uint32_t> tap_nodes(taps.size());
  // Counts at start[r + 2], then run starts at start[r + 1], which the fill
  // advances to the run's end: afterwards row r's run is [start[r],
  // start[r + 1]).
  std::vector<std::uint32_t> start(n + 2, 0);
  for (std::size_t i = 0; i < resistors.size(); ++i) {
    ends[2 * i] = static_cast<std::uint32_t>(resistors[i].a);
    ends[2 * i + 1] = static_cast<std::uint32_t>(resistors[i].b);
    ++start[resistors[i].a + 2];
    ++start[resistors[i].b + 2];
  }
  for (std::size_t t = 0; t < taps.size(); ++t) {
    tap_nodes[t] = static_cast<std::uint32_t>(taps[t].node);
    ++start[taps[t].node + 2];
  }
  for (std::size_t r = 2; r < n + 2; ++r) start[r] += start[r - 1];
  const auto items = std::make_unique_for_overwrite<std::uint32_t[]>(ends_count + taps.size());
  for (std::size_t e = 0; e < ends_count; ++e) {
    items[start[ends[e] + 1]++] = static_cast<std::uint32_t>(e);
  }
  for (std::size_t t = 0; t < taps.size(); ++t) {
    items[start[tap_nodes[t] + 1]++] = static_cast<std::uint32_t>(ends_count + t);
  }

  // Sort each run (a row holds a few to about fifty items) and count its
  // entries: its distinct columns, and its diagonal.
  auto pattern = std::make_shared<linalg::CsrPattern>();
  pattern->n = n;
  std::vector<std::size_t>& row_ptr = pattern->row_ptr;
  row_ptr.assign(n + 1, 0);
  for (std::size_t r = 0; r < n; ++r) {
    std::uint32_t* run = items.get() + start[r];
    const std::uint32_t count = start[r + 1] - start[r];
    const auto column = [&](std::uint32_t e) {
      return e < ends_count ? ends[e ^ 1] : static_cast<std::uint32_t>(r);
    };
    std::size_t entries = count > 0 ? 1 : 0;  // the diagonal
    for (std::uint32_t k = 0; k < count; ++k) {
      const std::uint32_t e = run[k];
      const std::uint32_t c = column(e);
      std::uint32_t j = k;
      for (; j > 0 && column(run[j - 1]) > c; --j) run[j] = run[j - 1];
      run[j] = e;
    }
    for (std::uint32_t k = 0; k < count; ++k) {
      const std::uint32_t c = column(run[k]);
      entries += c != r && (k == 0 || c != column(run[k - 1]));
    }
    row_ptr[r + 1] = row_ptr[r] + entries;
  }

  // Give each column its entry and each stamp its slot: an end's
  // off-diagonal stamp goes to its column's entry, and its diagonal stamp
  // and every tap's to the row's diagonal.
  linalg::CooLayout layout;
  layout.slots.resize(stamps);
  std::uint32_t* slots = layout.slots.data();
  std::vector<std::size_t>& col_idx = pattern->col_idx;
  col_idx.resize(row_ptr[n]);
  for (std::size_t r = 0; r < n; ++r) {
    const std::uint32_t* run = items.get() + start[r];
    const std::uint32_t count = start[r + 1] - start[r];
    if (count == 0) continue;
    std::size_t diagonal = row_ptr[r];
    std::uint32_t previous = std::numeric_limits<std::uint32_t>::max();
    for (std::uint32_t k = 0; k < count && run[k] < ends_count && ends[run[k] ^ 1] < r; ++k) {
      diagonal += ends[run[k] ^ 1] != previous;
      previous = ends[run[k] ^ 1];
    }
    col_idx[diagonal] = r;
    std::size_t next = row_ptr[r];
    std::size_t entry = 0;
    previous = std::numeric_limits<std::uint32_t>::max();
    for (std::uint32_t k = 0; k < count; ++k) {
      const std::uint32_t e = run[k];
      if (e >= ends_count) {
        slots[4 * resistors.size() + (e - ends_count)] = static_cast<std::uint32_t>(diagonal);
        continue;
      }
      const std::uint32_t c = ends[e ^ 1];
      if (c != previous) {
        if (next == diagonal) ++next;
        entry = next++;
        col_idx[entry] = c;
        previous = c;
      }
      slots[2 * e - (e & 1)] = static_cast<std::uint32_t>(diagonal);  // 4i or 4i + 1
      slots[2 * e + 2 - (e & 1)] = static_cast<std::uint32_t>(entry);  // 4i + 2 or 4i + 3
    }
  }
  layout.pattern = std::move(pattern);
  layout_ = std::move(layout);
  nodes_ = n;
  ends_ = std::move(ends);
  taps_ = std::move(tap_nodes);
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
      // A cancelled build says nothing about the matrix: it leaves
      // call_once by exception, neither a build nor a failure, and the next
      // solve builds the factor again.
      if (exec::cancellation_requested()) throw;
      sparse_error_ = e.what();
      m_build_failures.add(1);
    }
  });
  if (sparse_ && !built_now) m_cache_hits.add(1);
  if (!sparse_ && error != nullptr) *error = sparse_error_;
  return sparse_.get();
}

bool IrSolver::sparse_factor_available() const {
  try {
    return sparse(nullptr) != nullptr;
  } catch (const std::exception&) {
    return false;  // cancelled: the solves that follow report it
  }
}

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
        out.x.assign(rhs.begin(), rhs.end());
        fac->solve_block(out.x, 1);
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

void IrSolver::admit(const double* sinks, double* rhs, std::span<SolveOutcome> out) const {
  const std::size_t n = g_.dimension();
  const double* supply = supply_rhs_.data();
  std::array<bool, linalg::kSolveBlock> finite{};
  linalg::at_width(out.size(), [&](auto w) {
    constexpr std::size_t W = decltype(w)::value;
    bool ok[W];
    for (std::size_t r = 0; r < W; ++r) ok[r] = true;
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t r = 0; r < W; ++r) {
        const double sink = sinks[i * W + r];
        ok[r] = ok[r] && std::isfinite(sink);
        rhs[i * W + r] = supply[i] - sink;
      }
    }
    std::copy(ok, ok + W, finite.begin());
  });
  const std::size_t width = out.size();
  for (std::size_t r = 0; r < width; ++r) {
    out[r] = SolveOutcome{};
    if (finite[r]) continue;
    // A NaN load current poisons every inner product, so name the offending
    // node instead of letting CG spin.
    std::size_t node = 0;
    while (std::isfinite(sinks[node * width + r])) ++node;
    counters().failures.add(1);
    out[r].status =
        core::Status::input_error("non-finite sink current at node " + std::to_string(node));
  }
}

SolveOutcome IrSolver::ladder(std::span<const double> rhs, bool want_ir, SolveScratch& ws,
                              RungResult* first, obs::TraceSpan& span) const {
  const SolveCounters& m = counters();
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
      m.failures.add(1);
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
      double rel = 0.0;
      residuals<1>(g_, [&](std::size_t i, std::size_t) { return rhs[i]; }, rung.x.data(), &rel);
      reject = reject_reason(rel, options_.verify_rel_tol);
      if (reject.empty()) {
        // Verified-correct: accept this rung.
        outcome.x = std::move(rung.x);
        if (want_ir) {
          for (double& v : outcome.x) v = vdd_ - v;
        }
        outcome.kind_used = kind;
        outcome.iterations = rung.iterations;
        outcome.rel_residual = rel;
        m.solves.add(1);
        m.iterations.observe(static_cast<double>(rung.iterations));
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
      m.escalations.add(1);
    }
  }

  m.failures.add(1);
  outcome.status = core::Status::numerical_failure("all solver rungs failed [" + trail + "]");
  return outcome;
}

/// Marks a workspace in use for one solve, sized for it, and records the
/// block it will hold.
class SolveWorkspace::Borrow {
 public:
  Borrow(SolveWorkspace& ws, std::size_t nodes, std::size_t width, double vdd, bool want_ir)
      : ws_(ws) {
    if (ws.busy_) throw std::logic_error("SolveWorkspace: borrowed twice at once");
    const std::size_t room = nodes * linalg::kSolveBlock;
    if (room > ws.block_capacity_) {
      // A full block of the largest design so far, left untouched until a
      // block reaches it.
      ws.sinks_.reset();
      ws.x_.reset();
      ws.block_capacity_ = 0;
      ws.sinks_ = std::make_unique_for_overwrite<double[]>(room);
      ws.x_ = std::make_unique_for_overwrite<double[]>(room);
      ws.block_capacity_ = room;
      m_workspace_grows.add(1);
    }
    ws.busy_ = true;
    ws.nodes_ = nodes;
    ws.width_ = width;
    ws.vdd_ = vdd;
    ws.want_ir_ = want_ir;
    ws.solved_.fill(false);
  }
  ~Borrow() { ws_.busy_ = false; }
  Borrow(const Borrow&) = delete;
  Borrow& operator=(const Borrow&) = delete;

 private:
  SolveWorkspace& ws_;
};

SolveWorkspace& SolveWorkspace::local() {
  thread_local SolveWorkspace workspace;
  return workspace;
}

std::size_t SolveWorkspace::capacity() const {
  const linalg::CgScratch& cg = ladder_.cg;
  return 2 * block_capacity_ + slice_.capacity() + ladder_.rail.capacity() + cg.x.capacity() +
         cg.r.capacity() + cg.z.capacity() + cg.p.capacity() + cg.ap.capacity() +
         cg.r0.capacity() + cg.z0.capacity();
}

std::vector<double> SolveWorkspace::solution(std::size_t r) const {
  if (r >= width_ || !solved_[r]) return {};
  std::vector<double> out(nodes_);
  for (std::size_t i = 0; i < nodes_; ++i) {
    const double v = x_[i * width_ + r];
    out[i] = want_ir_ ? vdd_ - v : v;
  }
  return out;
}

IrSolver::BlockTally IrSolver::run_block(SolveWorkspace& ws, std::span<SolveOutcome> out,
                                         bool lone) const {
  const std::size_t n = g_.dimension();
  const std::size_t width = out.size();
  const double* sinks = ws.sinks_.get();
  double* x = ws.x_.get();
  admit(sinks, x, out);
  BlockTally tally;
  if (std::none_of(out.begin(), out.end(), [](const SolveOutcome& o) { return o.ok(); })) {
    return tally;
  }
  std::optional<obs::TraceSpan> lone_span;
  if (lone) lone_span.emplace("solver/solve");

  // The start rung of every admitted slice in one pass over the cached
  // factor, and its verification in one pass over G. A pending cancellation
  // leaves the slices to their ladders, which report it.
  const linalg::SparseCholesky* fac = nullptr;
  if (kind_ == SolverKind::kSparseDirect && !exec::cancellation_requested()) {
    try {
      fac = sparse(nullptr);
    } catch (const std::exception&) {
      // Cancelled during the factor's build: the ladders report it.
    }
  }
  std::array<double, linalg::kSolveBlock> rel{};
  if (fac != nullptr) {
    fac->solve_block({x, n * width}, width);
    linalg::at_width(width, [&](auto w) {
      constexpr std::size_t W = decltype(w)::value;
      const double* supply = supply_rhs_.data();
      residuals<W>(
          g_, [&](std::size_t i, std::size_t r) { return supply[i] - sinks[i * W + r]; }, x,
          rel.data());
    });
  }

  const SolveCounters& m = counters();
  for (std::size_t r = 0; r < width; ++r) {
    if (!out[r].ok()) continue;
    if (fac != nullptr && reject_reason(rel[r], options_.verify_rel_tol).empty()) {
      // Verified with its block: the start rung's attempt and solve, with no
      // ladder of its own.
      rung_attempt_counter(SolverKind::kSparseDirect).add(1);
      m.solves.add(1);
      m.iterations.observe(0.0);
      out[r].kind_used = SolverKind::kSparseDirect;
      out[r].rel_residual = rel[r];
      if (lone_span) {
        lone_span->attribute("rung", to_string(SolverKind::kSparseDirect));
        lone_span->attribute("iterations", std::uint64_t{0});
      }
      ws.solved_[r] = true;
      ++tally.verified;
      continue;
    }
    // The slice runs its ladder alone, on copies of its right-hand side and
    // swept solution, so the block's other slices stay as they are.
    ++tally.laddered;
    ws.slice_.resize(n);
    for (std::size_t i = 0; i < n; ++i) ws.slice_[i] = supply_rhs_[i] - sinks[i * width + r];
    RungResult swept;
    if (fac != nullptr) {
      swept.x.resize(n);
      for (std::size_t i = 0; i < n; ++i) swept.x[i] = x[i * width + r];
      swept.produced = true;
    }
    std::optional<obs::TraceSpan> own_span;
    obs::TraceSpan& span = lone ? *lone_span : own_span.emplace("solver/solve");
    out[r] = ladder(ws.slice_, /*want_ir=*/false, ws.ladder_, fac != nullptr ? &swept : nullptr,
                    span);
    if (!out[r].ok()) continue;
    for (std::size_t i = 0; i < n; ++i) x[i * width + r] = out[r].x[i];
    out[r].x = {};
    ws.solved_[r] = true;
  }
  return tally;
}

void IrSolver::solve_block(const SinkFill& fill, bool want_ir, std::span<SolveOutcome> out) const {
  const std::size_t count = out.size();
  if (count == 0 || count > linalg::kSolveBlock) {
    throw std::invalid_argument("IrSolver::solve_block: block size mismatch");
  }
  PDN3D_FAULT_ALLOC("irdrop.solve.alloc");
  PDN3D_TRACE_SPAN_NAMED(span, "solver/solve_batch");
  span.attribute("batch", static_cast<std::uint64_t>(count));
  SolveWorkspace& ws = SolveWorkspace::local();
  const std::size_t n = g_.dimension();
  const SolveWorkspace::Borrow borrow(ws, n, count, vdd_, want_ir);
  std::fill_n(ws.sinks_.get(), n * count, 0.0);
  fill({ws.sinks_.get(), n * count}, count);
  const BlockTally tally = run_block(ws, out, /*lone=*/false);
  span.attribute("verified", static_cast<std::uint64_t>(tally.verified));
  span.attribute("escalated", static_cast<std::uint64_t>(tally.laddered));
}

void IrSolver::solve_block(std::span<const double> sinks, bool want_ir,
                           std::span<SolveOutcome> out) const {
  const std::size_t n = g_.dimension();
  if (sinks.size() != n * out.size()) {
    throw std::invalid_argument("IrSolver::solve_block: block size mismatch");
  }
  solve_block(
      [&](std::span<double> block, std::size_t width) {
        for (std::size_t r = 0; r < width; ++r) {
          for (std::size_t i = 0; i < n; ++i) block[i * width + r] = sinks[r * n + i];
        }
      },
      want_ir, out);
}

SolveOutcome IrSolver::solve_in_place(const SinkFill& fill, bool want_ir) const {
  PDN3D_FAULT_ALLOC("irdrop.solve.alloc");
  SolveWorkspace& ws = SolveWorkspace::local();
  const std::size_t n = g_.dimension();
  const SolveWorkspace::Borrow borrow(ws, n, 1, vdd_, want_ir);
  std::fill_n(ws.sinks_.get(), n, 0.0);
  fill({ws.sinks_.get(), n}, 1);
  SolveOutcome outcome;
  run_block(ws, std::span(&outcome, 1), /*lone=*/true);
  return outcome;
}

SolveOutcome IrSolver::solve(const SolveRequest& request) const {
  if (request.sinks.size() != g_.dimension()) {
    throw std::invalid_argument("IrSolver: sink vector size mismatch");
  }
  SolveOutcome outcome = solve_in_place(
      [&](std::span<double> block, std::size_t) {
        std::copy(request.sinks.begin(), request.sinks.end(), block.begin());
      },
      request.want_ir);
  if (outcome.ok()) outcome.x = SolveWorkspace::local().solution(0);
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
        SolveOutcome alone = solver->solve({.sinks = sinks, .want_ir = want_ir_});
        feed_.done(lane, alone);
        continue;
      }
      PDN3D_FAULT_ALLOC("irdrop.solve.alloc");
      if (sinks.size() != solver->node_count()) {
        throw std::invalid_argument("IrSolver: sink vector size mismatch");
      }
      std::vector<double>& rhs = scratch_.rhs[lane];
      rhs.resize(sinks.size());
      SolveOutcome rejected;
      solver->admit(sinks.data(), rhs.data(), std::span(&rejected, 1));
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
    SolveOutcome outcome;
    {
      PDN3D_TRACE_SPAN_NAMED(span, "solver/solve");
      outcome = members_[lane]->ladder(scratch_.rhs[lane], want_ir_, scratch_.solve, &first, span);
    }
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
