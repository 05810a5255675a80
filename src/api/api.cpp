#include "api/api.hpp"

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <optional>
#include <sstream>
#include <vector>

#include "cost/cost_model.hpp"
#include "irdrop/em.hpp"
#include "irdrop/lut.hpp"
#include "irdrop/montecarlo.hpp"
#include "opt/cooptimizer.hpp"
#include "pdn/mesh_validator.hpp"
#include "pdn/stack_builder.hpp"
#include "util/checkpoint.hpp"
#include "util/string_util.hpp"
#include "util/table.hpp"

namespace pdn3d::api {

namespace {

// CLI exit-code mapping (docs/ROBUSTNESS.md): 1 usage, 2 input, 3 numerical.
int exit_code_for(const core::Status& status) {
  switch (status.code()) {
    case core::StatusCode::kOk: return 0;
    case core::StatusCode::kInvalidArgument: return 1;
    case core::StatusCode::kInputError: return 2;
    case core::StatusCode::kNumericalFailure: return 3;
    case core::StatusCode::kCancelled: return 3;
  }
  return 2;
}

// %.17g round-trips every finite double exactly; matches obs/json.cpp.
std::string canonical_double(double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

// Compact rendering for quantities spanning many decades (MTTF hours).
std::string fmt_general(double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.3g", value);
  return buf;
}

irdrop::EmOptions em_options(const DesignOptions& design) {
  irdrop::EmOptions o;
  o.wire_limit_ma_cm2 = design.em_wire_limit;
  o.tsv_limit_ma_cm2 = design.em_tsv_limit;
  o.temperature_c = design.em_temp_c;
  return o;
}

/// The one shared renderer for per-kind branch-current statistics: analyze's
/// EM-enabled crowding block and em-check's current block both go through
/// here, so the two operations cannot drift apart.
void render_current_block(const irdrop::EmReport& rep, std::ostream& os) {
  os << "branch currents @ " << util::fmt_fixed(rep.temperature_c, 1) << " C:\n";
  util::Table t({"kind", "count", "max (mA)", "avg (mA)", "crowding", "max J (MA/cm^2)",
                 "limit", "util %", "MTTF (h)"});
  for (const auto& k : rep.kinds) {
    t.add_row({pdn::to_string(k.kind), std::to_string(k.current.count),
               util::fmt_fixed(k.current.max_amps * 1e3, 3),
               util::fmt_fixed(k.current.avg_amps * 1e3, 3),
               util::fmt_fixed(k.current.crowding_factor(), 2),
               util::fmt_fixed(k.max_j_ma_cm2, 4), util::fmt_fixed(k.limit_ma_cm2, 2),
               util::fmt_fixed(k.utilization() * 100.0, 1),
               k.mttf_hours > 0.0 ? fmt_general(k.mttf_hours) : "-"});
  }
  os << t.render();
  os << "EM check : ";
  if (rep.clean()) {
    os << "CLEAN";
  } else {
    os << rep.total_violations << " VIOLATION(S)";
  }
  os << " (worst utilization " << util::fmt_fixed(rep.worst_utilization * 100.0, 1)
     << "% of limit, min MTTF " << fmt_general(rep.min_mttf_hours) << " h)\n";
}

/// Empty when @p rep is clean; otherwise the co-optimizer constraint reason
/// naming the worst-violating element kind.
std::string em_violation_reason(const irdrop::EmReport& rep) {
  if (rep.clean()) return {};
  const irdrop::EmKindStats* worst = nullptr;
  for (const auto& k : rep.kinds) {
    if (k.violations == 0) continue;
    if (worst == nullptr || k.utilization() > worst->utilization()) worst = &k;
  }
  std::ostringstream os;
  os << "em-limit: " << pdn::to_string(worst->kind) << " J "
     << util::fmt_fixed(worst->max_j_ma_cm2, 4) << " > limit "
     << util::fmt_fixed(worst->limit_ma_cm2, 4) << " MA/cm^2 (" << rep.total_violations
     << " violation(s) total)";
  return os.str();
}

/// Open the request's sweep checkpoint, keyed by the request's canonical
/// fingerprint text plus @p extra run-shape bits that live outside the
/// request (Monte Carlo seed, LUT build parameters), so a resume against a
/// different benchmark/op/parameter set is refused instead of silently
/// mixing results. Returns nullptr when checkpointing is off; throws
/// std::runtime_error (-> input error) on a mismatched or corrupt file.
std::unique_ptr<util::SweepCheckpoint> open_checkpoint(const EvaluateRequest& request,
                                                       const std::string& extra,
                                                       std::uint64_t total) {
  if (request.checkpoint_path.empty()) return nullptr;
  const std::uint64_t key = util::checkpoint_key(request.fingerprint().canonical + extra);
  return std::make_unique<util::SweepCheckpoint>(
      util::SweepCheckpoint::open(request.checkpoint_path, key, total, request.resume));
}

/// The shared back half of an evaluate rendering: everything after the IR
/// result exists. Used by the per-request path (render_evaluate) and by the
/// service's coalesced batch path (Session::evaluate_group), so a batched
/// response cannot render differently from a stand-alone one.
void render_evaluate_result(const pdn::PdnConfig& cfg, const std::string& state,
                            const power::MemoryState& parsed, const irdrop::IrResult& r,
                            std::ostream& os, EvaluateResult* result) {
  os << "design : " << cfg.summary() << "\n";
  os << "state  : " << state << " @ activity " << util::fmt_fixed(parsed.io_activity, 2)
     << "\n";
  os << "cost   : " << util::fmt_fixed(cost::total_cost(cfg), 3) << "\n";
  util::Table t({"die", "max IR (mV)", "avg IR (mV)"});
  for (std::size_t d = 0; d < r.dram_dies.size(); ++d) {
    t.add_row({"DRAM" + std::to_string(d + 1), util::fmt_fixed(r.dram_dies[d].max_mv, 2),
               util::fmt_fixed(r.dram_dies[d].avg_mv, 2)});
  }
  os << t.render();
  os << "max DRAM IR drop : " << util::fmt_fixed(r.dram_max_mv, 2) << " mV\n";
  if (r.logic_max_mv > 0.0) {
    os << "logic self-noise : " << util::fmt_fixed(r.logic_max_mv, 2) << " mV\n";
  }
  os << "stack power      : " << util::fmt_fixed(r.total_power_mw, 1) << " mW\n";
  result->headline_mv = r.dram_max_mv;
}

/// A failed EM limit check as the result's status, when the request
/// enforces the limits.
void enforce_em(const EvaluateRequest& request, const irdrop::EmReport& rep,
                EvaluateResult* result) {
  if (request.design.em_enforce && !rep.clean()) {
    result->status = core::Status::numerical_failure(
        std::to_string(rep.total_violations) + " EM limit violation(s)");
  }
}

void render_evaluate(const core::Platform& p, const EvaluateRequest& request, std::ostream& os,
                     EvaluateResult* result) {
  const auto cfg = request.design.apply(p.benchmark().baseline);
  const std::string state =
      request.state.empty() ? p.benchmark().default_state : request.state;
  const auto parsed = p.parse_state(state, request.activity);
  const auto render_ir = [&](const irdrop::IrResult& r) {
    render_evaluate_result(cfg, state, parsed, r, os, result);
  };
  if (!request.design.em_enabled()) {
    render_ir(p.analyze(cfg, parsed));
    return;
  }
  // One solve for both: the IR part is written before the EM pass can fail.
  const auto rep = p.em_check(cfg, parsed, em_options(request.design), render_ir);
  render_current_block(rep, os);
  enforce_em(request, rep, result);
}

void render_em_check(const core::Platform& p, const EvaluateRequest& request, std::ostream& os,
                     EvaluateResult* result) {
  const auto cfg = request.design.apply(p.benchmark().baseline);
  const std::string state =
      request.state.empty() ? p.benchmark().default_state : request.state;
  const auto parsed = p.parse_state(state, request.activity);
  double ir_mv = 0.0;
  const auto rep =
      p.em_check(cfg, parsed, em_options(request.design), [&](const irdrop::IrResult& ir) {
        os << "design : " << cfg.summary() << "\n";
        os << "state  : " << state << " @ activity " << util::fmt_fixed(parsed.io_activity, 2)
           << "\n";
        ir_mv = ir.dram_max_mv;
      });
  render_current_block(rep, os);
  os << "max DRAM IR drop : " << util::fmt_fixed(ir_mv, 2) << " mV\n";
  result->headline_mv = ir_mv;
  enforce_em(request, rep, result);
}

void render_lut(const core::Platform& p, const EvaluateRequest& request, std::ostream& os,
                EvaluateResult* result) {
  const auto cfg = request.design.apply(p.benchmark().baseline);
  // With checkpointing the build bypasses the Platform's LUT cache (the cache
  // cannot resume a partial table) but uses the exact same build parameters,
  // so the rendered table is identical either way.
  std::unique_ptr<util::SweepCheckpoint> ckpt;
  std::optional<irdrop::IrLut> local;
  if (!request.checkpoint_path.empty()) {
    const auto& bench = p.benchmark();
    const auto& analyzer = p.analyzer(cfg);
    const int dies = analyzer.model().dram_die_count();
    const auto radix = static_cast<std::uint64_t>(bench.sim.max_active_per_die + 1);
    std::uint64_t total = 1;
    for (int d = 0; d < dies; ++d) total *= radix;
    ckpt = open_checkpoint(request,
                           "|lut_max=" + std::to_string(bench.sim.max_active_per_die) +
                               "|lut_io=" + std::to_string(bench.sim.io_demand_factor),
                           total);
    local = irdrop::IrLut::build(analyzer, bench.stack.dram_spec, bench.sim.max_active_per_die,
                                 bench.sim.io_demand_factor, 0, ckpt.get());
  }
  const auto& lut = local.has_value() ? *local : p.lut(cfg);
  os << "IR LUT for " << cfg.summary() << " (" << lut.size() << " states)\n";
  util::Table t({"state", "max IR (mV)"});
  std::vector<int> counts(static_cast<std::size_t>(lut.die_count()), 0);
  const int radix = lut.max_per_die() + 1;
  const std::size_t total = lut.size();
  for (std::size_t key = 0; key < total; ++key) {
    std::size_t k = key;
    std::string name;
    for (int d = 0; d < lut.die_count(); ++d) {
      counts[static_cast<std::size_t>(d)] = static_cast<int>(k % radix);
      k /= static_cast<std::size_t>(radix);
      if (d > 0) name += '-';
      name += std::to_string(counts[static_cast<std::size_t>(d)]);
    }
    t.add_row({name, util::fmt_fixed(lut.max_ir_mv(counts), 2)});
  }
  os << t.render();
  const auto worst = lut.worst_case_state();
  os << "worst state: ";
  for (std::size_t i = 0; i < worst.size(); ++i) {
    os << (i ? "-" : "") << worst[i];
  }
  os << " = " << util::fmt_fixed(lut.worst_case_mv(), 2) << " mV\n";
  result->headline_mv = lut.worst_case_mv();
}

void render_montecarlo(const core::Platform& p, const EvaluateRequest& request,
                       std::ostream& os, EvaluateResult* result) {
  const auto cfg = request.design.apply(p.benchmark().baseline);
  const int samples = static_cast<int>(request.samples);
  // With checkpointing the run bypasses the design's Monte Carlo prefix (as
  // the LUT build bypasses the LUT cache) but samples the same stream on the
  // same cached analyzer, so the table is identical either way.
  irdrop::MonteCarloResult r;
  if (request.checkpoint_path.empty()) {
    r = p.montecarlo(cfg, samples);
  } else {
    irdrop::MonteCarloConfig mc;
    mc.samples = samples;
    const auto ckpt = open_checkpoint(request, "|mc_seed=" + std::to_string(mc.seed),
                                      static_cast<std::uint64_t>(samples));
    mc.checkpoint = ckpt.get();
    r = irdrop::sample_ir_distribution(p.analyzer(cfg), p.benchmark().stack.dram_spec, mc);
  }
  // The design worst case is the default state on the same cached analyzer,
  // solved once per design.
  const double worst = p.worst_case_mv(cfg);
  os << "design : " << cfg.summary() << "\n";
  os << "samples: " << r.samples << "\n";
  util::Table t({"statistic", "IR drop (mV)"});
  t.add_row({"mean", util::fmt_fixed(r.mean_mv, 2)});
  t.add_row({"p50", util::fmt_fixed(r.p50_mv, 2)});
  t.add_row({"p95", util::fmt_fixed(r.p95_mv, 2)});
  t.add_row({"p99", util::fmt_fixed(r.p99_mv, 2)});
  t.add_row({"sampled max", util::fmt_fixed(r.max_mv, 2)});
  t.add_row({"design worst case", util::fmt_fixed(worst, 2)});
  os << t.render();
  result->headline_mv = r.p99_mv;
}

void render_cooptimize(const core::Platform& p, const EvaluateRequest& request,
                       std::ostream& os, EvaluateResult* result) {
  const double alpha = request.alpha;
  auto opt = p.make_cooptimizer();
  // total=0: the measurement count is open-ended (adaptive densify rounds and
  // re-measure retries), but the enumeration order is deterministic. The
  // layout tag names that order (every grid, then the densify points, then
  // the winners), so a file written under another index layout is refused
  // as a key mismatch instead of being replayed into the wrong indices.
  const auto ckpt = open_checkpoint(request, "|layout=grids-densify-winners", 0);
  if (ckpt != nullptr) opt.set_checkpoint(ckpt.get());
  if (request.design.em_enabled()) {
    // Hard EM constraint: a cost/IR optimum that violates a current-density
    // limit is excluded (typed SkippedPoint) and the search continues.
    const auto& em_tech = p.benchmark().stack.tech.em;
    const irdrop::EmOptions em = em_options(request.design);
    os << "EM constraint: wire <= "
       << fmt_general(em.wire_limit_ma_cm2.value_or(em_tech.wire_limit_ma_cm2))
       << ", tsv <= "
       << fmt_general(em.tsv_limit_ma_cm2.value_or(em_tech.tsv_limit_ma_cm2))
       << " MA/cm^2 @ "
       << util::fmt_fixed(em.temperature_c.value_or(em_tech.temperature_c), 1)
       << " C (hard)\n";
    opt.set_constraint([&p, em](const pdn::PdnConfig& cfg) {
      return em_violation_reason(p.measure_em(cfg, em));
    });
  }
  os << "sampling the design space with the R-Mesh...\n";
  const auto best = opt.optimize(alpha);
  os << "alpha " << alpha << " optimum:\n";
  os << "  design  : " << best.config.summary() << "\n";
  os << "  model IR: " << util::fmt_fixed(best.predicted_ir_mv, 2) << " mV\n";
  os << "  R-Mesh  : " << util::fmt_fixed(best.measured_ir_mv, 2) << " mV\n";
  os << "  cost    : " << util::fmt_fixed(best.cost, 3) << "\n";
  os << "  fit     : worst RMSE " << util::fmt_fixed(opt.worst_rmse(), 3) << " mV, R^2 "
     << util::fmt_fixed(opt.worst_r_squared(), 4) << "\n";
  for (const auto& s : opt.skipped_points()) {
    const bool constrained = s.kind == opt::SkippedPoint::Kind::kConstraint;
    os << (constrained ? "  excluded: " : "  skipped : ") << s.config.summary() << " -- "
       << s.reason << "\n";
  }
  result->headline_mv = best.measured_ir_mv;
}

void render_validate(const core::Platform& p, const EvaluateRequest& request, std::ostream& os,
                     EvaluateResult* result) {
  const auto& bench = p.benchmark();
  const auto cfg = request.design.apply(bench.baseline);
  os << "design : " << cfg.summary() << "\n";

  pdn::BuiltStack built;
  try {
    built = pdn::build_stack(bench.stack, cfg);
  } catch (const std::exception& e) {
    os << "error: stack build failed: " << e.what() << "\n";
    result->status = core::Status::input_error(std::string("stack build failed: ") + e.what());
    return;
  }
  os << "mesh   : " << built.model.node_count() << " nodes, "
     << built.model.resistors().size() << " resistors, " << built.model.taps().size()
     << " supply taps\n";

  core::ValidationReport report = pdn::validate_stack_model(built.model);
  if (report.ok()) {
    // Mesh is sound; check the default state's injection and run a verified
    // probe solve through the escalation ladder.
    const irdrop::IrAnalyzer analyzer(built.model, bench.stack.dram_fp, bench.stack.logic_fp,
                                      p.power_binding());
    const auto state = p.parse_state(bench.default_state, bench.default_io_activity);
    const auto sinks = analyzer.injection(state);
    report.merge(pdn::validate_injection(built.model, sinks));
    if (report.ok()) {
      const auto outcome = analyzer.solver().solve(irdrop::SolveRequest{.sinks = sinks});
      if (outcome.ok()) {
        os << "solve  : " << irdrop::to_string(outcome.kind_used) << ", "
           << outcome.iterations << " iterations, relative residual " << outcome.rel_residual;
        if (outcome.escalations > 0) {
          os << " (" << outcome.escalations << " rung escalation(s))";
        }
        os << "\n";
      } else {
        os << "error: probe solve failed: " << outcome.status.to_string() << "\n";
        result->status = core::Status::numerical_failure("probe solve failed: " +
                                                         outcome.status.message());
        return;
      }
    }
  }

  for (const auto& issue : report.issues()) {
    os << core::to_string(issue.severity) << " [" << issue.check << "] " << issue.message
       << "\n";
  }
  if (!report.ok()) {
    os << "validation FAILED: " << report.error_count() << " error(s), "
       << report.warning_count() << " warning(s)\n";
    result->status = core::Status::numerical_failure(report.to_status().message());
    return;
  }
  os << "validation passed";
  if (report.warning_count() > 0) os << " (" << report.warning_count() << " warning(s))";
  os << "\n";
}

// One row per Operation, in enum order (operation_spec() indexes by enum
// value; the error messages list names in row order). cooptimize sweeps from
// the benchmark's baseline, so of the design knobs it reads only the EM ones
// (its hard constraint). Only evaluate batches: the sweep ops own their
// parallelism. em-check costs one solve plus the branch-current pass.
constexpr OperationSpec kOperations[] = {
    // op                     name          cli command   design em     state  samples alpha  ckpt   batch  cost render
    {Operation::kEvaluate,   "evaluate",   "analyze",    true,  true,  true,  false, false, false, true,  1,  render_evaluate},
    {Operation::kMonteCarlo, "montecarlo", "montecarlo", true,  false, false, true,  false, true,  false, 1,  render_montecarlo},
    {Operation::kLut,        "lut",        "lut",        true,  false, false, false, false, true,  false, 16, render_lut},
    {Operation::kCoOptimize, "cooptimize", "cooptimize", false, true,  false, false, true,  true,  false, 64, render_cooptimize},
    {Operation::kValidate,   "validate",   "validate",   true,  false, false, false, false, false, false, 1,  render_validate},
    {Operation::kEmCheck,    "em-check",   "em-check",   true,  true,  true,  false, false, false, false, 2,  render_em_check},
};

const OperationSpec& operation_spec(Operation op) {
  return kOperations[static_cast<std::size_t>(op)];
}

/// "a | b | c": the names of the rows @p keep selects, in enum order.
template <typename Keep>
std::string operation_names(Keep keep) {
  std::string out;
  for (const OperationSpec& s : kOperations) {
    if (!keep(s)) continue;
    if (!out.empty()) out += " | ";
    out += s.name;
  }
  return out;
}

}  // namespace

std::span<const OperationSpec> operation_specs() { return kOperations; }

const char* to_string(Operation op) { return operation_spec(op).name; }

core::Status parse_operation(std::string_view text, Operation* out) {
  for (const OperationSpec& s : kOperations) {
    if (text == s.name || text == s.cli_command) {
      *out = s.op;
      return core::Status::ok();
    }
  }
  return core::Status::invalid_argument(
      "unknown operation '" + std::string(text) + "' (want " +
      operation_names([](const OperationSpec&) { return true; }) + ")");
}

core::Status parse_benchmark(std::string_view text, core::BenchmarkKind* out) {
  if (text == "off-chip") {
    *out = core::BenchmarkKind::kStackedDdr3OffChip;
  } else if (text == "on-chip") {
    *out = core::BenchmarkKind::kStackedDdr3OnChip;
  } else if (text == "wide-io") {
    *out = core::BenchmarkKind::kWideIo;
  } else if (text == "hmc") {
    *out = core::BenchmarkKind::kHmc;
  } else {
    return core::Status::invalid_argument("unknown benchmark '" + std::string(text) +
                                          "' (want off-chip | on-chip | wide-io | hmc)");
  }
  return core::Status::ok();
}

const char* benchmark_token(core::BenchmarkKind kind) {
  switch (kind) {
    case core::BenchmarkKind::kStackedDdr3OffChip: return "off-chip";
    case core::BenchmarkKind::kStackedDdr3OnChip: return "on-chip";
    case core::BenchmarkKind::kWideIo: return "wide-io";
    case core::BenchmarkKind::kHmc: return "hmc";
  }
  return "?";
}

std::string RequestFingerprint::hex() const {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(hash));
  return buf;
}

EvaluateRequest EvaluateRequest::canonicalize() const {
  // Fields the operation never reads are left at their defaults so they
  // cannot split identical outputs into distinct identities.
  const OperationSpec& spec = operation_spec(op);
  EvaluateRequest c;
  c.benchmark = benchmark;
  c.op = op;
  if (spec.reads_design) c.design = design;
  const DesignOptions none;
  const DesignOptions& em = spec.reads_em ? design : none;
  c.design.em_wire_limit = em.em_wire_limit;
  c.design.em_tsv_limit = em.em_tsv_limit;
  c.design.em_temp_c = em.em_temp_c;
  c.design.em_enforce = em.em_enforce;
  if (spec.reads_state) {
    c.state = state;
    c.activity = activity;
  }
  if (spec.reads_samples) c.samples = samples;
  if (spec.reads_alpha) c.alpha = alpha;
  // checkpoint_path / resume stay cleared: resume is bitwise identical to an
  // uninterrupted run, so checkpoint plumbing is not output-determining.
  return c;
}

RequestFingerprint EvaluateRequest::fingerprint() const {
  const EvaluateRequest c = canonicalize();
  // Requests that never touch the EM subsystem keep the historical v1 prefix
  // (and, because canonical_text() only appends EM fields when set, their
  // exact pre-EM canonical text and golden hashes). Anything EM-enabled is a
  // new identity under the v2 prefix.
  std::string text = c.design.em_enabled() ? "pdn3d-req-v2" : "pdn3d-req-v1";
  text += "|bench=";
  text += benchmark_token(c.benchmark);
  text += "|op=";
  text += to_string(c.op);
  text += "|design=";
  text += c.design.canonical_text();
  text += "|state=";
  text += c.state;
  text += "|activity=";
  text += canonical_double(c.activity);
  text += "|samples=";
  text += std::to_string(c.samples);
  text += "|alpha=";
  text += canonical_double(c.alpha);
  RequestFingerprint fp;
  fp.canonical = std::move(text);
  fp.hash = util::checkpoint_key(fp.canonical);
  return fp;
}

core::Status EvaluateRequest::validate() const {
  const OperationSpec& spec = operation_spec(op);
  const core::Status act = check_activity(activity);
  if (!act.is_ok()) return act;
  if (spec.reads_samples) {
    const core::Status s = check_samples(samples);
    if (!s.is_ok()) return s;
  }
  if (spec.reads_alpha) {
    const core::Status a = check_alpha(alpha);
    if (!a.is_ok()) return a;
  }
  if (resume && checkpoint_path.empty()) {
    return core::Status::invalid_argument("resume requires a checkpoint file");
  }
  if (!checkpoint_path.empty() && !spec.checkpoints) {
    return core::Status::invalid_argument(
        "checkpointing applies only to " +
        operation_names([](const OperationSpec& s) { return s.checkpoints; }));
  }
  return core::Status::ok();
}

bool EvaluateRequest::batchable() const {
  return operation_spec(op).batches && !design.em_enabled() && checkpoint_path.empty();
}

std::uint64_t EvaluateRequest::admission_cost() const {
  const OperationSpec& spec = operation_spec(op);
  if (!spec.reads_samples) return spec.cost;
  return spec.cost * static_cast<std::uint64_t>(std::max<long long>(1, samples / 16));
}

void Session::install(core::BenchmarkKind kind, core::Benchmark benchmark) {
  const std::unique_lock<std::shared_mutex> lock(mutex_);
  platforms_[kind] = std::make_unique<core::Platform>(std::move(benchmark));
}

const core::Platform& Session::platform(core::BenchmarkKind kind) const {
  {
    const std::shared_lock<std::shared_mutex> lock(mutex_);
    const auto it = platforms_.find(kind);
    if (it != platforms_.end()) return *it->second;
  }
  // Build outside the lock; racing builders both construct and the first
  // emplace wins (same convention as the Platform design cache).
  auto built = std::make_unique<core::Platform>(core::make_benchmark(kind));
  const std::unique_lock<std::shared_mutex> lock(mutex_);
  const auto [pos, inserted] = platforms_.emplace(kind, std::move(built));
  return *pos->second;
}

EvaluateResult Session::evaluate(const EvaluateRequest& request) const {
  EvaluateResult result;
  result.fingerprint = request.fingerprint().hex();
  result.status = request.validate();
  if (!result.status.is_ok()) {
    result.exit_code = exit_code_for(result.status);
    result.output = "error: " + result.status.message() + "\n";
    return result;
  }

  std::ostringstream os;
  try {
    operation_spec(request.op).render(platform(request.benchmark), request, os, &result);
  } catch (const core::ValidationError& e) {
    os << "error: mesh validation failed:\n" << e.report().to_string() << "\n";
    result.status = core::Status::numerical_failure("mesh validation failed");
  } catch (const core::NumericalError& e) {
    os << "error: " << e.status().to_string() << "\n";
    result.status = e.status();
  } catch (const std::exception& e) {
    os << "error: " << e.what() << "\n";
    result.status = core::Status::input_error(e.what());
  }
  result.output = os.str();
  result.exit_code = exit_code_for(result.status);
  return result;
}

std::vector<EvaluateResult> Session::evaluate_group(
    std::span<const EvaluateRequest> requests) const {
  std::vector<EvaluateResult> results(requests.size());
  if (requests.empty()) return results;

  const auto fallback = [&] {
    for (std::size_t i = 0; i < requests.size(); ++i) results[i] = evaluate(requests[i]);
  };

  // The shared-factor fast path only fires for a homogeneous group of valid
  // batchable requests on one design; anything else is N independent
  // evaluate() calls with their usual per-request error reporting.
  bool batchable = requests.size() > 1;
  const std::string design_key = requests[0].design.canonical_text();
  for (const EvaluateRequest& r : requests) {
    if (!r.batchable() || r.benchmark != requests[0].benchmark || !r.validate().is_ok() ||
        r.design.canonical_text() != design_key) {
      batchable = false;
      break;
    }
  }
  if (!batchable) {
    fallback();
    return results;
  }

  try {
    const core::Platform& p = platform(requests[0].benchmark);
    const auto cfg = requests[0].design.apply(p.benchmark().baseline);
    std::vector<std::string> state_texts;
    std::vector<power::MemoryState> states;
    state_texts.reserve(requests.size());
    states.reserve(requests.size());
    for (const EvaluateRequest& r : requests) {
      state_texts.push_back(r.state.empty() ? p.benchmark().default_state : r.state);
      states.push_back(p.parse_state(state_texts.back(), r.activity));
    }
    // Same cached analyzer instance Platform::analyze uses, so the solver
    // takes the same rung and each batch slice is bitwise identical to the
    // stand-alone result.
    const auto batch = p.analyzer(cfg).analyze_batch(states);
    for (std::size_t i = 0; i < requests.size(); ++i) {
      EvaluateResult& result = results[i];
      result.fingerprint = requests[i].fingerprint().hex();
      std::ostringstream os;
      render_evaluate_result(cfg, state_texts[i], states[i], batch[i], os, &result);
      result.output = os.str();
      result.exit_code = exit_code_for(result.status);
    }
  } catch (...) {
    // Any batch-path failure (state parse error, solver failure, ...) must
    // surface exactly as individual evaluation would report it.
    fallback();
  }
  return results;
}

}  // namespace pdn3d::api
