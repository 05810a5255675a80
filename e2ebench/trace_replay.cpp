// Traced in-process replay of one e2ebench workload input.
//
//   e2ebench_trace --workload cooptimize|cli-oneshot|serve-mix --input DIR
//                  --out DIR --timing 0|1 [--threads N] [--workers N] [--window N]
//                  [--segments N]
//
// Reads the input files run.py materialized for the end-to-end run and makes
// the same calls the shipped binary makes, through the library's public
// functions. With --timing 1 it records spans around each call (name, start,
// end, parent, request), reads the program's existing counters and span
// aggregates, and derives the per-layer metrics; with --timing 0 it makes the
// same calls untimed, so run.py can report the tracing overhead. Every op's
// output is written to OUT/op<i>.out for a byte comparison with the
// end-to-end run, and OUT/result.json carries the metrics.
//
// Parents are set explicitly: a design point's span names its sweep (or the
// optimize phase) as parent even though it runs on a pool worker, so the
// per-layer split does not depend on the program's own span tree.

#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "api/api.hpp"
#include "api/options.hpp"
#include "core/benchmarks.hpp"
#include "core/platform.hpp"
#include "exec/thread_pool.hpp"
#include "irdrop/analysis.hpp"
#include "memctrl/controller.hpp"
#include "memctrl/policy.hpp"
#include "memctrl/workload.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "opt/cooptimizer.hpp"
#include "pdn/stack_builder.hpp"
#include "power/memory_state.hpp"
#include "service/protocol.hpp"
#include "service/server.hpp"
#include "util/string_util.hpp"

namespace {

using namespace pdn3d;
using Clock = std::chrono::steady_clock;

double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

// ---------------------------------------------------------------------------
// spans
// ---------------------------------------------------------------------------

struct Span {
  const char* name = "";
  Clock::time_point start{};
  Clock::time_point end{};
  std::int64_t id = 0;
  std::int64_t parent = 0;  ///< 0 = root
  std::int64_t request = -1;
  [[nodiscard]] double ms() const { return ms_between(start, end); }
};

/// In-memory span store; written out once at exit.
class SpanLog {
 public:
  explicit SpanLog(bool enabled) : enabled_(enabled) {}
  [[nodiscard]] bool enabled() const { return enabled_; }
  std::int64_t next_id() { return next_.fetch_add(1, std::memory_order_relaxed) + 1; }
  void add(const Span& span) {
    const std::lock_guard<std::mutex> lock(mutex_);
    spans_.push_back(span);
  }
  [[nodiscard]] std::vector<Span> spans() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    return spans_;
  }

 private:
  bool enabled_;
  std::atomic<std::int64_t> next_{0};
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
};

/// One span around a call; a no-op when timing is off.
class Scope {
 public:
  Scope(SpanLog& log, const char* name, std::int64_t parent, std::int64_t request) : log_(log) {
    if (!log_.enabled()) return;
    span_.name = name;
    span_.id = log_.next_id();
    span_.parent = parent;
    span_.request = request;
    span_.start = Clock::now();
  }
  ~Scope() {
    if (!log_.enabled()) return;
    span_.end = Clock::now();
    log_.add(span_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;
  [[nodiscard]] std::int64_t id() const { return span_.id; }

 private:
  SpanLog& log_;
  Span span_;
};

double sum_ms(const std::vector<Span>& spans, std::string_view name) {
  double total = 0.0;
  for (const Span& s : spans) {
    if (name == s.name) total += s.ms();
  }
  return total;
}

// ---------------------------------------------------------------------------
// the program's own telemetry
// ---------------------------------------------------------------------------

/// Counters, histograms and span aggregates at one instant.
struct Mark {
  obs::MetricsSnapshot metrics;
  std::map<std::string, obs::SpanStats> spans;
};

Mark mark() {
  return {obs::MetricsRegistry::instance().snapshot(), obs::TraceStore::instance().stats()};
}

double counter_delta(const Mark& a, const Mark& b, const std::string& name) {
  const auto get = [&](const Mark& m) -> double {
    const auto it = m.metrics.counters.find(name);
    return it == m.metrics.counters.end() ? 0.0 : static_cast<double>(it->second);
  };
  return get(b) - get(a);
}

double histogram_sum_delta_ms(const Mark& a, const Mark& b, const std::string& name) {
  const auto get = [&](const Mark& m) {
    const auto it = m.metrics.histograms.find(name);
    return it == m.metrics.histograms.end() ? 0.0 : it->second.sum;
  };
  return (get(b) - get(a)) * 1e3;
}

double gauge(const std::string& name) {
  const auto snap = obs::MetricsRegistry::instance().snapshot();
  const auto it = snap.gauges.find(name);
  return it == snap.gauges.end() ? 0.0 : it->second;
}

double factor_builds_now() {
  const auto snap = obs::MetricsRegistry::instance().snapshot();
  const auto it = snap.counters.find("solver.factor_builds");
  return it == snap.counters.end() ? 0.0 : static_cast<double>(it->second);
}

bool leaf_is(const std::string& path, std::string_view leaf) {
  if (path.size() < leaf.size() || path.compare(path.size() - leaf.size(), leaf.size(), leaf) != 0) {
    return false;
  }
  return path.size() == leaf.size() || path[path.size() - leaf.size() - 1] == '/';
}

/// The program's own spans with leaf @p leaf: call count and inclusive or
/// self milliseconds, summed over every ancestry path.
struct LeafStats {
  double count = 0.0;
  double total_ms = 0.0;
  double self_ms = 0.0;
};

LeafStats leaf_delta(const Mark& a, const Mark& b, std::string_view leaf) {
  LeafStats out;
  for (const auto& [path, s] : b.spans) {
    if (!leaf_is(path, leaf)) continue;
    const auto it = a.spans.find(path);
    const obs::SpanStats base = it == a.spans.end() ? obs::SpanStats{} : it->second;
    out.count += static_cast<double>(s.count - base.count);
    out.total_ms += (s.total_s - base.total_s) * 1e3;
    out.self_ms += (s.self_s - base.self_s) * 1e3;
  }
  return out;
}

bool is_pcg(std::string_view rung) { return rung == "ic-pcg" || rung == "jacobi-pcg"; }

/// PCG vs direct solve time from the program's own solver span records:
/// a batched solve is the cached-factor path; scalar fallbacks nested in a
/// batch are already inside its duration, and a lazy factor build inside a
/// solve is factor time, not solve time.
std::pair<double, double> solve_split_ms(const std::vector<obs::SpanRecord>& events) {
  double pcg = 0.0;
  double direct = 0.0;
  for (const auto& e : events) {
    const double ms = static_cast<double>(e.duration_us) * 1e-3;
    if (e.name == "solver/factor_build" && e.path.find("solver/solve") != std::string::npos) {
      direct -= ms;
    } else if (e.name == "solver/solve_batch") {
      direct += ms;
    } else if (e.name == "solver/solve" && e.path.find("solver/solve_batch/") == std::string::npos) {
      std::string rung;
      for (const auto& [k, v] : e.attributes) {
        if (k == "rung") rung = v;
      }
      (is_pcg(rung) ? pcg : direct) += ms;
    }
  }
  return {pcg, direct};
}

const char* const kRungs[] = {"macromodel",    "sparse-direct", "ic-pcg",
                              "jacobi-pcg",    "banded-direct", "dense-cholesky"};

/// Metrics every workload reports from the program's counters over [a, b].
void counter_metrics(const Mark& a, const Mark& b, std::map<std::string, double>& m) {
  m["pdn.stacks_built"] = counter_delta(a, b, "pdn.stacks_built");
  m["irdrop.factor_builds"] = counter_delta(a, b, "solver.factor_builds");
  m["irdrop.precond_build_ms"] = histogram_sum_delta_ms(a, b, "solver.precond_build_seconds");
  m["irdrop.cg_iterations"] = counter_delta(a, b, "cg.iterations");
  m["irdrop.escalations"] = counter_delta(a, b, "ladder.escalations");
  m["irdrop.solve_failures"] = counter_delta(a, b, "solver.failures");
  m["irdrop.em_checks"] = counter_delta(a, b, "solver.em.checks");
  m["irdrop.montecarlo_samples"] = counter_delta(a, b, "montecarlo.samples");
  m["exec.regions"] = counter_delta(a, b, "exec.regions");
  for (const char* rung : kRungs) {
    m[std::string("irdrop.solves.") + rung] =
        counter_delta(a, b, std::string("solver.rung_attempts.") + rung) -
        counter_delta(a, b, std::string("solver.rung_failures.") + rung);
  }
  const double calls = leaf_delta(a, b, "irdrop/analyze").count +
                       leaf_delta(a, b, "irdrop/analyze_batch").count;
  m["irdrop.states_per_solve"] =
      calls > 0 ? counter_delta(a, b, "analysis.states_analyzed") / calls : 0.0;
  const double hits = counter_delta(a, b, "platform.design_cache_hits");
  const double misses = counter_delta(a, b, "platform.design_cache_misses");
  m["core.design_cache_hit_ratio"] = hits + misses > 0 ? hits / (hits + misses) : 0.0;
  m["opt.points_skipped"] = counter_delta(a, b, "cooptimizer.points_skipped");
}

/// Library-span busy times of the compute layers inside the program's calls.
void library_span_metrics(const Mark& a, const Mark& b, std::map<std::string, double>& m) {
  m["pdn.build_stack_ms"] = leaf_delta(a, b, "pdn/build_stack").total_ms;
  m["irdrop.em_check_ms"] = leaf_delta(a, b, "irdrop/em_check").total_ms;
  m["irdrop.lut_build_ms"] = leaf_delta(a, b, "lut/build").total_ms;
  m["irdrop.montecarlo_ms"] = leaf_delta(a, b, "montecarlo/run").total_ms;
  // A cached design's analyzer is built inside platform/build_design; its
  // self time (minus the stack build) is the matrix assembly and setup.
  m["irdrop.solver_setup_ms"] = leaf_delta(a, b, "platform/build_design").self_ms;
  const auto [pcg, direct] = solve_split_ms(obs::TraceStore::instance().events());
  m["irdrop.pcg_solve_ms"] = pcg;
  m["irdrop.direct_solve_ms"] = direct;
}

/// Factor-size gauges read right after each factor build the replay saw.
struct FactorGauges {
  double builds_seen = 0.0;
  double nnz = 0.0;
  double fill = 0.0;
  void observe_if_built(double builds_before) {
    if (factor_builds_now() <= builds_before) return;
    builds_seen += 1.0;
    nnz += gauge("solver.factor_nnz");
    fill += gauge("solver.factor_fill_ratio");
  }
  void report(std::map<std::string, double>& m) const {
    const double n = std::max(builds_seen, 1.0);
    m["linalg.factor_nnz"] = nnz / n;
    m["linalg.factor_fill_ratio"] = fill / n;
    // Computed, not measured: one forward and one backward sweep each read
    // every factor entry once (8-byte value + 8-byte row index).
    m["linalg.trisolve_bytes_per_rhs"] = 2.0 * 16.0 * nnz / n;
  }
};

/// Session::evaluate minus the compute calls it wraps: the program's own
/// top-level spans on the calling thread during the call.
template <typename F>
double evaluate_render_ms(F&& evaluate) {
  obs::begin_capture(1 << 16);
  const auto t0 = Clock::now();
  evaluate();
  const auto t1 = Clock::now();
  const obs::CaptureResult cap = obs::end_capture();
  double compute = 0.0;
  for (const auto& s : cap.spans) {
    if (s.depth == 0) compute += static_cast<double>(s.duration_us) * 1e-3;
  }
  return std::max(0.0, ms_between(t0, t1) - compute);
}

// ---------------------------------------------------------------------------
// statistics
// ---------------------------------------------------------------------------

double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto k = static_cast<std::size_t>(std::ceil(q * static_cast<double>(v.size())));
  return v[k == 0 ? 0 : k - 1];
}

/// Highest of p99.9/p99/p95/p90/p75/p50 with at least ten samples beyond it.
double tail(const std::vector<double>& v) {
  for (const double q : {0.999, 0.99, 0.95, 0.9, 0.75, 0.5}) {
    const auto k = static_cast<std::size_t>(std::ceil(q * static_cast<double>(v.size())));
    if (v.size() >= k + 10) return percentile(v, q);
  }
  return 0.0;
}

// ---------------------------------------------------------------------------
// inputs and outputs
// ---------------------------------------------------------------------------

std::vector<std::string> read_lines(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open " + path);
  std::vector<std::string> lines;
  for (std::string line; std::getline(in, line);) {
    if (!line.empty()) lines.push_back(line);
  }
  return lines;
}

void write_file(const std::string& path, const std::string& data) {
  std::ofstream out(path, std::ios::binary);
  out << data;
  if (!out) throw std::runtime_error("cannot write " + path);
}

std::string fmt_double(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", std::isfinite(v) ? v : 0.0);
  return buf;
}

/// One CLI invocation from invocations.jsonl, parsed like pdn3d's main().
struct Invocation {
  std::string command;
  core::BenchmarkKind kind{};
  api::EvaluateRequest req;
  double limit = 24.0;
};

Invocation parse_invocation(const std::string& line) {
  const obs::json::Value v = obs::json::parse(line);
  std::vector<std::string> argv;
  for (const auto& item : v.items()) argv.push_back(item.as_string());
  if (argv.size() < 2) throw std::runtime_error("invocation needs a command and benchmark");
  Invocation inv;
  inv.command = argv[0];
  if (!api::parse_benchmark(argv[1], &inv.kind).is_ok()) {
    throw std::runtime_error("bad benchmark " + argv[1]);
  }
  inv.req.benchmark = inv.kind;
  if (inv.command != "simulate" &&
      !api::parse_operation(inv.command == "analyze" ? "evaluate" : inv.command, &inv.req.op)
           .is_ok()) {
    throw std::runtime_error("bad command " + inv.command);
  }
  for (std::size_t i = 2; i < argv.size(); ++i) {
    const std::string& a = argv[i];
    const auto value = [&]() -> const std::string& {
      if (i + 1 >= argv.size()) throw std::runtime_error("missing value for " + a);
      return argv[++i];
    };
    if (a == "--state") {
      inv.req.state = value();
    } else if (a == "--activity") {
      inv.req.activity = std::strtod(value().c_str(), nullptr);
    } else if (a == "--samples") {
      inv.req.samples = std::strtoll(value().c_str(), nullptr, 10);
    } else if (a == "--alpha") {
      inv.req.alpha = std::strtod(value().c_str(), nullptr);
    } else if (a == "--limit") {
      inv.limit = std::strtod(value().c_str(), nullptr);
    } else if (a == "--threads" || a == "--policy") {
      value();  // the replay's thread count is global; the policy is distr
    } else if (a.rfind("--", 0) == 0) {
      const std::string key = a.substr(2);
      bool known = false;
      for (const api::OptionSpec& spec : api::design_option_specs()) {
        if (spec.key != key) continue;
        known = true;
        const core::Status st = spec.kind == api::OptionKind::kFlag
                                    ? api::set_option(&inv.req.design, key, true)
                                    : api::set_option(&inv.req.design, key,
                                                      std::string_view(value()));
        if (!st.is_ok()) throw std::runtime_error(st.message());
      }
      if (!known) throw std::runtime_error("unknown option " + a);
    } else {
      throw std::runtime_error("unexpected argument " + a);
    }
  }
  return inv;
}

irdrop::PowerBinding power_binding(const core::Benchmark& b) {
  irdrop::PowerBinding pb;
  pb.dram = b.dram_power;
  pb.logic = b.logic_power;
  pb.dram_scale = b.power_scale;
  pb.logic_active = true;
  return pb;
}

struct Replay {
  SpanLog log;
  std::string out_dir;
  int threads = 4;
  int workers = 3;
  int window = 8;
  int segments = 1;  ///< serve-mix: stream segments, each on a fresh service
  std::map<std::string, double> metrics;
  std::map<std::string, double> notes;
  std::vector<double> op_ms;  ///< cli-oneshot: in-process time of each invocation
  std::uint64_t failures = 0;
  double replay_wall_s = 0.0;

  explicit Replay(bool timing) : log(timing) {}
  void write_op(std::size_t i, const std::string& output) const {
    write_file(out_dir + "/op" + std::to_string(i) + ".out", output);
  }
};

// ---------------------------------------------------------------------------
// cooptimize: CoOptimizer driven through a benchmark-owned timing evaluator
// ---------------------------------------------------------------------------

struct PointValue {
  std::size_t request = 0;
  pdn::PdnConfig config;
  double ir_mv = 0.0;
};

/// State shared by the root evaluator and its forks.
struct SweepState {
  SpanLog* log = nullptr;
  std::atomic<std::int64_t> parent{0};  ///< current sweep / optimize span id
  std::int64_t request = -1;
  std::size_t request_index = 0;
  std::int64_t fit_span = 0;
  std::mutex mutex;  ///< guards sweeps and values
  std::vector<Span> sweeps;  ///< start + id; end filled from the points later
  std::vector<PointValue> values;
};

/// Platform::measure_ir_mv's one-shot steps, each timed, with the point's
/// parent set explicitly (it runs on a pool worker).
class TimingEvaluator final : public opt::Evaluator {
 public:
  TimingEvaluator(const core::Benchmark& bench, SweepState& state)
      : bench_(bench), state_(state) {}

  double measure(const pdn::PdnConfig& config) override {
    SpanLog& log = *state_.log;
    const std::int64_t req = state_.request;
    const Scope point(log, "opt.point", state_.parent.load(std::memory_order_relaxed), req);
    pdn::BuiltStack built;
    {
      const Scope s(log, "pdn.build_stack", point.id(), req);
      built = pdn::build_stack(bench_.stack, config);
    }
    std::optional<irdrop::IrAnalyzer> analyzer;
    {
      const Scope s(log, "irdrop.solver_setup", point.id(), req);
      analyzer.emplace(built.model, bench_.stack.dram_fp, bench_.stack.logic_fp,
                       power_binding(bench_));
    }
    const auto st = power::parse_memory_state(bench_.default_state, bench_.stack.dram_spec,
                                              bench_.default_io_activity);
    const auto t0 = log.enabled() ? Clock::now() : Clock::time_point{};
    const irdrop::IrResult r = analyzer->analyze(st);
    if (log.enabled()) {
      Span s;
      s.name = is_pcg(irdrop::to_string(r.solver_kind)) ? "irdrop.pcg_solve" : "irdrop.direct_solve";
      s.start = t0;
      s.end = Clock::now();
      s.id = log.next_id();
      s.parent = point.id();
      s.request = req;
      log.add(s);
      const std::lock_guard<std::mutex> lock(state_.mutex);
      state_.values.push_back({state_.request_index, config, r.dram_max_mv});
    }
    return r.dram_max_mv;
  }

  void hint_sweep(const pdn::PdnConfig&, std::size_t) override {
    if (!state_.log->enabled()) return;
    Span sweep;
    sweep.name = "opt.sweep";
    sweep.id = state_.log->next_id();
    sweep.parent = state_.fit_span;
    sweep.request = state_.request;
    sweep.start = Clock::now();
    {
      const std::lock_guard<std::mutex> lock(state_.mutex);
      state_.sweeps.push_back(sweep);
    }
    state_.parent.store(sweep.id, std::memory_order_relaxed);
  }

  [[nodiscard]] std::unique_ptr<opt::Evaluator> fork() const override {
    return std::make_unique<TimingEvaluator>(bench_, state_);
  }

 private:
  const core::Benchmark& bench_;
  SweepState& state_;
};

/// render_cooptimize's text for a request without EM fields.
std::string render_cooptimize(double alpha, const opt::Optimum& best, const opt::CoOptimizer& o) {
  std::ostringstream os;
  os << "sampling the design space with the R-Mesh...\n";
  os << "alpha " << alpha << " optimum:\n";
  os << "  design  : " << best.config.summary() << "\n";
  os << "  model IR: " << util::fmt_fixed(best.predicted_ir_mv, 2) << " mV\n";
  os << "  R-Mesh  : " << util::fmt_fixed(best.measured_ir_mv, 2) << " mV\n";
  os << "  cost    : " << util::fmt_fixed(best.cost, 3) << "\n";
  os << "  fit     : worst RMSE " << util::fmt_fixed(o.worst_rmse(), 3) << " mV, R^2 "
     << util::fmt_fixed(o.worst_r_squared(), 4) << "\n";
  for (const auto& s : o.skipped_points()) {
    const bool constrained = s.kind == opt::SkippedPoint::Kind::kConstraint;
    os << (constrained ? "  excluded: " : "  skipped : ") << s.config.summary() << " -- "
       << s.reason << "\n";
  }
  return os.str();
}

void replay_cooptimize(Replay& rp, const std::vector<std::string>& lines) {
  SweepState state;
  state.log = &rp.log;
  std::vector<std::unique_ptr<core::Platform>> platforms;
  const Mark before = mark();
  const auto t0 = Clock::now();
  for (std::size_t i = 0; i < lines.size(); ++i) {
    const Invocation inv = parse_invocation(lines[i]);
    if (inv.req.op != api::Operation::kCoOptimize || inv.req.design.em_enabled()) {
      throw std::runtime_error("cooptimize replay takes plain cooptimize invocations");
    }
    const auto req = static_cast<std::int64_t>(i);
    const Scope request(rp.log, "cooptimize.request", 0, req);
    {
      const Scope s(rp.log, "core.platform_build", request.id(), req);
      platforms.push_back(std::make_unique<core::Platform>(core::make_benchmark(inv.kind)));
    }
    const core::Benchmark& bench = platforms.back()->benchmark();
    state.request = req;
    state.request_index = i;
    opt::CoOptimizer o(bench.design_space, std::make_unique<TimingEvaluator>(bench, state),
                       rp.threads);
    {
      const Scope s(rp.log, "opt.fit_models", request.id(), req);
      state.fit_span = s.id();
      state.parent = s.id();
      (void)o.fit_models();
    }
    opt::Optimum best;
    {
      const Scope s(rp.log, "opt.optimize", request.id(), req);
      state.parent = s.id();
      best = o.optimize(inv.req.alpha);
    }
    rp.write_op(i, render_cooptimize(inv.req.alpha, best, o));
  }
  rp.replay_wall_s = ms_between(t0, Clock::now()) * 1e-3;
  const Mark after = mark();
  if (!rp.log.enabled()) return;

  // Every measured value must equal Platform::measure_ir_mv's, bit for bit.
  {
    exec::ThreadPool pool(static_cast<std::size_t>(rp.threads));
    std::atomic<std::uint64_t> mismatches{0};
    pool.parallel_for(state.values.size(), [&](std::size_t k) {
      const PointValue& pv = state.values[k];
      const double ref = platforms[pv.request]->measure_ir_mv(pv.config);
      if (std::bit_cast<std::uint64_t>(ref) != std::bit_cast<std::uint64_t>(pv.ir_mv)) {
        mismatches.fetch_add(1, std::memory_order_relaxed);
      }
    });
    rp.failures += mismatches.load();
    rp.notes["points_checked_bitwise"] = static_cast<double>(state.values.size());
  }

  auto& m = rp.metrics;
  counter_metrics(before, after, m);
  const std::vector<Span> spans = rp.log.spans();
  std::map<std::int64_t, Clock::time_point> sweep_end;
  std::vector<double> point_ms;
  double busy = 0.0;
  double optimize_points = 0.0;
  std::map<std::int64_t, bool> is_optimize;
  for (const Span& s : spans) {
    if (std::string_view(s.name) == "opt.optimize") is_optimize[s.id] = true;
  }
  for (const Span& s : spans) {
    if (std::string_view(s.name) != "opt.point") continue;
    point_ms.push_back(s.ms());
    busy += s.ms();
    if (is_optimize.count(s.parent) > 0) {
      optimize_points += s.ms();
    } else {
      auto& end = sweep_end[s.parent];
      end = std::max(end, s.end);
    }
  }
  double sweep_wall = 0.0;
  for (const Span& sw : state.sweeps) {
    const auto it = sweep_end.find(sw.id);
    if (it != sweep_end.end()) sweep_wall += ms_between(sw.start, it->second);
  }
  const double sweep_busy = busy - optimize_points;
  const double build = sum_ms(spans, "pdn.build_stack");
  const double setup = sum_ms(spans, "irdrop.solver_setup");
  const double pcg = sum_ms(spans, "irdrop.pcg_solve");
  const double direct = sum_ms(spans, "irdrop.direct_solve");
  m["pdn.build_stack_ms"] = build;
  m["irdrop.solver_setup_ms"] = setup - m["irdrop.precond_build_ms"];
  m["irdrop.pcg_solve_ms"] = pcg;
  m["irdrop.direct_solve_ms"] = direct;
  m["core.platform_build_ms"] = sum_ms(spans, "core.platform_build");
  m["opt.points_measured"] = static_cast<double>(point_ms.size());
  m["opt.point_ms_p50"] = percentile(point_ms, 0.5);
  m["opt.point_ms_p99"] = percentile(point_ms, 0.99);
  m["opt.sweep_busy_ms"] = busy;
  m["opt.point_unattributed_ms"] = busy - build - setup - pcg - direct;
  m["opt.fit_models_ms"] = sum_ms(spans, "opt.fit_models") - sweep_wall;
  m["opt.optimize_ms"] = sum_ms(spans, "opt.optimize") - optimize_points;
  m["exec.sweep_utilization"] =
      sweep_wall > 0 ? sweep_busy / (static_cast<double>(rp.threads) * sweep_wall) : 0.0;
  rp.notes["point_spans_with_explicit_parent"] = static_cast<double>(point_ms.size());
  // The acceptance identity: the layers' self times plus the remainder
  // reproduce the sweep's busy time.
  double layers = m["opt.point_unattributed_ms"];
  for (const char* k : {"pdn.build_stack_ms", "irdrop.solver_setup_ms", "irdrop.precond_build_ms",
                        "irdrop.pcg_solve_ms", "irdrop.direct_solve_ms"}) {
    layers += m[k];
  }
  rp.notes["layers_plus_unattributed_ms"] = layers;
}

// ---------------------------------------------------------------------------
// cli-oneshot: one fresh Session per invocation, like one pdn3d process
// ---------------------------------------------------------------------------

std::string render_simulate(const pdn::PdnConfig& cfg, double limit, const memctrl::SimResult& r) {
  std::ostringstream os;
  os << "design    : " << cfg.summary() << "\n";
  os << "policy    : distr @ " << util::fmt_fixed(limit, 1) << " mV\n";
  if (!r.feasible) {
    os << "INFEASIBLE: the IR constraint admits no memory state\n";
    return os.str();
  }
  os << "runtime   : " << util::fmt_fixed(r.runtime_us, 2) << " us (" << r.cycles
     << " cycles)\n";
  os << "bandwidth : " << util::fmt_fixed(r.bandwidth_reads_per_clk, 3) << " reads/clk\n";
  os << "max IR    : " << util::fmt_fixed(r.max_ir_mv, 2) << " mV\n";
  os << "row hits  : " << util::fmt_percent(r.row_hit_fraction, 1) << ", avg active banks "
     << util::fmt_fixed(r.avg_active_banks, 2) << "\n";
  return os.str();
}

void replay_cli(Replay& rp, const std::vector<std::string>& lines) {
  FactorGauges factors;
  double render = 0.0;
  double memctrl_ms = 0.0;
  const Mark before = mark();
  const auto t0 = Clock::now();
  for (std::size_t i = 0; i < lines.size(); ++i) {
    const Invocation inv = parse_invocation(lines[i]);
    const auto r0 = Clock::now();
    const auto req = static_cast<std::int64_t>(i);
    const Scope op(rp.log, "cli.op", 0, req);
    api::Session session;
    const core::Platform* p = nullptr;
    {
      const Scope s(rp.log, "core.platform_build", op.id(), req);
      session.install(inv.kind, core::make_benchmark(inv.kind));
      p = &session.platform(inv.kind);
    }
    const auto cfg = inv.req.design.apply(p->benchmark().baseline);
    const irdrop::IrAnalyzer* analyzer = nullptr;
    {
      const Scope s(rp.log, "core.design", op.id(), req);
      analyzer = &p->analyzer(cfg);
    }
    const double builds_before = rp.log.enabled() ? factor_builds_now() : 0.0;
    {
      const Scope s(rp.log, "irdrop.factor_build", op.id(), req);
      (void)analyzer->solver().sparse_factor_available();
    }
    if (rp.log.enabled()) factors.observe_if_built(builds_before);
    std::string output;
    if (inv.command == "simulate") {
      const irdrop::IrLut* lut = nullptr;
      {
        const Scope s(rp.log, "irdrop.lut", op.id(), req);
        lut = &p->lut(cfg);
      }
      memctrl::PolicyConfig policy =
          memctrl::ir_aware_policy(inv.limit, memctrl::SchedulingKind::kDistR);
      policy.lut = lut;
      auto requests = memctrl::generate_workload(p->benchmark().workload);
      memctrl::MemoryController controller(p->benchmark().sim, policy);
      const auto m0 = Clock::now();
      const memctrl::SimResult r = controller.run(std::move(requests));
      memctrl_ms += ms_between(m0, Clock::now());
      output = render_simulate(cfg, inv.limit, r);
    } else {
      const Scope s(rp.log, "api.evaluate", op.id(), req);
      api::EvaluateResult result;
      const auto evaluate = [&] { result = session.evaluate(inv.req); };
      if (rp.log.enabled()) {
        render += evaluate_render_ms(evaluate);
      } else {
        evaluate();
      }
      if (!result.ok()) ++rp.failures;
      output = result.output;
    }
    rp.write_op(i, output);
    rp.op_ms.push_back(ms_between(r0, Clock::now()));
  }
  rp.replay_wall_s = ms_between(t0, Clock::now()) * 1e-3;
  if (!rp.log.enabled()) return;
  const Mark after = mark();
  auto& m = rp.metrics;
  counter_metrics(before, after, m);
  library_span_metrics(before, after, m);
  const std::vector<Span> spans = rp.log.spans();
  m["core.platform_build_ms"] = sum_ms(spans, "core.platform_build");
  m["irdrop.factor_build_ms"] = sum_ms(spans, "irdrop.factor_build");
  m["memctrl.run_ms"] = memctrl_ms;
  m["api.render_ms"] = render;
  factors.report(m);
}

// ---------------------------------------------------------------------------
// serve-mix: in-process BatchServices, one per segment, fed the same stream
// ---------------------------------------------------------------------------

/// Responses delivered by the service's sink, with arrival times.
struct Inbox {
  std::mutex mutex;
  std::condition_variable cv;
  std::vector<std::pair<Clock::time_point, std::string>> items;
};

std::string request_kind(const obs::json::Value& req) {
  const std::string op = req.find("op")->as_string();
  if (op != "evaluate") return op;
  if (const obs::json::Value* design = req.find("design")) {
    for (const auto& [key, value] : design->members()) {
      if (key.rfind("em", 0) == 0) return "evaluate-em";
    }
  }
  return op;
}

void replay_serve(Replay& rp, const std::vector<std::string>& warm,
                  const std::vector<std::string>& stream) {
  service::ServiceConfig cfg;
  cfg.workers = static_cast<std::size_t>(rp.workers);
  Inbox inbox;
  const service::ResponseSink sink = [&inbox](const std::string& line) {
    const auto t = Clock::now();
    const std::lock_guard<std::mutex> lock(inbox.mutex);
    inbox.items.emplace_back(t, line);
    inbox.cv.notify_one();
  };
  const auto take = [&inbox] {
    std::unique_lock<std::mutex> lock(inbox.mutex);
    inbox.cv.wait(lock, [&] { return !inbox.items.empty(); });
    std::vector<std::pair<Clock::time_point, std::string>> out;
    out.swap(inbox.items);
    return out;
  };
  const auto check_ok = [&rp](const std::string& line) {
    if (line.find("\"ok\":true") == std::string::npos) ++rp.failures;
  };

  const std::size_t n = stream.size();
  const std::size_t per_segment = n / static_cast<std::size_t>(rp.segments);
  std::vector<std::pair<Clock::time_point, std::string>> received;
  received.reserve(n);
  FactorGauges factors;
  double admit = 0.0;
  double phase_ms = 0.0;
  std::unique_ptr<api::Session> session;
  const Mark before = mark();
  const auto t0 = Clock::now();
  // Each segment meets a fresh session and service, like the end-to-end
  // run's fresh `pdn3d serve` process per segment.
  for (int k = 0; k < rp.segments; ++k) {
    session = std::make_unique<api::Session>();
    service::BatchService svc(*session, cfg);
    svc.start();
    {
      const Scope setup(rp.log, "serve.setup", 0, -1);
      for (const char* token : {"off-chip", "on-chip", "wide-io", "hmc"}) {
        core::BenchmarkKind kind{};
        (void)api::parse_benchmark(token, &kind);
        const Scope s(rp.log, "core.platform_build", setup.id(), -1);
        (void)session->platform(kind);
      }
      // Evaluates one at a time (stack build + factor), then every LUT at once.
      std::size_t luts = 0;
      for (const std::string& line : warm) {
        if (request_kind(obs::json::parse(line)) == "lut") {
          svc.submit_line(line, sink);
          ++luts;
          continue;
        }
        const double builds_before = rp.log.enabled() ? factor_builds_now() : 0.0;
        svc.submit_line(line, sink);
        check_ok(take().front().second);
        if (rp.log.enabled()) factors.observe_if_built(builds_before);
      }
      for (std::size_t got = 0; got < luts;) {
        for (const auto& item : take()) {
          check_ok(item.second);
          ++got;
        }
      }
    }
    const std::size_t first = static_cast<std::size_t>(k) * per_segment;
    const std::size_t last = first + per_segment;
    std::size_t next = first;
    const auto submit = [&] {
      if (rp.log.enabled()) {
        const auto a = Clock::now();
        svc.submit_line(stream[next], sink);
        admit += ms_between(a, Clock::now());
      } else {
        svc.submit_line(stream[next], sink);
      }
      ++next;
    };
    const auto p0 = Clock::now();
    while (next < std::min(first + static_cast<std::size_t>(rp.window), last)) submit();
    while (received.size() < last) {
      for (auto& item : take()) {
        received.push_back(std::move(item));
        if (next < last) submit();
      }
    }
    phase_ms += ms_between(p0, Clock::now());
    svc.drain();
  }
  rp.replay_wall_s = ms_between(t0, Clock::now()) * 1e-3;
  const Mark after = mark();

  std::vector<std::string> outputs(n);
  std::vector<bool> seen(n, false);
  std::map<std::string, std::vector<double>> queue_ms;
  std::map<std::string, std::vector<double>> run_ms;
  double run_total = 0.0;
  double hits = 0.0;
  double rejected = 0.0;
  std::vector<std::string> kinds(n);
  for (std::size_t i = 0; i < n; ++i) kinds[i] = request_kind(obs::json::parse(stream[i]));
  for (const auto& [t, line] : received) {
    const obs::json::Value resp = obs::json::parse(line);
    const auto id = static_cast<std::size_t>(resp.find("id")->as_number());
    if (id >= n || seen[id]) throw std::runtime_error("unexpected response id");
    seen[id] = true;
    const obs::json::Value* ok = resp.find("ok");
    if (ok == nullptr || !ok->as_bool()) {
      rejected += 1.0;
      ++rp.failures;
      continue;
    }
    outputs[id] = resp.find("output")->as_string();
    const double q = resp.find("queue_ms")->as_number();
    const double r = resp.find("run_ms")->as_number();
    queue_ms[kinds[id]].push_back(q);
    run_ms[kinds[id]].push_back(r);
    run_total += r;
    if (const obs::json::Value* c = resp.find("cache"); c != nullptr && c->as_string() == "hit") {
      hits += 1.0;
    }
  }
  for (std::size_t i = 0; i < n; ++i) rp.write_op(i, outputs[i]);
  if (!rp.log.enabled()) return;

  auto& m = rp.metrics;
  counter_metrics(before, after, m);
  library_span_metrics(before, after, m);
  factors.report(m);
  const std::vector<Span> spans = rp.log.spans();
  m["core.platform_build_ms"] = sum_ms(spans, "core.platform_build");
  m["irdrop.factor_build_ms"] = histogram_sum_delta_ms(before, after, "solver.factor_build_seconds");
  m["service.admit_ms"] = admit;
  for (const char* kind : {"evaluate", "evaluate-em", "em-check", "montecarlo", "lut"}) {
    const std::string base = std::string("service.") + kind;
    m[base + ".queue_wait_ms_p50"] = percentile(queue_ms[kind], 0.5);
    m[base + ".queue_wait_ms_tail"] = tail(queue_ms[kind]);
    m[base + ".run_ms_p50"] = percentile(run_ms[kind], 0.5);
    m[base + ".run_ms_tail"] = tail(run_ms[kind]);
  }
  const double dn = static_cast<double>(n);
  m["service.cache_hit_ratio"] = hits / dn;
  {
    std::map<std::string, bool> identities;
    double repeats = 0.0;
    for (const std::string& line : stream) {
      obs::json::Value v = obs::json::parse(line);
      obs::json::Value key = obs::json::Value::object();
      for (const auto& [k, val] : v.members()) {
        if (k != "id") key.set(k, val);
      }
      if (!identities.emplace(key.dump(), true).second) repeats += 1.0;
    }
    m["service.repeat_share"] = repeats / dn;
  }
  const double groups = counter_delta(before, after, "service.coalesce.groups");
  const double members = counter_delta(before, after, "service.coalesce.requests");
  m["service.coalesced_share"] = members / dn;
  m["service.coalesce_group_size"] = groups > 0 ? members / groups : 0.0;
  m["service.worker_busy_ratio"] = run_total / (static_cast<double>(rp.workers) * phase_ms);
  m["service.rejected"] = rejected;

  // Session::evaluate on the last segment's warm platforms for the stream's
  // first plain evaluates, minus the compute calls it wraps.
  double render = 0.0;
  std::size_t probes = 0;
  for (std::size_t i = 0; i < n && probes < 200; ++i) {
    if (kinds[i] != "evaluate") continue;
    service::Request req;
    if (!service::parse_request(stream[i], &req).is_ok()) continue;
    render += evaluate_render_ms([&] { (void)session->evaluate(req.eval); });
    ++probes;
  }
  m["api.render_ms"] = render;
  rp.notes["render_probes"] = static_cast<double>(probes);
}

void write_result(const Replay& rp) {
  std::ostringstream os;
  os << "{\"failures\":" << rp.failures << ",\"replay_wall_s\":" << fmt_double(rp.replay_wall_s)
     << ",\"metrics\":{";
  bool first = true;
  for (const auto& [k, v] : rp.metrics) {
    os << (first ? "" : ",") << "\"" << k << "\":" << fmt_double(v);
    first = false;
  }
  os << "},\"notes\":{";
  first = true;
  for (const auto& [k, v] : rp.notes) {
    os << (first ? "" : ",") << "\"" << k << "\":" << fmt_double(v);
    first = false;
  }
  os << "},\"op_ms\":[";
  for (std::size_t i = 0; i < rp.op_ms.size(); ++i) {
    os << (i ? "," : "") << fmt_double(rp.op_ms[i]);
  }
  os << "]}\n";
  write_file(rp.out_dir + "/result.json", os.str());
  if (!rp.log.enabled()) return;
  std::ostringstream spans;
  const auto spans_vec = rp.log.spans();
  const Clock::time_point epoch =
      spans_vec.empty() ? Clock::time_point{}
                        : std::min_element(spans_vec.begin(), spans_vec.end(),
                                           [](const Span& a, const Span& b) {
                                             return a.start < b.start;
                                           })->start;
  for (const Span& s : spans_vec) {
    spans << "{\"name\":\"" << s.name << "\",\"id\":" << s.id << ",\"parent\":" << s.parent
          << ",\"request\":" << s.request << ",\"start_ms\":" << fmt_double(ms_between(epoch, s.start))
          << ",\"end_ms\":" << fmt_double(ms_between(epoch, s.end)) << "}\n";
  }
  write_file(rp.out_dir + "/spans.jsonl", spans.str());
}

int run(int argc, char** argv) {
  std::map<std::string, std::string> args;
  for (int i = 1; i + 1 < argc; i += 2) args[argv[i]] = argv[i + 1];
  for (const char* need : {"--workload", "--input", "--out", "--timing"}) {
    if (args.count(need) == 0) {
      std::cerr << "usage: e2ebench_trace --workload W --input DIR --out DIR --timing 0|1 "
                   "[--threads N] [--workers N] [--window N] [--segments N]\n";
      return 1;
    }
  }
  Replay rp(args["--timing"] == "1");
  rp.out_dir = args["--out"];
  if (args.count("--threads")) rp.threads = std::stoi(args["--threads"]);
  if (args.count("--workers")) rp.workers = std::stoi(args["--workers"]);
  if (args.count("--window")) rp.window = std::stoi(args["--window"]);
  if (args.count("--segments")) rp.segments = std::stoi(args["--segments"]);
  exec::set_default_thread_count(static_cast<std::size_t>(rp.threads));
  // Room for every span record of a run, so the solve split sees them all.
  obs::TraceStore::instance().set_event_capacity(1u << 20);

  const std::string& workload = args["--workload"];
  const std::string& in = args["--input"];
  if (workload == "cooptimize") {
    replay_cooptimize(rp, read_lines(in + "/invocations.jsonl"));
  } else if (workload == "cli-oneshot") {
    replay_cli(rp, read_lines(in + "/invocations.jsonl"));
  } else if (workload == "serve-mix") {
    replay_serve(rp, read_lines(in + "/warm.ndjson"), read_lines(in + "/stream.ndjson"));
  } else {
    std::cerr << "unknown workload " << workload << "\n";
    return 1;
  }
  write_result(rp);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 2;
  }
}
