// pdn3d command-line driver.
//
//   pdn3d info      <benchmark>
//   pdn3d analyze   <benchmark> [--state S] [--activity A] [design flags]
//   pdn3d lut       <benchmark> [design flags]
//   pdn3d simulate  <benchmark> [--policy standard|fcfs|distr] [--limit mV] [design flags]
//   pdn3d cooptimize <benchmark> [--alpha A]
//   pdn3d validate  <benchmark> [design flags]
//   pdn3d em-check  <benchmark> [--state S] [--activity A] [design flags]
//   pdn3d export    <benchmark> --out DIR [--state S] [design flags]
//   pdn3d serve     [--socket PATH] [--queue N] [--deadline MS] [--threads N]
//
// Benchmarks: off-chip | on-chip | wide-io | hmc
// Design flags: --m2 PCT --m3 PCT --tc N --tl C|E|D --bd f2b|f2f
//               --rdl none|bottom|all --wb --dedicated --no-align --scale X
//               --em --em-wire-limit J --em-tsv-limit J --em-temp C
//
// The pure-evaluation commands (analyze, lut, montecarlo, cooptimize,
// validate, em-check) are thin shells over the pdn3d::api facade: they build an
// EvaluateRequest and print EvaluateResult::output verbatim, so their output
// is byte-identical to the same request served by `pdn3d serve`
// (docs/API.md). The streaming/simulation commands keep their own CLI paths.
//
// Every option goes through a typed parser with a range check; a malformed
// value (e.g. `--m2 abc`) is a usage error, exit code 1.
//
// Exit codes (see docs/ROBUSTNESS.md):
//   0  success
//   1  usage error (unknown command/benchmark/option, malformed option value)
//   2  input error (unreadable/corrupt tech file or trace, bad state string)
//   3  numerical failure (mesh validation errors, solver ladder exhausted)
//   4  infeasible (simulate: the IR constraint admits no memory state)

#include <algorithm>
#include <chrono>
#include <csignal>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "api/api.hpp"
#include "api/options.hpp"
#include "core/platform.hpp"
#include "core/status.hpp"
#include "cost/cost_model.hpp"
#include "exec/thread_pool.hpp"
#include "faults/faults.hpp"
#include "memctrl/trace.hpp"
#include "obs/event_log.hpp"
#include "obs/report.hpp"
#include "obs/trace.hpp"
#include "service/server.hpp"
#include "util/log.hpp"
#include "tech/tech_file.hpp"
#include "transient/decap.hpp"
#include "transient/simulator.hpp"
#include "io/floorplan_writer.hpp"
#include "io/ir_map_writer.hpp"
#include "io/spice_writer.hpp"
#include "util/string_util.hpp"
#include "util/table.hpp"

namespace {

using namespace pdn3d;

// Structured exit codes, documented in docs/ROBUSTNESS.md.
constexpr int kExitOk = 0;
constexpr int kExitUsage = 1;
constexpr int kExitInputError = 2;
constexpr int kExitNumerical = 3;
constexpr int kExitInfeasible = 4;

[[noreturn]] void usage(const std::string& error = "") {
  if (!error.empty()) std::cerr << "error: " << error << "\n\n";
  std::cerr <<
      "usage: pdn3d <command> <benchmark> [options]\n"
      "       pdn3d serve [options]\n"
      "\n"
      "commands:\n"
      "  info        print the benchmark's configuration and baseline design\n"
      "  analyze     IR-drop analysis of one memory state\n"
      "  lut         print the memory-state IR look-up table\n"
      "  simulate    run the memory-controller simulation\n"
      "  cooptimize  co-optimize design+packaging at an alpha\n"
      "  validate    numerical-health check of the R-Mesh (exit 0 = healthy)\n"
      "  em-check    branch currents, EM current-density limits, Black MTTF\n"
      "  profile     run analyze/lut/simulate/cooptimize and print hot spans\n"
      "  report      per-block hotspot report for one die\n"
      "  montecarlo  IR-drop distribution over random memory states\n"
      "  droop       transient (RC) droop of a memory-state step\n"
      "  export      write SPICE deck, IR maps, and floorplans to a directory\n"
      "  serve       batch evaluation service: NDJSON requests on stdin (or a\n"
      "              Unix socket), one JSON response per line (docs/SERVICE.md)\n"
      "\n"
      "exit codes: 0 ok | 1 usage | 2 input error | 3 numerical failure |\n"
      "            4 infeasible constraint (simulate)\n"
      "\n"
      "benchmarks: off-chip | on-chip | wide-io | hmc\n"
      "\n"
      "options:\n"
      "  --state S        memory state, e.g. 0-0-0-2 or 0-0-2b-2a\n"
      "  --activity A     I/O activity in [0,1] (default: 1/active dies)\n"
      "  --policy P       standard | fcfs | distr   (simulate)\n"
      "  --limit MV       IR constraint in mV        (simulate, default 24)\n"
      "  --alpha A        objective exponent in [0,1] (cooptimize, default 0.3)\n"
      "  --out DIR        output directory            (export)\n"
      "  --tech FILE      load a technology file (any command; serve: with --bench)\n"
      "  --trace FILE     replay a request trace      (simulate)\n"
      "  --samples N      Monte Carlo samples          (montecarlo, default 200)\n"
      "  --checkpoint F   crash-safe sweep checkpoint file (montecarlo, lut,\n"
      "                   cooptimize); written atomically as the sweep runs\n"
      "  --resume         load completed entries from --checkpoint before the\n"
      "                   sweep; resumed output is bitwise identical\n"
      "  --die N          die to report (1-based)      (report, default top die)\n"
      "  --decap NF       per-tap decap in nF          (droop, default 2)\n"
      "  --top N          hot spans to print           (profile, default 15)\n"
      "  --threads N      worker threads for parallel sweeps (montecarlo, lut,\n"
      "                   cooptimize, profile; serve: worker count; also the\n"
      "                   PDN3D_THREADS env var; default: hardware concurrency).\n"
      "                   Results are identical at any thread count.\n"
      "  --socket PATH    serve: also listen on a Unix-domain socket\n"
      "  --queue N        serve: admission queue capacity (default 64)\n"
      "  --deadline MS    serve: default per-request deadline (0 = none)\n"
      "  --max-cost N     serve: shed load (typed `overloaded` error) once the\n"
      "                   estimated cost of admitted-but-unfinished requests\n"
      "                   would exceed N (0 = unlimited)\n"
      "  --watchdog MS    serve: cancel an evaluation running longer than MS and\n"
      "                   answer a typed `timeout` error (0 = off)\n"
      "  --slow-ms MS     serve: log a `serve.slow_request` event with the\n"
      "                   request's span tree when an evaluation (coalesced\n"
      "                   members included) runs longer than MS (0 = off)\n"
      "  --cache-entries N serve: result-cache capacity in entries, keyed by the\n"
      "                   canonical request fingerprint (default 256, 0 = off)\n"
      "  --bench B        serve: benchmark the --tech override applies to\n"
      "  --report FILE    write a machine-readable JSON run report (any command;\n"
      "                   see docs/OBSERVABILITY.md for the schema)\n"
      "  --verbose        log at debug level (also: PDN3D_LOG_LEVEL env var)\n"
      "  --quiet          log errors only\n"
      "  --log-format F   stderr log format: text | json (NDJSON events; also\n"
      "                   the PDN3D_LOG_FORMAT env var; default text)\n"
      "  --m2 PCT --m3 PCT --tc N --tl C|E|D --bd f2b|f2f\n"
      "  --rdl none|bottom|all --wb --dedicated --no-align --scale X\n"
      "  --em             enforce EM limits (violations -> exit 3; any command\n"
      "                   through the facade, also the cooptimize constraint)\n"
      "  --em-wire-limit J --em-tsv-limit J  EM current-density limits (MA/cm^2)\n"
      "  --em-temp C      junction temperature for Black's MTTF (default 85)\n";
  std::exit(kExitUsage);
}

struct Args {
  std::string command;
  std::string benchmark;
  std::map<std::string, std::string> options;  // --key value
  std::vector<std::string> flags;              // --key (no value)

  [[nodiscard]] bool has_flag(const std::string& f) const {
    for (const auto& x : flags) {
      if (x == f) return true;
    }
    return options.count(f) > 0;
  }

  [[nodiscard]] std::optional<std::string> get(const std::string& key) const {
    const auto it = options.find(key);
    if (it == options.end()) return std::nullopt;
    return it->second;
  }
};

Args parse_args(int argc, char** argv) {
  if (argc < 2) usage();
  Args a;
  a.command = argv[1];
  int first_opt = 3;
  if (a.command == "serve") {
    first_opt = 2;  // serve takes options only, no benchmark positional
  } else if (argc < 3) {
    usage();
  } else {
    a.benchmark = argv[2];
  }
  std::vector<std::string> value_opts = {
      "--state",   "--activity", "--policy",     "--limit",    "--alpha",   "--out",
      "--tech",    "--trace",    "--samples",    "--decap",    "--die",     "--report",
      "--top",     "--threads",  "--socket",     "--queue",    "--deadline", "--bench",
      "--checkpoint", "--max-cost", "--watchdog", "--slow-ms", "--log-format",
      "--cache-entries"};
  std::vector<std::string> known_flags = {"--verbose", "--quiet", "--test-ops", "--resume"};
  // The design knobs come from the option table: flag keys are flags, every
  // other kind takes a value.
  for (const api::OptionSpec& spec : api::design_option_specs()) {
    (spec.kind == api::OptionKind::kFlag ? known_flags : value_opts)
        .push_back("--" + std::string(spec.key));
  }
  for (int i = first_opt; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool takes_value =
        std::find(value_opts.begin(), value_opts.end(), arg) != value_opts.end();
    if (takes_value) {
      if (i + 1 >= argc) usage("missing value for " + arg);
      a.options[arg] = argv[++i];
    } else if (std::find(known_flags.begin(), known_flags.end(), arg) != known_flags.end()) {
      a.flags.push_back(arg);
    } else if (arg.rfind("--", 0) == 0) {
      usage("unknown option '" + arg + "'");
    } else {
      usage("unexpected argument '" + arg + "'");
    }
  }
  return a;
}

// Typed option accessors: every value goes through the api parsers; a
// malformed or out-of-range value is a usage error (exit 1), never a silent 0.
double get_double(const Args& a, const std::string& key, double fallback, double lo, double hi) {
  const auto v = a.get(key);
  if (!v) return fallback;
  double out = fallback;
  const core::Status st = api::parse_double(key, *v, lo, hi, &out);
  if (!st.is_ok()) usage(st.message());
  return out;
}

long long get_int(const Args& a, const std::string& key, long long fallback, long long lo,
                  long long hi) {
  const auto v = a.get(key);
  if (!v) return fallback;
  long long out = fallback;
  const core::Status st = api::parse_int(key, *v, lo, hi, &out);
  if (!st.is_ok()) usage(st.message());
  return out;
}

// The design knobs, parsed and range-checked into the facade's typed options.
// Driven by the shared option-spec table (api::design_option_specs), so the
// CLI flags, the NDJSON "design" object, and DesignOptions::set share one
// keyspace: adding a knob to the table adds it to every surface at once.
api::DesignOptions design_options(const Args& a) {
  api::DesignOptions d;
  for (const api::OptionSpec& spec : api::design_option_specs()) {
    const std::string flag = "--" + std::string(spec.key);
    if (spec.kind == api::OptionKind::kFlag) {
      if (a.has_flag(flag)) {
        const core::Status st = api::set_option(&d, spec.key, true);
        if (!st.is_ok()) usage(st.message());
      }
    } else if (const auto v = a.get(flag)) {
      const core::Status st = api::set_option(&d, spec.key, std::string_view(*v));
      if (!st.is_ok()) usage(st.message());
    }
  }
  return d;
}

int cmd_info(core::Platform& p) {
  const auto& b = p.benchmark();
  std::cout << b.name << "\n";
  std::cout << "  DRAM die       : " << b.stack.dram_fp.width() << " x "
            << b.stack.dram_fp.height() << " mm, " << b.stack.dram_fp.bank_count()
            << " banks, " << b.stack.num_dram_dies << " dies\n";
  std::cout << "  logic die      : " << b.stack.logic_fp.width() << " x "
            << b.stack.logic_fp.height() << " mm (" << pdn::to_string(b.baseline.mounting)
            << ")\n";
  std::cout << "  channels       : " << b.sim.channels << ", tCK " << b.sim.timing.tck_ns
            << " ns, VDD " << b.stack.tech.dram.vdd << " V\n";
  std::cout << "  default state  : " << b.default_state << "\n";
  std::cout << "  baseline       : " << b.baseline.summary() << "\n";
  std::cout << "  baseline cost  : " << util::fmt_fixed(cost::total_cost(b.baseline), 3) << "\n";
  std::cout << "  paper baseline : " << b.paper_baseline_ir_mv << " mV\n";
  return 0;
}

int cmd_simulate(core::Platform& p, const Args& a) {
  const auto cfg = design_options(a).apply(p.benchmark().baseline);
  const std::string policy = a.get("--policy").value_or("distr");
  const double limit = get_double(a, "--limit", 24.0, 0.001, 1e6);
  memctrl::PolicyConfig pc;
  if (policy == "standard") {
    pc = memctrl::standard_policy();
  } else if (policy == "fcfs") {
    pc = memctrl::ir_aware_policy(limit, memctrl::SchedulingKind::kFcfs);
  } else if (policy == "distr") {
    pc = memctrl::ir_aware_policy(limit, memctrl::SchedulingKind::kDistR);
  } else {
    usage("--policy: '" + policy + "' is not a policy (want standard | fcfs | distr)");
  }
  memctrl::SimResult r;
  if (const auto trace_path = a.get("--trace")) {
    std::ifstream tf(*trace_path);
    if (!tf) {
      std::cerr << "error: cannot open trace '" << *trace_path << "'\n";
      return kExitInputError;
    }
    auto reqs = memctrl::read_trace(tf);
    const auto& sim_cfg = p.benchmark().sim;
    const std::string problem =
        memctrl::validate_trace(reqs, sim_cfg.dies, sim_cfg.banks_per_die);
    if (!problem.empty()) {
      std::cerr << "error: trace invalid: " << problem << "\n";
      return kExitInputError;
    }
    r = p.simulate(cfg, pc, std::move(reqs));
  } else {
    r = p.simulate(cfg, pc);
  }
  std::cout << "design    : " << cfg.summary() << "\n";
  std::cout << "policy    : " << policy << (policy != "standard" ? " @ " + util::fmt_fixed(limit, 1) + " mV" : "")
            << "\n";
  if (!r.feasible) {
    std::cout << "INFEASIBLE: the IR constraint admits no memory state\n";
    return kExitInfeasible;
  }
  std::cout << "runtime   : " << util::fmt_fixed(r.runtime_us, 2) << " us (" << r.cycles
            << " cycles)\n";
  std::cout << "bandwidth : " << util::fmt_fixed(r.bandwidth_reads_per_clk, 3) << " reads/clk\n";
  std::cout << "max IR    : " << util::fmt_fixed(r.max_ir_mv, 2) << " mV\n";
  std::cout << "row hits  : " << util::fmt_percent(r.row_hit_fraction, 1) << ", avg active banks "
            << util::fmt_fixed(r.avg_active_banks, 2) << "\n";
  return 0;
}

int cmd_report(core::Platform& p, const Args& a) {
  const auto cfg = design_options(a).apply(p.benchmark().baseline);
  const auto& bench = p.benchmark();
  const std::string state_text = a.get("--state").value_or(bench.default_state);
  const double activity = get_double(a, "--activity", -1.0, -1.0, 1.0);
  const auto state = p.parse_state(state_text, activity);
  const int die =
      static_cast<int>(get_int(a, "--die", bench.stack.num_dram_dies, 1,
                               bench.stack.num_dram_dies)) - 1;  // 1-based

  const auto built = pdn::build_stack(bench.stack, cfg);
  const irdrop::IrAnalyzer analyzer(built.model, bench.stack.dram_fp, bench.stack.logic_fp,
                                    p.power_binding());
  const auto report = analyzer.block_report(state, die);

  std::cout << "design : " << cfg.summary() << "\n";
  std::cout << "state  : " << state_text << ", DRAM die " << die + 1 << " (hotspots first)\n";
  util::Table t({"block", "type", "max IR (mV)", "avg IR (mV)"});
  for (const auto& entry : report) {
    t.add_row({entry.block->name, floorplan::to_string(entry.block->type),
               util::fmt_fixed(entry.max_mv, 2), util::fmt_fixed(entry.avg_mv, 2)});
  }
  std::cout << t.render();
  return 0;
}

int cmd_droop(core::Platform& p, const Args& a) {
  const auto cfg = design_options(a).apply(p.benchmark().baseline);
  const auto& bench = p.benchmark();
  const auto built = pdn::build_stack(bench.stack, cfg);
  const irdrop::IrAnalyzer analyzer(built.model, bench.stack.dram_fp, bench.stack.logic_fp,
                                    p.power_binding());
  const std::string state_text = a.get("--state").value_or(bench.default_state);
  const auto state = p.parse_state(state_text, get_double(a, "--activity", -1.0, -1.0, 1.0));
  const auto sinks = analyzer.injection(state);

  transient::DecapConfig decap;
  decap.tap_decap_nf = get_double(a, "--decap", 2.0, 0.0, 1e6);
  const transient::TransientSimulator sim(
      built.model, transient::assign_node_capacitance(built.model, decap), 1e-9);
  const auto r = sim.step_response(sinks, 400e-9);
  std::cout << "design : " << cfg.summary() << "\n";
  std::cout << "state  : " << state_text << ", tap decap " << decap.tap_decap_nf << " nF\n";
  std::cout << "DC IR  : " << util::fmt_fixed(r.dc_ir_mv, 2) << " mV\n";
  std::cout << "peak   : " << util::fmt_fixed(r.peak_ir_mv, 2) << " mV\n";
  std::cout << "settle : " << util::fmt_fixed(r.settle_ns, 1) << " ns (to 2% of DC)\n";
  util::Table t({"t (ns)", "worst DRAM droop (mV)"});
  for (std::size_t k = 0; k < r.time_ns.size(); k += std::max<std::size_t>(1, r.time_ns.size() / 12)) {
    t.add_row({util::fmt_fixed(r.time_ns[k], 1), util::fmt_fixed(r.worst_ir_mv[k], 2)});
  }
  std::cout << t.render();
  return 0;
}

int cmd_profile(core::Platform& p, const Args& a) {
  // Exercise the full pipeline on the baseline design, then print where the
  // wall time went. Each stage gets a top-level span so the table groups the
  // library's internal spans under a readable root.
  const auto cfg = design_options(a).apply(p.benchmark().baseline);
  const std::size_t top_n = static_cast<std::size_t>(get_int(a, "--top", 15, 1, 100000));

  std::cout << "profiling " << p.benchmark().name << " (analyze, lut, simulate, cooptimize)\n";
  {
    PDN3D_TRACE_SPAN("profile/analyze");
    const auto r = p.analyze(cfg, p.benchmark().default_state, -1.0);
    std::cout << "  analyze    : max IR " << util::fmt_fixed(r.dram_max_mv, 2) << " mV\n";
  }
  {
    PDN3D_TRACE_SPAN("profile/lut");
    const auto& lut = p.lut(cfg);
    std::cout << "  lut        : " << lut.size() << " states, worst "
              << util::fmt_fixed(lut.worst_case_mv(), 2) << " mV\n";
  }
  {
    PDN3D_TRACE_SPAN("profile/simulate");
    const auto r = p.simulate(cfg, memctrl::ir_aware_policy(24.0, memctrl::SchedulingKind::kDistR));
    std::cout << "  simulate   : " << util::fmt_fixed(r.runtime_us, 2) << " us, "
              << (r.feasible ? "feasible" : "INFEASIBLE") << "\n";
  }
  {
    PDN3D_TRACE_SPAN("profile/cooptimize");
    auto opt = p.make_cooptimizer();
    const auto best = opt.optimize(0.3);
    std::cout << "  cooptimize : " << best.config.summary() << " @ "
              << util::fmt_fixed(best.measured_ir_mv, 2) << " mV\n";
  }
  std::cout << "\n" << obs::TraceStore::instance().profile_table(top_n);
  return 0;
}

int cmd_export(core::Platform& p, const Args& a) {
  const auto out_opt = a.get("--out");
  if (!out_opt) usage("export requires --out DIR");
  const std::filesystem::path out = *out_opt;
  std::filesystem::create_directories(out);

  const auto cfg = design_options(a).apply(p.benchmark().baseline);
  const std::string state_text = a.get("--state").value_or(p.benchmark().default_state);
  const auto state = p.parse_state(state_text, get_double(a, "--activity", -1.0, -1.0, 1.0));

  const auto& bench = p.benchmark();
  const auto built = pdn::build_stack(bench.stack, cfg);
  const irdrop::IrAnalyzer analyzer(built.model, bench.stack.dram_fp, bench.stack.logic_fp,
                                    p.power_binding());
  const auto sinks = analyzer.injection(state);
  const auto ir = analyzer.ir_map(state);

  {
    std::ofstream os(out / "stack.sp");
    io::write_spice_netlist(os, built.model, sinks, {bench.name + " " + cfg.summary()});
  }
  {
    std::ofstream os(out / "ir_map.csv");
    io::write_ir_csv(os, built.model, ir);
  }
  for (int d = 0; d < built.model.dram_die_count(); ++d) {
    std::ofstream os(out / ("dram" + std::to_string(d + 1) + "_ir.pgm"), std::ios::binary);
    io::write_ir_pgm(os, built.model, ir, d, 0);
  }
  {
    std::ofstream os(out / "dram_die.csv");
    io::write_floorplan_csv(os, bench.stack.dram_fp);
  }
  {
    std::ofstream os(out / "dram_die.def");
    io::write_floorplan_def(os, bench.stack.dram_fp);
  }
  std::cout << "wrote " << out.string()
            << "/{stack.sp, ir_map.csv, dram*_ir.pgm, dram_die.csv, dram_die.def}\n";
  return 0;
}

// The pure-evaluation commands go through the facade: one EvaluateRequest in,
// the rendered output printed verbatim. `pdn3d serve` runs the exact same
// path, which is what makes served responses byte-identical to the CLI.
// Only the CLI command column matches: `pdn3d evaluate` is not a command.
const api::OperationSpec* facade_operation(const std::string& command) {
  for (const api::OperationSpec& spec : api::operation_specs()) {
    if (command == spec.cli_command) return &spec;
  }
  return nullptr;
}

int run_facade(const Args& a, api::Operation op, core::BenchmarkKind kind,
               core::Benchmark benchmark, obs::RunReportOptions* report_opts) {
  api::EvaluateRequest req;
  req.benchmark = kind;
  req.op = op;
  req.design = design_options(a);
  if (const auto v = a.get("--state")) req.state = *v;
  req.activity = get_double(a, "--activity", -1.0, -1.0, 1.0);
  // Only their syntax here: validate() range-checks them where the
  // operation reads them, as it does for a served request.
  req.samples = get_int(a, "--samples", 200, std::numeric_limits<long long>::min(),
                        std::numeric_limits<long long>::max());
  req.alpha = get_double(a, "--alpha", 0.3, std::numeric_limits<double>::lowest(),
                         std::numeric_limits<double>::max());
  if (const auto v = a.get("--checkpoint")) req.checkpoint_path = *v;
  req.resume = a.has_flag("--resume");
  const core::Status st = req.validate();
  if (!st.is_ok()) usage(st.message());

  api::Session session;
  session.install(kind, std::move(benchmark));
  const api::EvaluateResult result = session.evaluate(req);
  // Schema v6: record the canonical request fingerprint so two reports can be
  // matched as "same evaluation" without replaying the command line.
  report_opts->fingerprint = result.fingerprint;
  std::cout << result.output;
  return result.exit_code;
}

// ---------------------------------------------------------------------------
// serve
// ---------------------------------------------------------------------------

volatile std::sig_atomic_t g_stop = 0;

void handle_stop(int) { g_stop = 1; }

/// Serve status lines ("listening", "drained") are operational output, not
/// leveled diagnostics: they print unconditionally (scripts wait on them) but
/// honor the structured format so a `--log-format json` server emits pure
/// NDJSON on stderr.
void serve_status(std::string_view event, const std::vector<obs::EventField>& fields) {
  const std::string line =
      obs::log_format() == obs::LogFormat::kNdjson
          ? obs::render_event_ndjson(util::LogLevel::kInfo, event, fields,
                                     obs::event_timestamp())
          : obs::render_event_text(util::LogLevel::kInfo, event, fields);
  std::cerr << line << "\n";
}

int cmd_serve(const Args& a, obs::RunReportOptions* report_opts) {
  service::ServiceConfig cfg;
  cfg.queue_capacity = static_cast<std::size_t>(get_int(a, "--queue", 64, 1, 1000000));
  cfg.default_deadline_ms = get_double(a, "--deadline", 0.0, 0.0, 1e9);
  cfg.enable_test_ops = a.has_flag("--test-ops");
  cfg.max_outstanding_cost =
      static_cast<std::uint64_t>(get_int(a, "--max-cost", 0, 0, 1000000000));
  cfg.watchdog_ms = get_double(a, "--watchdog", 0.0, 0.0, 1e9);
  cfg.slow_request_ms = get_double(a, "--slow-ms", 0.0, 0.0, 1e9);
  cfg.cache_entries = static_cast<std::size_t>(get_int(a, "--cache-entries", 256, 0, 100000000));

  api::Session session;
  if (const auto tech_path = a.get("--tech")) {
    const auto bench_tok = a.get("--bench");
    if (!bench_tok) usage("serve: --tech requires --bench BENCHMARK");
    core::BenchmarkKind kind{};
    const core::Status st = api::parse_benchmark(*bench_tok, &kind);
    if (!st.is_ok()) usage(st.message());
    std::ifstream tf(*tech_path);
    if (!tf) {
      std::cerr << "error: cannot open technology file '" << *tech_path << "'\n";
      return kExitInputError;
    }
    core::Benchmark bench = core::make_benchmark(kind);
    try {
      bench.stack.tech = tech::read_technology(tf);
    } catch (const std::exception& e) {
      std::cerr << "error: " << e.what() << "\n";
      return kExitInputError;
    }
    session.install(kind, std::move(bench));
  }

  // Declared before the service so response sinks (which reference it) stay
  // valid for as long as any worker can still call them.
  std::mutex stdout_mutex;

  service::BatchService service(session, cfg);
  service.start();

  // Graceful drain on SIGTERM/SIGINT. No SA_RESTART: a blocked stdin read
  // returns with EINTR so the loop below observes g_stop promptly.
  struct sigaction sa = {};
  sa.sa_handler = handle_stop;
  sigemptyset(&sa.sa_mask);
  sigaction(SIGINT, &sa, nullptr);
  sigaction(SIGTERM, &sa, nullptr);
  // A client that disconnects with a response in flight must surface as an
  // EPIPE write error (the sink drops the response), not as a SIGPIPE that
  // kills the server and every other client's work.
  struct sigaction ign = {};
  ign.sa_handler = SIG_IGN;
  sigemptyset(&ign.sa_mask);
  sigaction(SIGPIPE, &ign, nullptr);

  std::unique_ptr<service::SocketServer> socket_server;
  if (const auto path = a.get("--socket")) {
    socket_server = std::make_unique<service::SocketServer>(service, *path);
    try {
      socket_server->start();
    } catch (const std::exception& e) {
      std::cerr << "error: " << e.what() << "\n";
      service.drain();
      return kExitInputError;
    }
    serve_status("serve.listening", {{"socket", *path}});
  }

  // stdin NDJSON loop; stdout carries only response lines. With a socket the
  // server outlives stdin EOF and stops on a signal instead.
  std::string line;
  while (g_stop == 0 && std::getline(std::cin, line)) {
    if (util::trim(line).empty()) continue;
    service.submit_line(line, [&stdout_mutex](const std::string& response) {
      const std::lock_guard<std::mutex> lock(stdout_mutex);
      std::cout << response << "\n" << std::flush;
    });
  }
  if (socket_server) {
    while (g_stop == 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
    socket_server->stop();
  }
  service.drain();

  const auto s = service.stats();
  serve_status("serve.drained",
               {{"completed", s.completed},
                {"submitted", s.submitted},
                {"queue_full", s.rejected_full},
                {"overloaded", s.rejected_overload},
                {"deadline_exceeded", s.deadline_expired},
                {"timeout", s.timeouts},
                {"cancelled", s.cancelled},
                {"internal", s.internal_errors},
                {"too_large", s.rejected_too_large},
                {"bad", s.bad_requests},
                {"uptime_seconds", service.uptime_seconds()}});
  report_opts->session = service.session_block();
  return kExitOk;
}

int dispatch(core::Platform& platform, const Args& args) {
  if (args.command == "info") return cmd_info(platform);
  if (args.command == "simulate") return cmd_simulate(platform, args);
  if (args.command == "profile") return cmd_profile(platform, args);
  if (args.command == "report") return cmd_report(platform, args);
  if (args.command == "droop") return cmd_droop(platform, args);
  if (args.command == "export") return cmd_export(platform, args);
  usage("unknown command '" + args.command + "'");
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  if (args.has_flag("--verbose")) util::set_log_level(util::LogLevel::kDebug);
  if (args.has_flag("--quiet")) util::set_log_level(util::LogLevel::kError);
  if (const auto fmt = args.get("--log-format")) {
    obs::LogFormat parsed = obs::LogFormat::kText;
    if (!obs::parse_log_format(*fmt, &parsed)) {
      usage("--log-format must be 'text' or 'json', got '" + *fmt + "'");
    }
    obs::set_log_format(parsed);
  }
  // Fault injection (PDN3D_FAULTS env var) activates before any work runs so
  // every site in the process sees the same schedule. A malformed spec is a
  // usage error: silently running fault-free would defeat the chaos harness.
  if (const std::string err = faults::Registry::instance().configure_from_env();
      !err.empty()) {
    usage("PDN3D_FAULTS: " + err);
  }
  if (args.get("--threads")) {
    const long long n = get_int(args, "--threads", 0, 1, 4096);
    // Overrides PDN3D_THREADS; every sweep (and the serve worker pool) sizes
    // itself from this.
    exec::set_default_thread_count(static_cast<std::size_t>(n));
  }

  // Raw span events are read only by a run report's trace_events. Without
  // --report they would fill the trace buffer (up to 65536 events of a few
  // hundred bytes) and never be read; `profile` prints the per-path
  // aggregates, which are kept either way.
  if (!args.get("--report")) obs::TraceStore::instance().set_event_capacity(0);

  int rc = kExitOk;
  obs::RunReportOptions report_opts;  // .session stays null for one-shot runs

  if (args.command == "serve") {
    rc = cmd_serve(args, &report_opts);
  } else {
    core::BenchmarkKind kind{};
    {
      const core::Status st = api::parse_benchmark(args.benchmark, &kind);
      if (!st.is_ok()) usage(st.message());
    }
    core::Benchmark benchmark = core::make_benchmark(kind);

    if (const auto tech_path = args.get("--tech")) {
      std::ifstream tf(*tech_path);
      if (!tf) {
        std::cerr << "error: cannot open technology file '" << *tech_path << "'\n";
        rc = kExitInputError;
      } else {
        try {
          benchmark.stack.tech = tech::read_technology(tf);
        } catch (const std::exception& e) {
          std::cerr << "error: " << e.what() << "\n";
          rc = kExitInputError;
        }
      }
    }

    if (rc == kExitOk) {
      if (const api::OperationSpec* spec = facade_operation(args.command)) {
        rc = run_facade(args, spec->op, kind, std::move(benchmark), &report_opts);
      } else {
        core::Platform platform(std::move(benchmark));
        try {
          rc = dispatch(platform, args);
        } catch (const core::ValidationError& e) {
          std::cerr << "error: mesh validation failed:\n" << e.report().to_string() << "\n";
          rc = kExitNumerical;
        } catch (const core::NumericalError& e) {
          std::cerr << "error: " << e.status().to_string() << "\n";
          rc = kExitNumerical;
        } catch (const std::exception& e) {
          std::cerr << "error: " << e.what() << "\n";
          rc = kExitInputError;
        }
      }
    }
  }

  // The report is written even after a failed command: a run that escalated
  // or exhausted the ladder is exactly the run worth dissecting.
  if (const auto report_path = args.get("--report")) {
    report_opts.command = args.command;
    report_opts.benchmark = args.benchmark;
    report_opts.argv.assign(argv, argv + argc);
    const core::Status st = obs::write_run_report(*report_path, report_opts);
    if (!st.is_ok()) {
      std::cerr << "error: " << st.to_string() << "\n";
      if (rc == kExitOk) rc = kExitInputError;
    }
  }
  return rc;
}
