#include "obs/report.hpp"

#include <chrono>
#include <cstdio>
#include <ctime>
#include <fstream>

#include "exec/thread_pool.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

// Provenance baked in at configure time (src/obs/CMakeLists.txt); "unknown"
// when building outside git or through a foreign build system.
#ifndef PDN3D_GIT_REVISION
#define PDN3D_GIT_REVISION "unknown"
#endif
#ifndef PDN3D_BUILD_TYPE
#define PDN3D_BUILD_TYPE "unknown"
#endif
#ifndef PDN3D_VERSION_STRING
#define PDN3D_VERSION_STRING "unknown"
#endif

namespace pdn3d::obs {

namespace {

std::string utc_timestamp() {
  const std::time_t now = std::chrono::system_clock::to_time_t(std::chrono::system_clock::now());
  std::tm tm{};
#if defined(_WIN32)
  gmtime_s(&tm, &now);
#else
  gmtime_r(&now, &tm);
#endif
  char buf[32];
  std::snprintf(buf, sizeof buf, "%04d-%02d-%02dT%02d:%02d:%02dZ", tm.tm_year + 1900,
                tm.tm_mon + 1, tm.tm_mday, tm.tm_hour, tm.tm_min, tm.tm_sec);
  return buf;
}

json::Value provenance_block(const RunReportOptions& options) {
  json::Value prov = json::Value::object();
  prov.set("git_revision", PDN3D_GIT_REVISION);
  prov.set("build_type", PDN3D_BUILD_TYPE);
#if defined(__VERSION__)
  prov.set("compiler", __VERSION__);
#else
  prov.set("compiler", "unknown");
#endif
  prov.set("timestamp_utc", utc_timestamp());
  json::Value argv = json::Value::array();
  for (const auto& arg : options.argv) argv.push_back(arg);
  prov.set("argv", std::move(argv));
  return prov;
}

json::Value metrics_block(const MetricsSnapshot& snap) {
  json::Value counters = json::Value::object();
  for (const auto& [name, value] : snap.counters) counters.set(name, value);

  json::Value gauges = json::Value::object();
  for (const auto& [name, value] : snap.gauges) gauges.set(name, value);

  json::Value histograms = json::Value::object();
  for (const auto& [name, h] : snap.histograms) {
    json::Value hist = json::Value::object();
    json::Value bounds = json::Value::array();
    for (const double b : h.upper_bounds) bounds.push_back(b);
    json::Value counts = json::Value::array();
    for (const std::uint64_t c : h.bucket_counts) counts.push_back(c);
    hist.set("upper_bounds", std::move(bounds));
    hist.set("bucket_counts", std::move(counts));
    hist.set("count", h.count);
    hist.set("sum", h.sum);
    histograms.set(name, std::move(hist));
  }

  // Schema v5: windowed quantile snapshots (obs::QuantileWindow).
  json::Value windows = json::Value::object();
  for (const auto& [name, w] : snap.windows) {
    json::Value win = json::Value::object();
    win.set("count", w.count);
    win.set("window_count", static_cast<std::uint64_t>(w.window_count));
    win.set("min", w.min);
    win.set("max", w.max);
    win.set("sum", w.sum);
    win.set("p50", w.p50);
    win.set("p90", w.p90);
    win.set("p95", w.p95);
    win.set("p99", w.p99);
    windows.set(name, std::move(win));
  }

  json::Value metrics = json::Value::object();
  metrics.set("counters", std::move(counters));
  metrics.set("gauges", std::move(gauges));
  metrics.set("histograms", std::move(histograms));
  metrics.set("windows", std::move(windows));
  return metrics;
}

json::Value spans_block() {
  // Aggregated per-path statistics; sorted by path, so the slash-separated
  // hierarchy reads as a tree (children follow their parent).
  json::Value spans = json::Value::array();
  for (const auto& [path, s] : TraceStore::instance().stats()) {
    json::Value row = json::Value::object();
    row.set("path", path);
    row.set("count", s.count);
    row.set("total_s", s.total_s);
    row.set("self_s", s.self_s);
    row.set("min_s", s.min_s);
    row.set("max_s", s.max_s);
    spans.push_back(std::move(row));
  }
  return spans;
}

/// The solver block mirrors the registry's `solver.*` metrics in a compact
/// shape so report consumers do not need to know metric names.
json::Value solver_block(const MetricsSnapshot& snap) {
  json::Value solver = json::Value::object();
  const auto counter_or_zero = [&](const std::string& name) -> std::uint64_t {
    const auto it = snap.counters.find(name);
    return it != snap.counters.end() ? it->second : 0;
  };
  solver.set("solves", counter_or_zero("solver.solves"));
  solver.set("failures", counter_or_zero("solver.failures"));
  solver.set("escalations", counter_or_zero("ladder.escalations"));
  json::Value attempts = json::Value::object();
  json::Value failures = json::Value::object();
  for (const auto& [name, value] : snap.counters) {
    constexpr std::string_view kAttempts = "solver.rung_attempts.";
    constexpr std::string_view kFailures = "solver.rung_failures.";
    if (name.rfind(kAttempts, 0) == 0) attempts.set(name.substr(kAttempts.size()), value);
    if (name.rfind(kFailures, 0) == 0) failures.set(name.substr(kFailures.size()), value);
  }
  solver.set("rung_attempts", std::move(attempts));
  solver.set("rung_failures", std::move(failures));

  // Schema v3: cached sparse-direct factorization statistics. Zeros when the
  // run never touched the sparse-direct rung.
  const auto gauge_or_zero = [&](const std::string& name) -> double {
    const auto it = snap.gauges.find(name);
    return it != snap.gauges.end() ? it->second : 0.0;
  };
  json::Value factor = json::Value::object();
  factor.set("builds", counter_or_zero("solver.factor_builds"));
  factor.set("build_failures", counter_or_zero("solver.factor_build_failures"));
  factor.set("cache_hits", counter_or_zero("solver.factor_cache_hits"));
  factor.set("fill_ratio", gauge_or_zero("solver.factor_fill_ratio"));
  factor.set("nnz", gauge_or_zero("solver.factor_nnz"));
  solver.set("factor", std::move(factor));

  // Schema v8: electromigration pass statistics. Zeros when the run never
  // executed an EM check.
  json::Value em = json::Value::object();
  em.set("checks", counter_or_zero("solver.em.checks"));
  em.set("violations", counter_or_zero("solver.em.violations"));
  em.set("worst_utilization", gauge_or_zero("solver.em.worst_utilization"));
  em.set("min_mttf_hours", gauge_or_zero("solver.em.min_mttf_hours"));
  solver.set("em", std::move(em));
  return solver;
}

}  // namespace

json::Value build_run_report(const RunReportOptions& options) {
  const MetricsSnapshot snap = MetricsRegistry::instance().snapshot();

  json::Value report = json::Value::object();
  report.set("schema", kReportSchemaVersion);
  report.set("tool", "pdn3d");
  report.set("version", PDN3D_VERSION_STRING);
  report.set("command", options.command);
  report.set("benchmark", options.benchmark);
  // Effective worker-thread count (--threads / PDN3D_THREADS / hardware):
  // reports from the same command are only comparable span-by-span when this
  // matches, so it is provenance, not just a metric.
  report.set("threads", static_cast<std::uint64_t>(exec::default_thread_count()));
  // Schema v6: the canonical request fingerprint, when the command ran
  // through the evaluation facade (api::EvaluateRequest::fingerprint()).
  if (!options.fingerprint.empty()) report.set("fingerprint", options.fingerprint);
  report.set("provenance", provenance_block(options));
  report.set("metrics", metrics_block(snap));
  report.set("spans", spans_block());
  report.set("solver", solver_block(snap));
  if (options.session.is_object()) report.set("session", options.session);

  TraceStore& store = TraceStore::instance();
  report.set("trace_dropped_events", store.dropped_events());
  report.set("trace_unbalanced_spans", store.unbalanced_spans());
  if (options.include_trace_events) {
    report.set("trace_events", *store.chrome_trace().find("traceEvents"));
  }
  return report;
}

core::Status write_run_report(const std::filesystem::path& path,
                              const RunReportOptions& options) {
  const json::Value report = build_run_report(options);
  std::ofstream os(path);
  if (!os) {
    return core::Status::input_error("cannot open report file '" + path.string() +
                                     "' for writing");
  }
  os << report.dump(2) << '\n';
  if (!os) {
    return core::Status::input_error("failed writing report file '" + path.string() + "'");
  }
  return core::Status::ok();
}

}  // namespace pdn3d::obs
