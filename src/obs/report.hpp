#pragma once

/// @file report.hpp
/// @brief Machine-readable run reports: one JSON file bundling the metrics
/// snapshot, the span tree, solver telemetry, and build/config provenance.
///
/// Every `pdn3d <cmd> ... --report out.json` invocation ends by writing one
/// of these; scripts/check_report_schema.py validates the schema (versioned
/// via kReportSchemaVersion) and docs/OBSERVABILITY.md documents every key.
/// Reports are
/// the diff baseline for performance PRs: two runs of the same command can be
/// compared span-by-span and counter-by-counter.

#include <filesystem>
#include <string>
#include <vector>

#include "core/status.hpp"
#include "obs/json.hpp"

namespace pdn3d::obs {

/// Current report schema version; bump on breaking key changes.
/// v2: added the top-level "threads" key (effective worker-thread count).
/// v3: added the "factor" sub-object to the "solver" block (cached
///     sparse-direct factorization statistics).
/// v4: added the optional top-level "session" block (batch evaluation
///     service aggregates plus per-request records; `pdn3d serve` only).
/// v5: added "windows" to the "metrics" block (windowed quantile snapshots);
///     session requests gained "request_id"; the session block gained
///     "uptime_seconds" and peak queue/in-flight gauges.
/// v6: added the optional top-level "fingerprint" key (the canonical request
///     fingerprint of the evaluated request, facade commands only); the
///     session block gained the "cache" sub-object (result-cache stats) and
///     session requests gained "fingerprint" and "cache" keys.
/// v7: added a "solver" sub-object of hierarchical-solver-tier reuse
///     statistics (removed in v9).
/// v8: added the "em" sub-object to the "solver" block (electromigration
///     pass statistics: checks, violations, worst_utilization,
///     min_mttf_hours).
/// v9: removed the v7 sub-object together with the hierarchical solver tier
///     it reported on.
inline constexpr int kReportSchemaVersion = 9;

struct RunReportOptions {
  std::string command;            ///< CLI command ("analyze", "profile", ...)
  std::string benchmark;          ///< benchmark name, empty when N/A
  std::vector<std::string> argv;  ///< full command line for reproducibility
  /// Include the raw Chrome trace_event array (can be large); the aggregated
  /// span table is always included.
  bool include_trace_events = true;
  /// Schema v4: the service's session block (BatchService::session_block()).
  /// Emitted only when it is a JSON object; one-shot commands leave it null.
  json::Value session;
  /// Schema v6: RequestFingerprint::hex() of the evaluated request. Emitted
  /// as the top-level "fingerprint" key when non-empty (facade commands
  /// only; `serve` records fingerprints per request in the session block).
  std::string fingerprint;
};

struct MetricsSnapshot;

/// The report's "metrics" block: counters, gauges, histograms and quantile
/// windows keyed by metric name. The service's `stats` op takes its
/// counters, gauges and windows from it.
[[nodiscard]] json::Value metrics_block(const MetricsSnapshot& snap);

/// Assemble the report document from the current process-wide metrics
/// registry and trace store.
[[nodiscard]] json::Value build_run_report(const RunReportOptions& options);

/// build_run_report + write to @p path. Returns ok or an input error with the
/// failing path in the message. Never throws for I/O reasons.
core::Status write_run_report(const std::filesystem::path& path, const RunReportOptions& options);

}  // namespace pdn3d::obs
