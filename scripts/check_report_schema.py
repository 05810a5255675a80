#!/usr/bin/env python3
"""Validate a pdn3d --report JSON file against run-report schema v9.

Stdlib-only so it can run anywhere the repo builds. Exits 0 when the report
conforms, 1 with a list of problems otherwise. The schema is documented in
docs/OBSERVABILITY.md; bump SCHEMA_VERSION there and here together.

v2 added the top-level "threads" key: the effective worker-thread count
(--threads / PDN3D_THREADS / hardware concurrency) the run resolved.
v3 added the "factor" sub-object to "solver": cached sparse-direct
factorization statistics (builds, build_failures, cache_hits, fill_ratio,
nnz).
v4 added the optional top-level "session" block emitted by `pdn3d serve`:
service aggregates plus one record per evaluated request.
v5 added "windows" under "metrics" (windowed quantile snapshots), the
per-request "request_id" under session.requests, and session uptime/peak
load ("uptime_seconds", "peak_queue_depth", "peak_in_flight").
v6 added the optional top-level "fingerprint" key (canonical request
fingerprint, facade commands only), the session "cache" sub-object
(result-cache stats), and per-request "fingerprint"/"cache" keys under
session.requests.
v7 added a "solver" sub-object of hierarchical-solver-tier reuse statistics
(removed in v9).
v8 added the "em" sub-object to "solver": electromigration pass statistics
(checks, violations, worst_utilization, min_mttf_hours).
v9 removed the v7 sub-object together with the hierarchical solver tier it
reported on.

Usage: check_report_schema.py report.json [report2.json ...]
"""

import json
import numbers
import sys

SCHEMA_VERSION = 9

# key -> allowed python types for the documented top-level fields.
TOP_LEVEL = {
    "schema": numbers.Number,
    "tool": str,
    "version": str,
    "command": str,
    "benchmark": str,
    "threads": numbers.Number,
    "provenance": dict,
    "metrics": dict,
    "spans": list,
    "solver": dict,
    "trace_dropped_events": numbers.Number,
    "trace_unbalanced_spans": numbers.Number,
}

PROVENANCE_KEYS = {
    "git_revision": str,
    "build_type": str,
    "compiler": str,
    "timestamp_utc": str,
    "argv": list,
}

METRICS_KEYS = {"counters": dict, "gauges": dict, "histograms": dict, "windows": dict}

SPAN_ROW_KEYS = {
    "path": str,
    "count": numbers.Number,
    "total_s": numbers.Number,
    "self_s": numbers.Number,
    "min_s": numbers.Number,
    "max_s": numbers.Number,
}

SOLVER_KEYS = {
    "solves": numbers.Number,
    "failures": numbers.Number,
    "escalations": numbers.Number,
    "rung_attempts": dict,
    "rung_failures": dict,
    "factor": dict,
    "em": dict,
}

FACTOR_KEYS = {
    "builds": numbers.Number,
    "build_failures": numbers.Number,
    "cache_hits": numbers.Number,
    "fill_ratio": numbers.Number,
    "nnz": numbers.Number,
}

# v8: the electromigration block inside the solver block.
EM_KEYS = {
    "checks": numbers.Number,
    "violations": numbers.Number,
    "worst_utilization": numbers.Number,
    "min_mttf_hours": numbers.Number,
}

# v4: the `pdn3d serve` session block (optional; one-shot commands omit it).
SESSION_KEYS = {
    "workers": numbers.Number,
    "queue_capacity": numbers.Number,
    "uptime_seconds": numbers.Number,
    "peak_queue_depth": numbers.Number,
    "peak_in_flight": numbers.Number,
    "submitted": numbers.Number,
    "completed": numbers.Number,
    "rejected_queue_full": numbers.Number,
    "rejected_shutdown": numbers.Number,
    "rejected_overload": numbers.Number,
    "rejected_too_large": numbers.Number,
    "bad_requests": numbers.Number,
    "deadline_expired": numbers.Number,
    "cancelled": numbers.Number,
    "timeouts": numbers.Number,
    "internal_errors": numbers.Number,
    "cache": dict,
    "requests": list,
    "requests_dropped_from_report": numbers.Number,
}

# v6: the result-cache block inside the session block.
SESSION_CACHE_KEYS = {
    "entries": numbers.Number,
    "capacity": numbers.Number,
    "hits": numbers.Number,
    "misses": numbers.Number,
    "insertions": numbers.Number,
    "evictions": numbers.Number,
    "bypass": numbers.Number,
}

SESSION_REQUEST_KEYS = {
    "id": numbers.Number,
    "request_id": str,
    "op": str,
    "benchmark": str,
    "ok": bool,
    "queue_ms": numbers.Number,
    "run_ms": numbers.Number,
    "headline_mv": numbers.Number,
    "fingerprint": str,
    "cache": str,
}


WINDOW_KEYS = {
    "count": numbers.Number,
    "window_count": numbers.Number,
    "min": numbers.Number,
    "max": numbers.Number,
    "sum": numbers.Number,
    "p50": numbers.Number,
    "p90": numbers.Number,
    "p95": numbers.Number,
    "p99": numbers.Number,
}


def check_block(errors, block, spec, where):
    if not isinstance(block, dict):
        errors.append(f"{where}: expected object, got {type(block).__name__}")
        return
    for key, expected in spec.items():
        if key not in block:
            errors.append(f"{where}: missing key '{key}'")
        elif expected is bool:
            if not isinstance(block[key], bool):
                errors.append(
                    f"{where}.{key}: expected bool, got {type(block[key]).__name__}"
                )
        elif not isinstance(block[key], expected) or isinstance(block[key], bool):
            errors.append(
                f"{where}.{key}: expected {expected.__name__}, "
                f"got {type(block[key]).__name__}"
            )


def check_report(report):
    errors = []
    if not isinstance(report, dict):
        return [f"top level: expected object, got {type(report).__name__}"]

    check_block(errors, report, TOP_LEVEL, "top level")
    if errors:
        return errors

    if report["schema"] != SCHEMA_VERSION:
        errors.append(f"schema: expected {SCHEMA_VERSION}, got {report['schema']}")
    if isinstance(report.get("threads"), numbers.Number) and report["threads"] < 1:
        errors.append(f"threads: expected >= 1, got {report['threads']}")
    if report["tool"] != "pdn3d":
        errors.append(f"tool: expected 'pdn3d', got {report['tool']!r}")

    check_block(errors, report["provenance"], PROVENANCE_KEYS, "provenance")
    check_block(errors, report["metrics"], METRICS_KEYS, "metrics")
    check_block(errors, report["solver"], SOLVER_KEYS, "solver")
    if isinstance(report["solver"], dict) and isinstance(report["solver"].get("factor"), dict):
        check_block(errors, report["solver"]["factor"], FACTOR_KEYS, "solver.factor")
    if isinstance(report["solver"], dict) and isinstance(report["solver"].get("em"), dict):
        check_block(errors, report["solver"]["em"], EM_KEYS, "solver.em")

    for i, row in enumerate(report["spans"]):
        check_block(errors, row, SPAN_ROW_KEYS, f"spans[{i}]")

    # trace_events is optional (--report without raw events omits it).
    if "trace_events" in report and not isinstance(report["trace_events"], list):
        errors.append("trace_events: expected array")

    # fingerprint is optional (facade commands only) and must be 16 hex chars.
    if "fingerprint" in report:
        fp = report["fingerprint"]
        if not isinstance(fp, str) or len(fp) != 16 or any(
            c not in "0123456789abcdef" for c in fp
        ):
            errors.append(f"fingerprint: expected 16 lowercase hex chars, got {fp!r}")

    # session is optional (only `pdn3d serve` runs emit it).
    if "session" in report:
        check_block(errors, report["session"], SESSION_KEYS, "session")
        if isinstance(report["session"], dict) and isinstance(
            report["session"].get("cache"), dict
        ):
            check_block(
                errors, report["session"]["cache"], SESSION_CACHE_KEYS, "session.cache"
            )
        if isinstance(report["session"], dict) and isinstance(
            report["session"].get("requests"), list
        ):
            for i, row in enumerate(report["session"]["requests"]):
                check_block(
                    errors, row, SESSION_REQUEST_KEYS, f"session.requests[{i}]"
                )

    windows = report["metrics"].get("windows")
    if isinstance(windows, dict):
        for name, win in windows.items():
            check_block(errors, win, WINDOW_KEYS, f"metrics.windows[{name!r}]")

    counters = report["metrics"].get("counters")
    if isinstance(counters, dict):
        for name, value in counters.items():
            if isinstance(value, bool) or not isinstance(value, numbers.Number):
                errors.append(f"metrics.counters[{name!r}]: expected number")
    return errors


def main(argv):
    if len(argv) < 2:
        print(__doc__.strip(), file=sys.stderr)
        return 1
    status = 0
    for path in argv[1:]:
        try:
            with open(path, encoding="utf-8") as fh:
                report = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            print(f"{path}: FAIL: {exc}", file=sys.stderr)
            status = 1
            continue
        errors = check_report(report)
        if errors:
            for err in errors:
                print(f"{path}: FAIL: {err}", file=sys.stderr)
            status = 1
        else:
            print(f"{path}: OK (schema v{SCHEMA_VERSION})")
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv))
