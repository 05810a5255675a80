#!/usr/bin/env python3
"""Perf-regression gate: fresh bench run vs a committed bench/BENCH_*.json.

Two baseline formats, auto-detected:

  * google-benchmark JSON (bench/BENCH_solver.json): the named binary is
    re-run with --benchmark_format=json and every series present in both
    runs is compared on real_time (lower is better). A series that got more
    than --threshold slower than the baseline fails the gate. With
    --repetitions N the minimum across repetitions is gated (noise only adds
    time), and --series restricts both the comparison and the fresh run
    (via --benchmark_filter) to the named series. A compared series whose
    label differs between baseline and fresh run is refused (exit 2): its
    name now measures something else, e.g. after a solver-rung renumbering,
    and the baseline needs re-keying before the timings mean anything.
  * service soak JSON (bench/BENCH_service.json, written by
    scripts/bench_service.py): compared file-vs-file via --fresh on
    soak.requests_per_s (higher is better), since re-running the 60 s soak
    belongs to bench_service.py, not to this gate.

Build-type guard: google-benchmark baselines embed
context.library_build_type. When the fresh run's build type differs the
numbers are incomparable (debug vs release is a 10x, not a regression), so
the gate reports SKIPPED and exits 0 rather than crying wolf.

--inject-slowdown F multiplies every fresh timing by F before comparing.
It exists so the gate itself can be tested: a WILL_FAIL ctest runs with
--inject-slowdown 2.0 and must fail, proving a real 2x regression would
be caught (see bench/CMakeLists.txt, `ctest -C perf`).

Usage:
  bench_compare.py --baseline bench/BENCH_solver.json --binary build/bench/bench_solver_perf
  bench_compare.py --baseline bench/BENCH_service.json --fresh new_service.json

Exit codes: 0 pass/skip, 1 regression, 2 usage or malformed input.
Stdlib only.
"""

import argparse
import json
import re
import subprocess
import sys

TIME_UNIT_NS = {"ns": 1.0, "us": 1e3, "ms": 1e6, "s": 1e9}


def load_json(path):
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"bench_compare: cannot read {path}: {exc}", file=sys.stderr)
        sys.exit(2)


def series_times_ns(doc):
    """name -> real_time in ns for a google-benchmark JSON document.

    Aggregate rows (mean/median/stddev from --benchmark_repetitions) are
    skipped; when a name repeats (repetition rows) the MINIMUM is kept.
    Min beats mean here: scheduler noise and noisy-neighbor CPU steal only
    ever add time, so the fastest repetition is the closest estimate of the
    code's true cost on a shared box.
    """
    best = {}
    for row in doc.get("benchmarks", []):
        if row.get("run_type") == "aggregate":
            continue
        name = row.get("name")
        unit = TIME_UNIT_NS.get(row.get("time_unit", "ns"))
        if name is None or unit is None or "real_time" not in row:
            continue
        ns = row["real_time"] * unit
        if name not in best or ns < best[name]:
            best[name] = ns
    return best


def run_google_bench(binary, min_time, repetitions=1, only_names=None):
    cmd = [binary, "--benchmark_format=json",
           f"--benchmark_min_time={min_time}"]
    if repetitions > 1:
        cmd.append(f"--benchmark_repetitions={repetitions}")
    if only_names:
        # Anchored alternation so the binary only runs the gated series.
        pattern = "^(" + "|".join(re.escape(n) for n in sorted(only_names)) + ")$"
        cmd.append(f"--benchmark_filter={pattern}")
    proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, check=False)
    if proc.returncode != 0:
        print(f"bench_compare: {' '.join(cmd)} failed:\n{proc.stderr}",
              file=sys.stderr)
        sys.exit(2)
    try:
        return json.loads(proc.stdout)
    except json.JSONDecodeError as exc:
        print(f"bench_compare: bench output is not JSON: {exc}", file=sys.stderr)
        sys.exit(2)


def series_labels(doc):
    """name -> label for the non-aggregate rows that carry one."""
    labels = {}
    for row in doc.get("benchmarks", []):
        if row.get("run_type") != "aggregate" and "name" in row and "label" in row:
            labels.setdefault(row["name"], row["label"])
    return labels


def gate_google(baseline, fresh, threshold, slowdown, series_filter):
    base_times = series_times_ns(baseline)
    fresh_times = series_times_ns(fresh)

    base_build = baseline.get("context", {}).get("library_build_type")
    fresh_build = fresh.get("context", {}).get("library_build_type")
    if base_build and fresh_build and base_build != fresh_build:
        print(f"bench_compare: SKIPPED -- baseline is a {base_build} build, "
              f"fresh run is {fresh_build}; timings are incomparable. "
              f"Re-record the baseline from this build type to gate it.")
        return 0

    names = sorted(set(base_times) & set(fresh_times))
    if series_filter:
        names = [n for n in names if n in series_filter]
        missing = series_filter - set(names)
        if missing:
            print(f"bench_compare: requested series missing from run: "
                  f"{sorted(missing)}", file=sys.stderr)
            return 2
    if not names:
        print("bench_compare: no comparable series between baseline and run",
              file=sys.stderr)
        return 2
    base_labels = series_labels(baseline)
    fresh_labels = series_labels(fresh)
    relabeled = [n for n in names if n in base_labels and n in fresh_labels
                 and base_labels[n] != fresh_labels[n]]
    if relabeled:
        for name in relabeled:
            print(f"bench_compare: series {name} changed label: baseline "
                  f"{base_labels[name]!r}, fresh {fresh_labels[name]!r} -- "
                  f"re-key the baseline", file=sys.stderr)
        return 2
    only_base = sorted(set(base_times) - set(fresh_times))
    if only_base:
        print(f"note: {len(only_base)} baseline series not in fresh run "
              f"(not gated): {only_base[:5]}")

    regressions = []
    for name in names:
        fresh_ns = fresh_times[name] * slowdown
        ratio = fresh_ns / base_times[name] if base_times[name] > 0 else float("inf")
        marker = "REGRESSION" if ratio > 1.0 + threshold else "ok"
        print(f"  {name:<40} base {base_times[name]/1e6:10.3f} ms   "
              f"fresh {fresh_ns/1e6:10.3f} ms   {ratio:6.2f}x  {marker}")
        if ratio > 1.0 + threshold:
            regressions.append((name, ratio))

    if regressions:
        print(f"bench_compare: FAIL -- {len(regressions)} series regressed "
              f"beyond {threshold:.0%}:")
        for name, ratio in regressions:
            print(f"  {name}: {ratio:.2f}x baseline")
        return 1
    print(f"bench_compare: PASS ({len(names)} series within {threshold:.0%} "
          f"of baseline)")
    return 0


def gate_service(baseline, fresh, threshold, slowdown):
    # soak.requests_per_s is mandatory; cache_soak.requests_per_s is gated
    # only when both files carry it, so pre-cache baselines keep working.
    series = [("soak", True)]
    if "cache_soak" in baseline and "cache_soak" in fresh:
        series.append(("cache_soak", True))
    elif "cache_soak" in baseline:
        print("note: baseline has cache_soak but fresh run does not (not gated)")

    failures = []
    for key, required in series:
        try:
            base_rps = float(baseline[key]["requests_per_s"])
            fresh_rps = float(fresh[key]["requests_per_s"]) / slowdown
        except (KeyError, TypeError, ValueError):
            if required and key == "soak":
                print("bench_compare: service JSON lacks soak.requests_per_s",
                      file=sys.stderr)
                return 2
            continue
        floor = base_rps * (1.0 - threshold)
        print(f"  {key}.requests_per_s: base {base_rps:.1f}  "
              f"fresh {fresh_rps:.1f}  floor {floor:.1f}")
        if fresh_rps < floor:
            failures.append((key, base_rps, fresh_rps))

    if failures:
        for key, base_rps, fresh_rps in failures:
            print(f"bench_compare: FAIL -- {key} throughput {fresh_rps:.1f} "
                  f"req/s is more than {threshold:.0%} below baseline "
                  f"{base_rps:.1f}")
        return 1
    print(f"bench_compare: PASS ({len(series)} service series within "
          f"threshold)")
    return 0


def main():
    ap = argparse.ArgumentParser(
        description="Perf-regression gate vs committed bench baselines.")
    ap.add_argument("--baseline", required=True,
                    help="committed bench/BENCH_*.json to gate against")
    ap.add_argument("--binary", help="google-benchmark binary to re-run")
    ap.add_argument("--fresh", help="pre-recorded fresh-run JSON (file mode)")
    ap.add_argument("--threshold", type=float, default=0.15,
                    help="allowed relative regression (default 0.15 = 15%%)")
    ap.add_argument("--min-time", default="0.1",
                    help="--benchmark_min_time for the fresh run (default 0.1)")
    ap.add_argument("--repetitions", type=int, default=1,
                    help="--benchmark_repetitions for the fresh run; the "
                         "minimum across repetitions is gated (default 1)")
    ap.add_argument("--inject-slowdown", type=float, default=1.0,
                    help="multiply fresh timings by F (gate self-test)")
    ap.add_argument("--series", nargs="*", default=None,
                    help="gate only these series (default: all shared)")
    args = ap.parse_args()

    baseline = load_json(args.baseline)
    is_service = baseline.get("bench") == "service"

    if is_service:
        if not args.fresh:
            print("bench_compare: service baselines need --fresh "
                  "(re-run bench_service.py first)", file=sys.stderr)
            return 2
        return gate_service(baseline, load_json(args.fresh), args.threshold,
                            args.inject_slowdown)

    if args.fresh:
        fresh = load_json(args.fresh)
    elif args.binary:
        fresh = run_google_bench(args.binary, args.min_time, args.repetitions,
                                 args.series)
    else:
        print("bench_compare: need --binary or --fresh", file=sys.stderr)
        return 2
    return gate_google(baseline, fresh, args.threshold, args.inject_slowdown,
                       set(args.series) if args.series else None)


if __name__ == "__main__":
    sys.exit(main())
