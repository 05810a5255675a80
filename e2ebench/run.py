#!/usr/bin/env python3
"""End-to-end benchmark of the shipped `pdn3d` binary.

Builds `pdn3d` and the traced replay (`e2ebench_trace`) from the checkout's
sources into `.bench_build/`, generates one workload's whole input from
`--seed`, and drives it through the one-shot CLI or `pdn3d serve`. The last
stdout line is the result object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With `--trace 0` the metrics are BENCHMARK.json's end-to-end metrics. With
`--trace 1` the same end-to-end run is followed by two in-process replays of
the same input (timing off, then on) and the metrics are the per-layer ones.

    python3 e2ebench/run.py --workload serve-mix --seed 1 --seconds 20 --trace 0
    python3 e2ebench/run.py --workload cli-oneshot --repeat 10        # steadiness
    python3 e2ebench/run.py --workload cooptimize --repeat 10 \\
        --binary old/pdn3d --binary new/pdn3d                         # A/B pairs
    python3 e2ebench/run.py --record-references                       # refresh refs

Every op's output is checked: CLI stdout against the recorded reference
digests (references.json), served responses for ok-ness, per-identity
byte-equality across fresh/coalesced/cached answers, and parity of a seeded
sample with the one-shot CLI.
"""

import argparse
import hashlib
import json
import math
import os
import random
import selectors
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
WORK = BUILD / "work"
CLI = BUILD / "pdn3d" / "tools" / "pdn3d"
TRACER = BUILD / "e2ebench_trace"
REFERENCES = HERE / "references.json"
SPEC = ROOT / "BENCHMARK.json"

WORKLOADS = ("cooptimize", "cli-oneshot", "serve-mix")

# Thread settings. Every CLI invocation runs alone (closed loop, one client),
# so it may use all four cores; the server's three workers plus the one busy
# generator thread of this process also make four.
CLI_THREADS = 4
SERVE_WORKERS = 3
GENERATOR_THREADS = 1
SERVE_WINDOW = 8
# setup_s is the median of this many complete set-ups per CLI-workload run;
# a set-up is one short process, so it takes several to settle the median.
# serve-mix sets up one server per segment (SERVE_SEGMENTS).
SETUP_REPEATS = 9

BENCHMARKS = ("off-chip", "on-chip", "wide-io", "hmc")
# Design variants as (CLI flags, NDJSON design object); index 0 is the
# benchmark's baseline. All are valid on all four benchmarks; cli-oneshot
# uses the first three.
DESIGNS = (
    ([], {}),
    (["--m2", "15", "--m3", "30"], {"m2": 15, "m3": 30}),
    (["--m2", "8", "--m3", "25", "--tc", "64"], {"m2": 8, "m3": 25, "tc": 64}),
    (["--tl", "C"], {"tl": "C"}),
)
STATES = ("0-0-0-2", "0-0-2b-2a", "2-2-2-2", "1-0-2a-1", "2-0-0-0", "0-1-1-0")
CLI_STATES = STATES[:3]
CLI_ACTIVITIES = ("-1", "0.25")
ALPHAS = ("0.1", "0.3", "0.5", "0.7", "0.9")
CLI_WARMUP = ["analyze", "off-chip"]  # untimed, once per CLI-workload set-up
SIM_LIMIT = "60"  # mV; feasible for every benchmark and design above
MC_SAMPLES = "16"

# cooptimize: one hmc request (logic die) and enough off-chip requests
# (no logic die) to fill --seconds at this tree's measured request times.
COOPT_NOMINAL_S = {"off-chip": 2.7, "hmc": 9.5}
# cli-oneshot: a block is every benchmark x these op slots; nominal seconds
# per block at this tree, used only to size the run from --seconds.
CLI_SLOTS = ("analyze", "analyze", "em-check", "lut", "montecarlo", "simulate")
CLI_ROUND = len(BENCHMARKS) * len(CLI_SLOTS)  # invocations per round
CLI_BLOCK_NOMINAL_S = 3.7
# serve-mix: nominal request rate used to size the stream from --seconds,
# and the stream's fixed composition (shares of all requests).
SERVE_NOMINAL_RPS = 450.0
SERVE_MIX = (("repeat", 0.20), ("montecarlo", 0.03), ("lut", 0.03), ("em-check", 0.12),
             ("evaluate-em", 0.08))  # the rest is plain evaluate
SERVE_WORKING_SET = (0, 1, 2, 3)  # design indices warmed for every benchmark
# The stream is cut into this many segments of equal composition, each served
# by its own freshly set-up server. One server process runs fast or slow as a
# whole (by up to 15 % here), so the run reports the median segment.
SERVE_SEGMENTS = 5
# A repeat copies the request this many back, drawn exponentially with this
# mean: most fall inside the server's 256-entry result cache, some outside.
SERVE_REPEAT_MEAN_BACK = 128
SERVE_PARITY_SAMPLE = 6
TAIL_LADDER = (0.999, 0.99, 0.95, 0.9, 0.75, 0.5)
# A hung op must not hold the run past its 180 s budget: a CLI invocation is
# killed (and counted failed) after this, a silent server or replay is an error.
CLI_TIMEOUT_S = 60
SERVE_TIMEOUT_S = 60
REPLAY_TIMEOUT_S = 150


class BenchError(Exception):
    """A refused configuration or a failed build: exit non-zero, no result."""


# ---------------------------------------------------------------------------
# build, environment, provenance
# ---------------------------------------------------------------------------

def clean_env():
    """The environment for the program under test: no PDN3D_* switches."""
    return {k: v for k, v in os.environ.items() if not k.startswith("PDN3D_")}


def build():
    for need in ("CMakeLists.txt", "src", "tools"):
        if not (ROOT / need).exists():
            raise BenchError(f"pdn3d sources not found: {ROOT / need} is missing")
    BUILD.mkdir(exist_ok=True)
    log = BUILD / "build.log"
    steps = []
    if not (BUILD / "CMakeCache.txt").exists():
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD), *gen,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "--target", "pdn3d_cli", "e2ebench_trace",
                  "-j", str(os.cpu_count() or 1)])
    with open(log, "w") as fh:
        for cmd in steps:
            if subprocess.run(cmd, stdout=fh, stderr=subprocess.STDOUT,
                              env=clean_env()).returncode != 0:
                tail = log.read_text(errors="replace").splitlines()[-20:]
                raise BenchError("build failed:\n" + "\n".join(tail))


def binary_build_type(binary, env):
    """The build type the binary records in its own run report."""
    WORK.mkdir(parents=True, exist_ok=True)
    report = WORK / "provenance_report.json"
    subprocess.run([str(binary), "info", "off-chip", "--report", str(report)],
                   stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, env=env, check=True)
    return json.loads(report.read_text())["provenance"]["build_type"]


def git_commit():
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=10)
        return out.stdout.strip() if out.returncode == 0 else "unknown"
    except OSError:
        return "unknown"


def source_digest():
    """SHA-256 over the checkout's program sources: names the code without git."""
    h = hashlib.sha256()
    files = [ROOT / "CMakeLists.txt"] + [p for d in ("src", "tools")
                                         for p in (ROOT / d).rglob("*") if p.is_file()]
    for path in sorted(files):
        h.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def provenance(workload, seed, binary, env):
    build_type = binary_build_type(binary, env)
    if build_type != "Release":
        raise BenchError(f"{binary} is a {build_type!r} build; only Release is measured")
    nproc = os.cpu_count() or 1
    busy = SERVE_WORKERS + GENERATOR_THREADS if workload == "serve-mix" else CLI_THREADS
    if busy > nproc:
        raise BenchError(f"{workload} keeps {busy} threads busy but nproc is {nproc}")
    return {"workload": workload, "seed": seed, "nproc": nproc, "git_commit": git_commit(),
            "source_digest": source_digest(), "build_type": build_type, "binary": str(binary), "cli_threads": CLI_THREADS,
            "serve_workers": SERVE_WORKERS, "serve_window": SERVE_WINDOW,
            "generator_threads": GENERATOR_THREADS, "loadavg_before": os.getloadavg()}


# ---------------------------------------------------------------------------
# statistics
# ---------------------------------------------------------------------------

def tail_percentile(n):
    """Highest ladder percentile with at least ten samples beyond it."""
    for q in TAIL_LADDER:
        if n - math.ceil(q * n) >= 10:
            return q
    return None


def percentile(values, q):
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def sha256(data):
    return hashlib.sha256(data).hexdigest()


# ---------------------------------------------------------------------------
# inputs
# ---------------------------------------------------------------------------

def cli_args(op, bench, design, state=None, activity=None, alpha=None):
    argv = [op, bench]
    if op == "cooptimize":
        argv += ["--alpha", alpha]
    if op in ("analyze", "em-check"):
        argv += ["--state", state, "--activity", activity]
    if op == "montecarlo":
        argv += ["--samples", MC_SAMPLES]
    if op == "simulate":
        argv += ["--policy", "distr", "--limit", SIM_LIMIT]
    return argv + list(DESIGNS[design][0]) + ["--threads", str(CLI_THREADS)]


def cooptimize_universe():
    return [cli_args("cooptimize", b, 0, alpha=a) for b in COOPT_NOMINAL_S for a in ALPHAS]


def cli_universe():
    out = []
    for bench in BENCHMARKS:
        for design in range(3):
            for state in CLI_STATES:
                for activity in CLI_ACTIVITIES:
                    out.append(cli_args("analyze", bench, design, state, activity))
                out.append(cli_args("em-check", bench, design, state, "-1"))
            for op in ("lut", "montecarlo", "simulate"):
                out.append(cli_args(op, bench, design))
    return out


def balanced(rng, items, count):
    """`count` draws in which every item appears equally often (+-1), shuffled.

    Stratified draws keep each run's amount of work nearly independent of the
    seed, so seed-to-seed spread measures the program, not the input.
    """
    out = [items[i % len(items)] for i in range(count)]
    rng.shuffle(out)
    return out


def gen_cooptimize(rng, seconds):
    extra = max(1, round((seconds - COOPT_NOMINAL_S["hmc"]) / COOPT_NOMINAL_S["off-chip"]))
    benches = ["hmc"] + ["off-chip"] * extra
    rng.shuffle(benches)
    return [cli_args("cooptimize", b, 0, alpha=rng.choice(ALPHAS)) for b in benches]


def gen_cli(rng, seconds):
    """One seeded block, repeated in rounds, each round in its own order.

    Every round is the same work, so the median round is the run's wall and
    CPU time; a burst of host contention moves one round, not the result.
    Designs rotate over the slots by benchmark, the same for every seed, so
    the block's amount of work and its peak memory do not depend on the seed;
    the seed draws states, activities and order.
    """
    block = []
    for b, bench in enumerate(BENCHMARKS):
        for j, op in enumerate(CLI_SLOTS):
            design = (b + j) % 3
            if op in ("analyze", "em-check"):
                activity = rng.choice(CLI_ACTIVITIES) if op == "analyze" else "-1"
                block.append(cli_args(op, bench, design, rng.choice(CLI_STATES), activity))
            else:
                block.append(cli_args(op, bench, design))
    out = []
    for _ in range(max(1, round(seconds / CLI_BLOCK_NOMINAL_S))):
        rng.shuffle(block)
        out += block
    return out


def gen_serve(rng, seconds):
    """(warm-up requests, measured stream) for serve-mix.

    The stream is SERVE_SEGMENTS segments of equal composition; a repeat
    copies an earlier request of its own segment, since each segment meets a
    fresh server and its empty result cache.
    """
    working = [(b, d) for b in BENCHMARKS for d in SERVE_WORKING_SET]
    warm = [{"id": 1_000_000 + i, "op": "evaluate", "benchmark": b,
             "design": DESIGNS[d][1], "cache": "bypass"} for i, (b, d) in enumerate(working)]
    warm += [{"id": 2_000_000 + i, "op": "lut", "benchmark": b, "design": DESIGNS[d][1]}
             for i, (b, d) in enumerate(working)]
    n = max(10, round(seconds * SERVE_NOMINAL_RPS / SERVE_SEGMENTS))
    stream = []
    for _ in range(SERVE_SEGMENTS):
        stream += gen_serve_segment(rng, n, working, len(stream))
    return warm, stream


def gen_serve_segment(rng, n, working, first_id):
    kinds = []
    for kind, share in SERVE_MIX:
        kinds += [kind] * round(share * n)
    kinds += ["evaluate"] * (n - len(kinds))
    rng.shuffle(kinds)
    first = next(i for i, k in enumerate(kinds) if k != "repeat")  # a repeat needs history
    kinds[0], kinds[first] = kinds[first], kinds[0]
    # Each kind visits the working set's designs equally often.
    targets = {k: iter(balanced(rng, working, kinds.count(k)))
               for k in sorted(set(kinds) - {"repeat"})}
    samples = iter(balanced(rng, (32, 64), kinds.count("montecarlo")))
    segment = []
    for i, kind in enumerate(kinds):
        if kind == "repeat":
            back = min(i, 1 + int(rng.expovariate(1.0 / SERVE_REPEAT_MEAN_BACK)))
            req = dict(segment[i - back])
        else:
            bench, d = next(targets[kind])
            design = dict(DESIGNS[d][1])
            op = "evaluate" if kind.startswith("evaluate") else kind
            req = {"op": op, "benchmark": bench}
            if op in ("evaluate", "em-check"):
                req["state"] = rng.choice(STATES)
                req["activity"] = round(rng.uniform(0.05, 1.0), 3)
            if kind in ("evaluate-em", "em-check"):
                design["em-temp"] = rng.choice((55, 85, 105))
            if op == "montecarlo":
                req["samples"] = next(samples)
            req["design"] = design
        req["id"] = first_id + i
        segment.append(req)
    return segment


def encode(row):
    return json.dumps(row, sort_keys=True, separators=(",", ":")).encode() + b"\n"


def write_lines(path, rows):
    data = b"".join(encode(r) for r in rows)
    path.write_bytes(data)
    return data


def make_input(workload, seed, seconds, workdir):
    """Materialize the workload's whole input; returns (digest, generated rows)."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "serve-mix":
        warm, stream = gen_serve(rng, seconds)
        blob = write_lines(workdir / "warm.ndjson", warm)
        blob += write_lines(workdir / "stream.ndjson", stream)
        return sha256(blob), (warm, stream)
    rows = gen_cooptimize(rng, seconds) if workload == "cooptimize" else gen_cli(rng, seconds)
    return sha256(write_lines(workdir / "invocations.jsonl", rows)), rows


def identity(argv):
    """The reference key of an invocation (thread count does not change output)."""
    return " ".join(argv[:-2] if argv[-2:-1] == ["--threads"] else argv)


def serve_to_cli(req):
    """The one-shot CLI invocation whose stdout a served request must equal."""
    op = "analyze" if req["op"] == "evaluate" else req["op"]
    argv = [op, req["benchmark"]]
    if "state" in req:
        argv += ["--state", req["state"], "--activity", repr(req["activity"])]
    if "samples" in req:
        argv += ["--samples", str(req["samples"])]
    for key, value in sorted(req["design"].items()):
        argv += [f"--{key}", str(value)]
    return argv + ["--threads", str(CLI_THREADS)]


# ---------------------------------------------------------------------------
# workload loops
# ---------------------------------------------------------------------------

def run_cli(binary, argv, env):
    """One invocation: (stdout bytes, exit code, wall s, cpu s, peak rss MB)."""
    t0 = time.perf_counter()
    proc = subprocess.Popen([str(binary), *argv], stdout=subprocess.PIPE,
                            stderr=subprocess.DEVNULL, env=env)
    watchdog = threading.Timer(CLI_TIMEOUT_S, proc.kill)
    watchdog.start()
    try:
        out = proc.stdout.read()
        proc.stdout.close()
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        watchdog.cancel()
    wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return out, proc.returncode, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0


class Server:
    """`pdn3d serve` on a pipe pair, driven from this one thread."""

    def __init__(self, binary, env):
        self.proc = subprocess.Popen([str(binary), "serve", "--threads", str(SERVE_WORKERS)],
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                     stderr=subprocess.DEVNULL, env=env, bufsize=0)
        self.sel = selectors.DefaultSelector()
        self.sel.register(self.proc.stdout, selectors.EVENT_READ)
        self.buf = b""

    def send(self, line):
        self.proc.stdin.write(line)

    def responses(self, timeout=SERVE_TIMEOUT_S):
        """Block until at least one response line arrives; returns (t, dict) pairs."""
        while b"\n" not in self.buf:
            if not self.sel.select(timeout):
                raise BenchError("serve: no response within timeout")
            chunk = os.read(self.proc.stdout.fileno(), 1 << 20)
            if not chunk:
                raise BenchError("serve: server exited early")
            self.buf += chunk
        now = time.perf_counter()
        *lines, self.buf = self.buf.split(b"\n")
        return [(now, json.loads(line)) for line in lines]

    def call(self, obj):
        self.send(encode(obj))
        (_, resp), = self.responses()
        return resp

    def cpu_seconds(self):
        fields = Path(f"/proc/{self.proc.pid}/stat").read_text().rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")

    def vm_hwm_mb(self):
        for line in Path(f"/proc/{self.proc.pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
        raise BenchError("serve: VmHWM not reported")

    def close(self):
        """Drain and stop the server (killed if it does not exit); idempotent."""
        if self.proc.stdin.closed:
            return
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=SERVE_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()
        self.sel.close()


def load_references():
    return json.loads(REFERENCES.read_text())


def cli_workload(workload, seed, seconds, binary, env, workdir):
    refs = load_references()
    setups = []
    digests = set()

    def set_up():
        t0 = time.perf_counter()
        digest, rows = make_input(workload, seed, seconds, workdir)
        run_cli(binary, CLI_WARMUP, env)
        setups.append(time.perf_counter() - t0)
        digests.add(digest)
        return digest, rows

    digest, rows = set_up()
    # The host runs fast or slow for seconds at a time, so the other set-ups
    # are spread over the run, between ops and outside their timings.
    again = [(j + 1) * len(rows) // SETUP_REPEATS for j in range(SETUP_REPEATS - 1)]
    # cooptimize is one round of a few long requests; cli-oneshot repeats
    # one block, and its wall time, CPU time and peak RSS are those of the
    # median round.
    size = len(rows) if workload == "cooptimize" else CLI_ROUND
    obs = []
    round_wall, round_cpu, round_rss = [], [], []
    for start in range(0, len(rows), size):
        wall_sum = cpu = rss = 0.0
        for i in range(start, min(start + size, len(rows))):
            for _ in range(again.count(i)):
                set_up()
            out, rc, wall, c, r = run_cli(binary, rows[i], env)
            wall_sum += wall
            cpu += c
            rss = max(rss, r)
            obs.append({"argv": rows[i], "rc": rc, "wall": wall, "out": out})
        round_wall.append(wall_sum)
        round_cpu.append(cpu)
        round_rss.append(rss)
    if len(digests) != 1:
        raise BenchError("input generation is not deterministic")
    wall_s = statistics.median(round_wall)
    failed = 0
    for o in obs:
        ref = refs.get(identity(o["argv"]))
        o["ok"] = o["rc"] == 0 and ref is not None and sha256(o["out"]) == ref
        failed += not o["ok"]
    lat = [o["wall"] * 1000.0 for o in obs]
    if workload == "cooptimize":
        # Too few requests for percentiles: both latency metrics are the mean
        # request time (wall_s / requests).
        p50 = tail = wall_s * 1000.0 / len(obs)
        q = None
    else:
        q = tail_percentile(len(lat))
        p50, tail = statistics.median(lat), percentile(lat, q)
    metrics = {"setup_s": statistics.median(setups), "wall_s": wall_s,
               "ops_per_s": size / wall_s, "cpu_s": statistics.median(round_cpu),
               "latency_p50_ms": p50, "latency_tail_ms": tail,
               "rss_peak_mb": statistics.median(round_rss)}
    info = {"input_digest": digest, "ops": len(obs), "rounds": len(round_wall),
            "round_ops": size, "tail_percentile": q}
    return metrics, info, obs, failed


def serve_setup(server, warm):
    """Ready check, then one request per working-set design in turn (stack
    build + sparse factor), then the designs' LUTs, all at once."""
    if not server.call({"id": 0, "op": "ping"}).get("ok"):
        raise BenchError("serve: ping failed")
    evaluates = [r for r in warm if r["op"] == "evaluate"]
    resps = [server.call(r) for r in evaluates]
    for r in warm[len(evaluates):]:
        server.send(encode(r))
    while len(resps) < len(warm):
        resps += [resp for _, resp in server.responses()]
    for resp in resps:
        if not resp.get("ok"):
            raise BenchError(f"serve: warm-up request failed: {resp}")


def serve_phase(server, segment):
    """The closed loop: SERVE_WINDOW requests outstanding on one connection.

    Returns send and receive times by request id, wall and CPU seconds of the
    segment, and the server's peak RSS.
    """
    lines = [encode(r) for r in segment]
    ids = [r["id"] for r in segment]
    sent_at = {}
    got = {}
    cpu0 = server.cpu_seconds()
    t0 = time.perf_counter()
    nxt = 0
    while nxt < min(SERVE_WINDOW, len(lines)):
        sent_at[ids[nxt]] = time.perf_counter()
        server.send(lines[nxt])
        nxt += 1
    while len(got) < len(lines):
        for t, resp in server.responses():
            got[resp["id"]] = (t, resp)
            if nxt < len(lines):
                sent_at[ids[nxt]] = time.perf_counter()
                server.send(lines[nxt])
                nxt += 1
    wall_s = time.perf_counter() - t0
    return sent_at, got, wall_s, server.cpu_seconds() - cpu0, server.vm_hwm_mb()


def serve_workload(seed, seconds, binary, env, workdir):
    setups, walls, cpus, rsss = [], [], [], []
    digests = set()
    sent_at, got = {}, {}
    for k in range(SERVE_SEGMENTS):
        t0 = time.perf_counter()
        digest, (warm, stream) = make_input("serve-mix", seed, seconds, workdir)
        digests.add(digest)
        server = Server(binary, env)
        try:
            serve_setup(server, warm)
            setups.append(time.perf_counter() - t0)
            n = len(stream) // SERVE_SEGMENTS
            sent, recv, wall_s, cpu, rss = serve_phase(server, stream[k * n:(k + 1) * n])
        finally:
            server.close()
        sent_at.update(sent)
        got.update(recv)
        walls.append(wall_s)
        cpus.append(cpu)
        rsss.append(rss)
    if len(digests) != 1:
        raise BenchError("input generation is not deterministic")

    obs = []
    by_identity = {}
    for req in stream:
        t, resp = got[req["id"]]
        ok = bool(resp.get("ok"))
        key = json.dumps({k: v for k, v in req.items() if k != "id"}, sort_keys=True)
        o = {"req": req, "key": key, "lat_ms": (t - sent_at[req["id"]]) * 1000.0, "ok": ok,
             "queue_ms": resp.get("queue_ms", 0.0), "run_ms": resp.get("run_ms", 0.0),
             "cache": resp.get("cache"), "output": resp.get("output")}
        obs.append(o)
        if ok:
            by_identity.setdefault(key, set()).add(o["output"])
    for o in obs:  # fresh, coalesced and cached answers of one identity agree
        if o["ok"] and len(by_identity[o["key"]]) != 1:
            o["ok"] = False
    parity_rng = random.Random(f"parity:{seed}")
    for o in parity_rng.sample(obs, min(SERVE_PARITY_SAMPLE, len(obs))):
        out, rc, *_ = run_cli(binary, serve_to_cli(o["req"]), env)
        if rc != 0 or o["output"] is None or out != o["output"].encode():
            o["ok"] = False
    failed = sum(not o["ok"] for o in obs)
    lat = [o["lat_ms"] for o in obs]
    q = tail_percentile(len(lat))
    wall_s = statistics.median(walls)
    metrics = {"setup_s": statistics.median(setups), "wall_s": wall_s,
               "ops_per_s": len(obs) / SERVE_SEGMENTS / wall_s, "cpu_s": statistics.median(cpus),
               "latency_p50_ms": statistics.median(lat), "latency_tail_ms": percentile(lat, q),
               "rss_peak_mb": statistics.median(rsss)}
    info = {"input_digest": digest, "ops": len(obs), "segments": SERVE_SEGMENTS,
            "tail_percentile": q,
            "repeat_share": 1.0 - len({o["key"] for o in obs}) / len(obs)}
    return metrics, info, obs, failed


def run_e2e(workload, seed, seconds, binary, env):
    workdir = WORK / workload
    workdir.mkdir(parents=True, exist_ok=True)
    if workload == "serve-mix":
        return serve_workload(seed, seconds, binary, env, workdir)
    return cli_workload(workload, seed, seconds, binary, env, workdir)


# ---------------------------------------------------------------------------
# traced replay
# ---------------------------------------------------------------------------

def run_replay(workload, timing, env):
    workdir = WORK / workload
    out = workdir / f"replay{timing}"
    if out.exists():
        shutil.rmtree(out)
    out.mkdir()
    cmd = [str(TRACER), "--workload", workload, "--input", str(workdir), "--out", str(out),
           "--timing", str(timing), "--threads", str(CLI_THREADS),
           "--workers", str(SERVE_WORKERS), "--window", str(SERVE_WINDOW),
           "--segments", str(SERVE_SEGMENTS)]
    try:
        proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              text=True, timeout=REPLAY_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError(f"replay did not finish within {REPLAY_TIMEOUT_S} s") from None
    if proc.returncode != 0:
        raise BenchError(f"replay failed ({proc.returncode}): {proc.stderr[-2000:]}")
    return json.loads((out / "result.json").read_text()), out


def replay_mismatches(workload, e2e_obs, out_dir):
    """Ops whose replayed output differs from the end-to-end output."""
    bad = 0
    for i, o in enumerate(e2e_obs):
        replayed = (out_dir / f"op{i}.out").read_bytes()
        served = o["out"] if workload != "serve-mix" else (o["output"] or "").encode()
        bad += replayed != served
    return bad


def gap_metrics(workload, e2e_obs, replay):
    """The gaps between the end-to-end run and the untimed in-process replay:
    process overhead (CLI) and transport (serve)."""
    m = {}
    if workload == "serve-mix":
        m["service.transport_ms_p50"] = statistics.median(
            o["lat_ms"] - o["queue_ms"] - o["run_ms"] for o in e2e_obs)
    elif workload == "cli-oneshot":
        inproc = replay["op_ms"]
        m["cli.process_overhead_ms"] = statistics.median(
            o["wall"] * 1000.0 - inproc[i] for i, o in enumerate(e2e_obs))
    return m


def traced_metrics(workload, e2e_obs, env, spec):
    plain, plain_dir = run_replay(workload, 0, env)
    timed, timed_dir = run_replay(workload, 1, env)
    failures = timed["failures"] + plain["failures"]
    failures += replay_mismatches(workload, e2e_obs, timed_dir)
    failures += replay_mismatches(workload, e2e_obs, plain_dir)
    metrics = dict(timed["metrics"])
    metrics.update(gap_metrics(workload, e2e_obs, plain))
    metrics["trace.overhead_ratio"] = timed["replay_wall_s"] / plain["replay_wall_s"]
    declared = {m["name"]: m["unit"] for m in spec["per_layer"]}
    unknown = set(metrics) - set(declared)
    if unknown:
        raise BenchError(f"replay reports undeclared metrics: {sorted(unknown)}")
    return {name: {"value": metrics.get(name, 0.0), "unit": unit}
            for name, unit in declared.items()}, failures, timed.get("notes", {})


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def one_run(args, spec, binary, env):
    prov = provenance(args.workload, args.seed, binary, env)
    metrics, info, obs, failed = run_e2e(args.workload, args.seed, args.seconds, binary, env)
    result_metrics = {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                      for m in spec["end_to_end"]}
    notes = {}
    if args.trace:
        result_metrics, replay_failed, notes = traced_metrics(args.workload, obs, env, spec)
        failed += replay_failed
    prov["loadavg_after"] = os.getloadavg()
    prov.update(info)
    print(json.dumps({"provenance": prov, "notes": notes}, sort_keys=True))
    print(f"input digest {info['input_digest']}")
    return {"correct": failed == 0, "attempted": info["ops"], "failed": failed,
            "metrics": result_metrics}


def repeat_mode(args, spec, env):
    binaries = [Path(b).resolve() for b in args.binary] or [CLI]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    values = {b: {name: [] for name in bounds} for b in binaries}
    for k in range(args.repeat):
        order = binaries if k % 2 == 0 else binaries[::-1]
        for b in order:
            run_args = argparse.Namespace(**{**vars(args), "seed": args.seed + k, "trace": 0})
            res = one_run(run_args, spec, b, env)
            print(json.dumps({"binary": str(b), "seed": run_args.seed, **res}), flush=True)
            for name in bounds:
                values[b][name].append(res["metrics"][name]["value"])
    for b in binaries:
        print(f"\n{args.workload} x{args.repeat}  {b}")
        print(f"{'metric':18s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>8s} {'bound':>6s}")
        for name, vals in values[b].items():
            q1, med, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (vals[0],) * 3
            spread = (q3 - q1) / med if med else float("nan")
            print(f"{name:18s} {med:12.4f} {q1:12.4f} {q3:12.4f} {spread:8.3f} {bounds[name]:6.2f}")


def record_references(env):
    refs = {}
    for argv in cooptimize_universe() + cli_universe():
        out, rc, *_ = run_cli(CLI, argv, env)
        if rc != 0:
            raise BenchError(f"reference run failed ({rc}): {' '.join(argv)}")
        refs[identity(argv)] = sha256(out)
    REFERENCES.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
    print(f"recorded {len(refs)} references in {REFERENCES}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=None)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--repeat", type=int, default=0, help="run K times and print spreads")
    ap.add_argument("--binary", action="append", default=[],
                    help="measure this pdn3d instead of the built one (repeat mode; "
                         "give two to alternate them in pairs)")
    ap.add_argument("--record-references", action="store_true")
    args = ap.parse_args()
    try:
        spec = json.loads(SPEC.read_text()) if SPEC.exists() else None
        build()
        env = clean_env()
        if args.record_references:
            record_references(env)
            return 0
        if spec is None:
            raise BenchError(f"{SPEC} not found")
        if args.workload is None:
            ap.error("--workload is required")
        if args.seconds is None:
            args.seconds = spec["run_seconds"]
        if args.repeat:
            repeat_mode(args, spec, env)
            return 0
        result = one_run(args, spec, CLI, env)
    except BenchError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
