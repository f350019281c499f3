#!/usr/bin/env python3
"""The repository benchmark: four end-to-end workloads and a traced run.

One run, from the root of a checkout:

    python3 perfbench/run.py --workload tables-medium --seed 1 --seconds 10 --trace 0

builds the program from source, generates the workload's request
schedule from the seed, measures it, checks the answers and prints one
JSON object as the last line of standard output: the end-to-end
metrics with --trace 0, the per-layer metrics with --trace 1.

Other modes:

    --suite --runs N --out FILE   every workload N times untraced and
                                  once traced, into one result file
    --compare A B                 per-metric medians, quartiles and
                                  deltas of two result files
    --check FILE                  schema check of a result file
    --smoke                       every workload once, briefly

perfbench/README.md explains the workloads, metrics and layers.
"""

import argparse
import hashlib
import json
import math
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
BENCHMARK = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")
DIGESTS = os.path.join(HERE, "digests.json")
RUNS_DIR = ".perfbench"
CLI = os.path.join("_build", "default", "bin", "ndetect_cli.exe")
WORKER = os.path.join("_build", "default", "perfbench", "pb.exe")

WORKLOADS = ["tables-medium", "sim-wide", "def2", "serve-warm"]
DEFAULT_SEED = 1
RESULT_SCHEMA = "perfbench-results/1"

# The suite circuits of the small and medium tiers, in registry order
# (the order of the paper's Table 2).
SMALL = ["c17", "lion", "dk27", "ex5", "train4", "bbtas", "dk15", "dk512",
         "dk14", "dk17", "firstex", "lion9", "mc", "modulo12", "s8", "tav",
         "ex7", "train11", "beecount", "ex3"]
MEDIUM_ORDER = ["c17", "lion", "dk27", "ex5", "train4", "bbtas", "dk15",
                "dk512", "dk14", "dk17", "firstex", "lion9", "mc", "dk16",
                "modulo12", "s8", "tav", "donfile", "ex7", "train11",
                "beecount", "ex2", "ex3", "ex6", "mark1", "bbara", "ex4",
                "opus"]

# def2: Definition 2 sets per request, sized so that one pass over mark1
# and ex4 takes about 10 s on a 2-core x86 machine. Definition 2's cost
# depends strongly on which sets are drawn (at K2 = 1 a pass took 3.0 s
# to 4.3 s across five seeds), and peak memory on the order of the two
# requests (154 vs 196 MiB), so this workload does not use the run
# seed: Procedure 1's seed is pinned to the paper default and every run
# builds the same sets in the same order.
DEF2_K2 = 3
DEF2_DOMAINS = 2
DEF2_PROCEDURE1_SEED = 1

# serve-warm traffic: a closed loop over two connections, since each
# caller waits for its reply. Every warm circuit below is asked for its
# Worst section the same number of times (resident reads); the medium
# circuits below arrive cold, once each (build + Table_cache.store);
# sampled requests bypass the table cache, and some are
# sent as identical pairs from both connections at once, so that the
# second joins the first in flight. The seed orders the requests and
# draws the sampling seeds, so every seed does the same amount of work.
# The warm circuits are the small tier without dk14 and tav, whose Worst
# costs 110-145 ms a request against at most ~35 ms for the others: left
# in, they took half the loop's time and their collisions on the single
# executor made up the sparse tail that req_p99_ms fell in, so its spread
# over seeds came close to its bound. Without them 2000 requests take
# half as long as 1000 did, and req_p99_ms has twenty samples beyond it.
# A medium circuit costs 100-550 ms a request, and each one also holds up
# the request queued behind it; asked once each, they and those requests
# stay well inside the twenty, so that req_p99_ms falls among the warm
# requests instead of on the edge between the two.
# The resident budget is below the ~10 MiB working set, so the cold
# tables evict a few resident ones and later requests reload them from
# the cache.
SERVE_WARM = [name for name in SMALL if name not in ("dk14", "tav")]
SERVE_WARM_REPEATS = 100
SERVE_COLD = ["ex6", "opus", "bbara", "ex2"]
SERVE_SAMPLED = 184
SERVE_PAIRS = 6
SERVE_SAMPLED_CIRCUIT = "mc"
SERVE_RESIDENT_MB = 8
SERVE_SETUP_REPEATS = 5
READY_REPEATS = 15


def request(label, sections, seed, **extra):
    req = {"label": label, "source": {"kind": "suite", "value": label},
           "sections": sections, "seed": seed}
    req.update(extra)
    return req


def rng(seed, workload):
    digest = hashlib.sha256(("%s/%d" % (workload, seed)).encode()).hexdigest()
    return random.Random(int(digest[:16], 16))


def schedule(workload, seed):
    """The request schedule of one workload, a pure function of the seed."""
    if workload == "tables-medium":
        return {"requests": [
            {"id": name, "request": request(name, ["worst", "average"], seed)}
            for name in MEDIUM_ORDER]}
    if workload == "sim-wide":
        iscas = "examples/iscas85_scale.bench"
        return {"requests": [
            {"id": "rie", "request": request("rie", ["worst"], seed)},
            {"id": "iscas85_scale",
             "request": {"label": iscas,
                         "source": {"kind": "file", "value": iscas},
                         "sections": ["worst"], "seed": seed,
                         "universe": {"samples": 2000, "strata": 16,
                                      "confidence": 0.95}}}]}
    if workload == "def2":
        return {"requests": [
            {"id": name, "request": request(name, ["average_def2"],
                                            DEF2_PROCEDURE1_SEED, k2=DEF2_K2,
                                            domains=DEF2_DOMAINS)}
            for name in ["mark1", "ex4"]]}
    if workload == "serve-warm":
        return serve_schedule(seed)
    raise SystemExit("unknown workload %r" % workload)


def serve_schedule(seed):
    r = rng(seed, "serve-warm")

    def worst(name):
        return {"id": name, "request": request(name, ["worst"], 1)}

    def sampled():
        s = r.randrange(1, 1 << 30)
        return {"id": "%s-sampled-%d" % (SERVE_SAMPLED_CIRCUIT, s),
                "request": request(SERVE_SAMPLED_CIRCUIT, ["worst"], s,
                                   universe={"samples": 16, "strata": 4,
                                             "confidence": 0.95})}

    body = [worst(name) for name in SERVE_WARM
            for _ in range(SERVE_WARM_REPEATS)]
    body += [sampled() for _ in range(SERVE_SAMPLED)]
    r.shuffle(body)
    # The cold circuits arrive evenly spaced over the first half, in a
    # fixed order. The daemon's peak memory is set by the largest build
    # (ex2) and by the tables resident when it runs: in seeded places and
    # order, peak_rss_mb ranged from 75 to 93 MiB across seeds.
    step = len(body) // (2 * len(SERVE_COLD))
    for k, name in enumerate(SERVE_COLD):
        body.insert((k + 1) * step, worst(name))
    streams = [[], []]
    for i, it in enumerate(body):
        streams[i % 2].append(dict(it, sync=0))
    # Identical pairs: the same sampled request on both connections,
    # released together by a barrier.
    for k in range(1, SERVE_PAIRS + 1):
        pair = sampled()
        pos = (k * len(streams[0])) // (SERVE_PAIRS + 1)
        for s in streams:
            s.insert(min(pos + k - 1, len(s)), dict(pair, sync=k))
    return {"warmup": [worst(name) for name in SERVE_WARM], "streams": streams}


# ---------------------------------------------------------------- build

def build():
    """Build the CLI and the worker from source in this checkout."""
    for need in ("dune-project", "lib", "bin"):
        if not os.path.exists(need):
            raise BenchError("not the root of a source checkout: %s is missing"
                             % need)
    # Everything the build and the runs write stays in the checkout,
    # compiler temporaries included.
    tmp = os.path.abspath(os.path.join(RUNS_DIR, "tmp"))
    os.makedirs(tmp, exist_ok=True)
    os.environ["TMPDIR"] = tmp
    env = dict(os.environ, DUNE_CACHE="disabled")
    proc = subprocess.run(
        ["dune", "build", "--root", ".", "./bin/ndetect_cli.exe",
         "./perfbench/pb.exe"],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout)
        raise BenchError("build failed")


class BenchError(Exception):
    pass


def run_proc(argv, timeout=170, **kw):
    proc = subprocess.run(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=timeout, **kw)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise BenchError("%s exited with %d" % (" ".join(argv[:2]),
                                                  proc.returncode))
    return proc


def fresh_dir(path):
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


# ----------------------------------------------------------- statistics

def percentile(values, q):
    """Percentile q (1..99), linearly interpolated between samples."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


# ------------------------------------------------------------- workloads

def write_schedule(run_dir, workload, seed):
    path = os.path.join(run_dir, "schedule.json")
    with open(path, "w") as f:
        json.dump(schedule(workload, seed), f)
    return path


def batch_setup(sched):
    """Set-up of a batch workload: start the worker and decode the
    schedule, up to the point where the measured phase would begin."""
    times = []
    for _ in range(READY_REPEATS):
        t0 = time.perf_counter()
        run_proc([WORKER, "ready", "--schedule", sched], timeout=60)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def differing(expected, digests):
    """The requests (ids before any "#section") whose digest differs."""
    return {k.split("#")[0] for k, v in expected.items() if digests.get(k) != v}


def batch_pass(run_dir, sched, traced=False):
    """One pass over the schedule, in a fresh worker process."""
    out = os.path.join(run_dir, "traced.json" if traced else "pass.json")
    run_proc([WORKER, "batch", "--schedule", sched, "--out", out]
             + (["--trace"] if traced else []))
    with open(out) as f:
        return json.load(f)


def run_batch(run_dir, sched, seconds):
    """Passes until `seconds` have gone by (at least one), each in its own
    process, so every pass pays what one command-line run pays. A pass
    that answers differently from the first fails its requests."""
    start = time.perf_counter()
    passes = [batch_pass(run_dir, sched)]
    while time.perf_counter() - start < seconds:
        p = batch_pass(run_dir, sched)
        p["failed"] = min(p["attempted"], p["failed"] + len(
            differing(passes[0]["digests"], p["digests"])))
        passes.append(p)
    return {
        "passes": passes,
        "attempted": sum(p["attempted"] for p in passes),
        "failed": sum(p["failed"] for p in passes),
        "hwm_kb": statistics.median(p["hwm_kb"] for p in passes),
        "digests": passes[0]["digests"],
    }


class Daemon:
    """An `ndetect serve` process whose socket, table cache and log live
    in the (empty) directory `path`."""

    def __init__(self, path):
        self.socket = os.path.join(path, "s")
        self.cache = os.path.join(path, "cache")
        with open(os.path.join(path, "serve.log"), "w") as log:
            self.proc = subprocess.Popen(
                [CLI, "serve", "--socket", self.socket, "--table-cache",
                 self.cache, "--resident-mb", str(SERVE_RESIDENT_MB), "--quiet"],
                stdout=subprocess.DEVNULL, stderr=log)
        deadline = time.monotonic() + 30
        while not os.path.exists(self.socket):
            if self.proc.poll() is not None or time.monotonic() > deadline:
                self.stop()
                raise BenchError("ndetect serve did not start")
            time.sleep(0.002)

    def cpu_s(self):
        with open("/proc/%d/stat" % self.proc.pid) as f:
            fields = f.read().rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")

    def hwm_kb(self):
        with open("/proc/%d/status" % self.proc.pid) as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
        return 0

    def stop(self):
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()


def serve_setup(run_dir, sched, repeats):
    """Spawn the daemon and warm its resident store, `repeats` times;
    returns the median set-up time and the last (running) daemon."""
    times, daemon = [], None
    for _ in range(repeats):
        if daemon is not None:
            daemon.stop()
        path = fresh_dir(os.path.join(run_dir, "daemon"))
        t0 = time.perf_counter()
        daemon = Daemon(path)
        try:
            run_proc([WORKER, "warm", "--socket", daemon.socket,
                      "--schedule", sched], timeout=120)
        except BaseException:
            daemon.stop()
            raise
        times.append(time.perf_counter() - t0)
    return statistics.median(times), daemon


def run_serve(run_dir, sched, traced, setup_repeats):
    setup_s, daemon = serve_setup(run_dir, sched, setup_repeats)
    out = os.path.join(run_dir, "result.json")
    try:
        cpu0 = daemon.cpu_s()
        argv = [WORKER, "client", "--socket", daemon.socket, "--cache",
                daemon.cache, "--schedule", sched, "--out", out]
        if traced:
            argv.append("--trace")
        run_proc(argv)
        cpu = daemon.cpu_s() - cpu0
        hwm = daemon.hwm_kb()
    finally:
        daemon.stop()
    with open(out) as f:
        res = json.load(f)
    res["setup_s"] = setup_s
    res["daemon_cpu_s"] = cpu
    res["hwm_kb"] = hwm
    return res


# --------------------------------------------------------------- metrics

def load_digests():
    with open(DIGESTS) as f:
        return json.load(f)


def check_digests(workload, seed, digests):
    """The requests that answer differently from the answers recorded for
    this workload: all of them at the default seed, and at any seed the
    ones that do not depend on it."""
    ref = load_digests()["workloads"].get(workload, {})
    expect = dict(ref.get("seed_free", {}))
    if seed == DEFAULT_SEED:
        expect.update(ref.get("default_seed", {}))
    return differing(expect, digests)


def end_to_end(workload, seed, res, setup_s):
    if workload == "serve-warm":
        reqs = res["requests"]
        lat = [r["rtt_s"] for r in reqs if r["ok"]]
        wall = res["wall_s"]
        cpu = res["daemon_cpu_s"]
        rate = len(lat) / wall
    else:
        passes = res["passes"]
        wall = statistics.median(p["wall_s"] for p in passes)
        cpu = statistics.median(p["cpu_s"] for p in passes)
        lat = [x for p in passes for x in p["req_s"]]
        rate = len(lat) / sum(p["wall_s"] for p in passes)
    attempted = res["attempted"]
    mismatched = check_digests(workload, seed, res["digests"])
    failed = min(attempted, res["failed"] + len(mismatched))
    metrics = {
        "wall_s": (wall, "s"),
        "cpu_s": (cpu, "s"),
        "peak_rss_mb": (res["hwm_kb"] / 1024.0, "MiB"),
        "setup_s": (setup_s, "s"),
        "ok_ratio": (1.0 - failed / float(attempted), "ratio"),
        "req_p50_ms": (1000 * percentile(lat, 50) if lat else 0.0, "ms"),
        "req_p99_ms": (1000 * percentile(lat, 99) if lat else 0.0, "ms"),
        "req_per_s": (rate, "1/s"),
    }
    notes = ["requests completed: %d" % len(lat)]
    notes += ["answer differs from the recorded one: %s" % m
              for m in sorted(mismatched)]
    return metrics, attempted, failed, notes


LAYER_METRICS = [
    ("suite.circuit_s", "s"), ("faults.enumerate_s", "s"),
    ("sim.good_s", "s"), ("sim.targets_s", "s"), ("sim.untargeted_s", "s"),
    ("sim.detection_sets", "count"), ("sim.cone_propagations", "count"),
    ("sim.stem_regions", "count"), ("table.finalize_s", "s"),
    ("table.layout_s", "s"), ("table.dedup_ratio", "ratio"),
    ("table.finalize_major_mb", "MiB"), ("worst.compute_s", "s"),
    ("worst.kernel_calls", "count"), ("worst.early_exit_ratio", "ratio"),
    ("procedure1.def1_s", "s"), ("procedure1.def2_s", "s"),
    ("estimate.analyze_s", "s"), ("est.samples_drawn", "count"),
    ("report.render_s", "s"), ("rpc.encode_ms", "ms"),
    ("rpc.decode_ms", "ms"), ("api.run_ms", "ms"),
    ("serve.overhead_ms", "ms"), ("table_cache.load_ms", "ms"),
    ("table_cache.store_ms", "ms"), ("table_cache.hit_ratio", "ratio"),
    ("serve.dedup_joins", "count"), ("serve.evictions", "count"),
    ("trace.wall_s", "s"), ("trace.overhead_s", "s"),
    ("trace.coverage", "ratio"),
]

# Largest share of a lane's wall time that may sit outside every layer.
COVERAGE_TOLERANCE = 0.05


def ratio(a, b):
    return a / b if b else 0.0


def median_or_zero(values):
    return statistics.median(values) if values else 0.0


def span_total(spans, name):
    return sum(s["end"] - s["start"] for s in spans if s["name"] == name)


def per_layer(workload, res, untraced_wall):
    values = {name: 0.0 for name, _ in LAYER_METRICS}
    if workload == "serve-warm":
        reqs = res["requests"]
        c = res["counters"]
        values.update({
            "rpc.encode_ms": 1000 * median_or_zero([r["encode_s"] for r in reqs]),
            "rpc.decode_ms": 1000 * median_or_zero([r["decode_s"] for r in reqs]),
            "api.run_ms": 1000 * median_or_zero([r["api_run_s"] for r in reqs]),
            "serve.overhead_ms": 1000 * median_or_zero(
                [r["rtt_s"] - r["api_run_s"] for r in reqs]),
            "table_cache.load_ms": median_or_zero(res["load_ms"]),
            "table_cache.store_ms": median_or_zero(res["store_ms"]),
            "table_cache.hit_ratio": ratio(
                c["table_cache.hits"],
                c["table_cache.hits"] + c["table_cache.misses"]),
            "serve.dedup_joins": c["serve.dedup_joins"],
            "serve.evictions": c["serve.evictions"],
            "report.render_s": span_total(res["spans"], "report.render"),
        })
        traced_wall = res["wall_s"]
    else:
        lay = res["layers"]
        for name, _ in LAYER_METRICS:
            if name in lay:
                values[name] = lay[name]
        values["table.dedup_ratio"] = ratio(lay["table.dedup_hits"],
                                            lay["table.build_detection_sets"])
        values["worst.early_exit_ratio"] = ratio(lay["worst.early_exits"],
                                                 lay["worst.untargeted_faults"])
        traced_wall = res["wall_s"]
    cov = res["coverage"]
    main = max(cov, key=lambda c: c["wall_s"])
    values["trace.wall_s"] = traced_wall
    values["trace.overhead_s"] = traced_wall - untraced_wall
    values["trace.coverage"] = ratio(main["layers_s"], main["wall_s"])
    notes = []
    uncovered = []
    for c in cov:
        share = ratio(c["remainder_s"], c["wall_s"])
        notes.append("coverage %-14s wall %.3f s, layers %.3f s, remainder "
                     "%.4f s (%.2f%%) in %s" % (c["lane"], c["wall_s"],
                                                c["layers_s"], c["remainder_s"],
                                                100 * share, c["remainder_in"]))
        if share > COVERAGE_TOLERANCE:
            uncovered.append(c["lane"])
    metrics = {name: (values[name], unit) for name, unit in LAYER_METRICS}
    return metrics, uncovered, notes


def layer_shares(metrics):
    """Each timed layer's share of their sum, which counts every layer
    once (table.finalize_s is derived, so the simulation that
    Detection_table.build repeats is not counted twice)."""
    rows = sorted(((v, n) for n, (v, u) in metrics.items()
                   if u == "s" and not n.startswith("trace.") and v > 0),
                  reverse=True)
    total = sum(v for v, _ in rows)
    return ["share %-22s %6.2f%% of %.3f s" % (n, 100 * v / total, total)
            for v, n in rows]


def run_once(workload, seed, seconds, traced):
    run_dir = fresh_dir(os.path.join(RUNS_DIR, workload))
    sched = write_schedule(run_dir, workload, seed)
    if workload == "serve-warm":
        res = run_serve(run_dir, sched, False,
                        1 if traced else SERVE_SETUP_REPEATS)
        setup_s = res["setup_s"]
    else:
        setup_s = 0.0 if traced else batch_setup(sched)
        res = run_batch(run_dir, sched, 0 if traced else seconds)
    metrics, attempted, failed, notes = end_to_end(workload, seed, res, setup_s)
    if traced:
        untraced_wall = metrics["wall_s"][0]
        if workload == "serve-warm":
            tres = run_serve(run_dir, sched, True, 1)
            _, t_attempted, t_failed, _ = end_to_end(workload, seed, tres, 0.0)
        else:
            # The replay must answer exactly as the untraced pass did.
            tres = batch_pass(run_dir, sched, traced=True)
            t_attempted = tres["attempted"]
            t_failed = min(t_attempted, tres["failed"] + len(
                differing(res["digests"], tres["digests"])))
        attempted += t_attempted
        failed += t_failed
        metrics, uncovered, cov_notes = per_layer(workload, tres, untraced_wall)
        notes += cov_notes
        if workload != "serve-warm":
            notes += layer_shares(metrics)
        if uncovered:
            notes.append("layer coverage below %.0f%% on: %s"
                         % (100 * (1 - COVERAGE_TOLERANCE), ", ".join(uncovered)))
            failed += 1
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    return result, notes


def print_result(workload, result, notes):
    print("== %s ==" % workload)
    for name, m in result["metrics"].items():
        print("  %-26s %14.6g %s" % (name, m["value"], m["unit"]))
    for n in notes:
        print("  " + n)
    print("  correct=%s attempted=%d failed=%d" % (
        result["correct"], result["attempted"], result["failed"]))


# -------------------------------------------------- result files, compare

def check_result(r):
    """Schema errors of one run's result object."""
    errs = []
    if not isinstance(r, dict) or set(r) != {"correct", "attempted", "failed",
                                             "metrics"}:
        return ["result must have exactly correct, attempted, failed, metrics"]
    if not isinstance(r["correct"], bool):
        errs.append("correct must be a boolean")
    for k in ("attempted", "failed"):
        if not isinstance(r[k], int) or isinstance(r[k], bool) or r[k] < 0:
            errs.append("%s must be a whole number" % k)
    if isinstance(r["attempted"], int) and r["attempted"] < 1:
        errs.append("attempted must be at least 1")
    if not isinstance(r["metrics"], dict) or not r["metrics"]:
        return errs + ["metrics must be a non-empty object"]
    for name, m in r["metrics"].items():
        if (not isinstance(m, dict) or set(m) != {"value", "unit"}
                or not isinstance(m["value"], (int, float))
                or isinstance(m["value"], bool)
                or not math.isfinite(m["value"])
                or not isinstance(m["unit"], str)):
            errs.append("metric %s must be {value: number, unit: string}" % name)
    return errs


def check_file(path):
    with open(path) as f:
        doc = json.load(f)
    bench = load_benchmark()
    errs = []
    if doc.get("schema") != RESULT_SCHEMA:
        errs.append("schema must be %s" % RESULT_SCHEMA)
    e2e = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    layer = {m["name"]: m["unit"] for m in bench["per_layer"]}
    for w, body in doc.get("workloads", {}).items():
        if w not in WORKLOADS:
            errs.append("unknown workload %s" % w)
        for kind, names in (("runs", e2e), ("traced", layer)):
            for i, r in enumerate(body.get(kind, [])):
                errs += ["%s %s[%d]: %s" % (w, kind, i, e) for e in check_result(r)]
                got = {k: m.get("unit") for k, m in r.get("metrics", {}).items()}
                if got != names:
                    errs.append("%s %s[%d]: metrics/units differ from "
                                "BENCHMARK.json" % (w, kind, i))
    if not doc.get("workloads"):
        errs.append("no workloads")
    return errs


def load_benchmark():
    with open(BENCHMARK) as f:
        return json.load(f)


def compare(path_a, path_b):
    with open(path_a) as f:
        a = json.load(f)
    with open(path_b) as f:
        b = json.load(f)
    bench = load_benchmark()
    spec = {m["name"]: m for m in bench["end_to_end"] + bench["per_layer"]}
    flagged = 0
    for w in WORKLOADS:
        if w not in a["workloads"] or w not in b["workloads"]:
            continue
        print("== %s ==" % w)
        print("  %-26s %-30s %-30s %9s  %s" % ("metric", "A median [q1, q3]",
                                             "B median [q1, q3]", "delta", ""))
        for kind in ("runs", "traced"):
            ra, rb = a["workloads"][w].get(kind, []), b["workloads"][w].get(kind, [])
            if not ra or not rb:
                continue
            for name in ra[0]["metrics"]:
                if name not in rb[0]["metrics"]:
                    continue
                va = [r["metrics"][name]["value"] for r in ra]
                vb = [r["metrics"][name]["value"] for r in rb]
                qa, qb = quartiles(va), quartiles(vb)
                delta = ratio(qb[1] - qa[1], abs(qa[1]))
                verdict = ""
                m = spec.get(name, {})
                bound = m.get("bound")
                if bound is not None:
                    sign = 1 if m["better"] == "lower" else -1
                    worse = sign * delta
                    spread = max(ratio(qa[2] - qa[0], abs(qa[1])),
                                 ratio(qb[2] - qb[0], abs(qb[1])))
                    if spread > bound:
                        if max(sign * v for v in vb) < min(sign * v for v in va):
                            verdict = "improved in every run"
                        else:
                            verdict = ("unresolved (spread %.1f%% > bound)"
                                       % (100 * spread))
                    elif worse > bound:
                        verdict = "REGRESSION beyond %.0f%%" % (100 * bound)
                        flagged += 1
                    elif -worse > bound:
                        verdict = "improved beyond %.0f%%" % (100 * bound)
                print("  %-26s %-30s %-30s %+8.1f%%  %s" % (
                    name, fmt_q(qa), fmt_q(qb), 100 * delta, verdict))
    return flagged


def fmt_q(q):
    return "%.4g [%.4g, %.4g]" % (q[1], q[0], q[2])


def suite(runs, seed, seconds, out):
    doc = {"schema": RESULT_SCHEMA, "workloads": {}}
    for w in WORKLOADS:
        body = {"runs": [], "traced": []}
        for i in range(runs):
            r, _ = run_once(w, seed + i, seconds, False)
            body["runs"].append(r)
            sys.stderr.write("%s run %d: wall_s %.4f\n" % (
                w, i + 1, r["metrics"]["wall_s"]["value"]))
        r, notes = run_once(w, seed, seconds, True)
        body["traced"].append(r)
        print_result(w + " (traced)", r, notes)
        doc["workloads"][w] = body
    with open(out, "w") as f:
        json.dump(doc, f, indent=1)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--suite", action="store_true")
    ap.add_argument("--runs", type=int, default=5)
    ap.add_argument("--out")
    ap.add_argument("--compare", nargs=2, metavar=("A", "B"))
    ap.add_argument("--check", metavar="FILE")
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args()
    try:
        if args.compare:
            return 1 if compare(*args.compare) else 0
        if args.check:
            errs = check_file(args.check)
            for e in errs:
                print(e)
            return 1 if errs else 0
        build()
        if args.smoke:
            ok = True
            for w in WORKLOADS:
                r, notes = run_once(w, args.seed, 0, False)
                print_result(w, r, notes)
                ok = ok and r["correct"] and not check_result(r)
            return 0 if ok else 1
        if args.suite:
            if not args.out:
                raise BenchError("--suite needs --out FILE")
            suite(args.runs, args.seed, args.seconds, args.out)
            return 0
        if not args.workload:
            ap.error("--workload is required")
        result, notes = run_once(args.workload, args.seed, args.seconds,
                                 args.trace == 1)
        print_result(args.workload, result, notes)
        print(json.dumps(result))
        return 0
    except (BenchError, subprocess.TimeoutExpired, OSError) as e:
        sys.stderr.write("perfbench: %s\n" % e)
        return 2


if __name__ == "__main__":
    sys.exit(main())
