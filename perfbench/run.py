#!/usr/bin/env python3
"""PIER layer-ledger benchmark.

Builds the perfbench Go program from source, runs one workload for a
fixed wall-time budget as repeated single-process repetitions at one
seed, checks every answer and the determinism of every count and
virtual-time figure across the repetitions, and prints a report
followed by one JSON line:

    python3 perfbench/run.py --workload ring-build --seed 1 --seconds 30 --trace 0

--trace 0 reports the end-to-end metrics; --trace 1 alternates plain and
CPU-profiled repetitions and reports the per-layer metrics. --seed makes
the workload's inputs; the simulated deployment (simulation seed and
node names, hence the ring) is fixed unless --sim-seed picks another.
Run it from the repository root. Build output goes to .bench_build/ there.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
OUT = os.path.join(BUILD, "perfbench")
BINARY = os.path.join(OUT, "perfbench")

WORKLOADS = ("ring-build", "adhoc-agg", "qstorm")

# The held-out seed: never used while tuning; a later performance claim
# is re-checked on it, as --seed and as --sim-seed, so the check also
# runs on a different ring.
HELD_OUT_SEED = 104729

# The default deployment: cmd/experiments' simulation seed and node names.
DEFAULT_SIM_SEED = 1

# End-to-end metrics reported in the JSON line. Wall-time figures are
# medians over the repetitions; the rest repeat exactly at one seed.
END_TO_END = [
    ("setup_s", "s"),
    ("run_s", "s"),
    ("peak_rss_mb", "MB"),
    ("msgs_per_node_s", "1/s"),
    ("kb_per_node_s", "KB/s"),
    ("lookup_p50_ms", "ms"),
    ("lookup_p99_ms", "ms"),
]

# Per-layer metrics and their units. CPU seconds come from the profiled
# repetitions; counts and virtual figures from the deterministic record;
# the rest from the plain repetitions.
PER_LAYER = [
    ("sim.cpu_s", "s"), ("sim.events_per_s", "1/s"), ("sim.allocs_per_event", "count"),
    ("sim.events", "count"), ("sim.msgs", "count"), ("sim.kb", "KB"),
    ("overlay.cpu_s", "s"), ("overlay.hash_cpu_s", "s"), ("overlay.hops_per_route", "count"),
    ("tuple.cpu_s", "s"),
    ("exec.cpu_s", "s"), ("exec.chain_feeds", "count"), ("exec.subtree_hit_rate", "ratio"),
    ("qp.cpu_s", "s"), ("qp.results_sent", "count"), ("qp.graphs_per_frame", "ratio"),
    ("qp.send_retries", "count"), ("qp.send_exhausted", "count"), ("qp.completeness_min", "ratio"),
    ("gc.cpu_s", "s"), ("gc.cycles", "count"), ("gc.pause_ms", "ms"),
    ("heap.alloc_mb", "MB"), ("heap.allocs", "count"),
    ("driver.cpu_s", "s"), ("other.cpu_s", "s"), ("total.cpu_s", "s"),
    ("trace_overhead_s", "s"),
]

# Whole-run limits: the program must exit within 180 s; leave room for
# the repetition that is running when the budget is spent.
DEADLINE_S = 165
MIN_PLAIN_REPS = 2
MIN_TRACED_PAIRS = 2


def go_env():
    """Keeps every file the Go toolchain writes inside .bench_build."""
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(BUILD, "gocache"),
        GOMODCACHE=os.path.join(BUILD, "gomodcache"),
        GOPATH=os.path.join(BUILD, "gopath"),
        XDG_CONFIG_HOME=os.path.join(BUILD, "config"),
        GOTMPDIR=os.path.join(BUILD, "tmp"),
        TMPDIR=os.path.join(BUILD, "tmp"),
        GOENV="off",
        GOWORK="off",
        GOTOOLCHAIN="local",
        GOPROXY="off",
        GOFLAGS="",
        CGO_ENABLED="0",
        PPROF_TMPDIR=os.path.join(BUILD, "tmp"),
    )
    return env


def build():
    os.makedirs(OUT, exist_ok=True)
    os.makedirs(os.path.join(BUILD, "tmp"), exist_ok=True)
    try:
        res = subprocess.run(["go", "build", "-o", BINARY, "."], cwd=HERE, env=go_env(),
                             capture_output=True, text=True)
    except FileNotFoundError:
        sys.exit("perfbench: the go toolchain is not on PATH")
    if res.returncode != 0:
        sys.stderr.write(res.stdout + res.stderr)
        sys.exit("perfbench: build failed")


def run_rep(workload, seed, sim_seed, traced, index):
    """Runs one repetition in its own process and returns its record.
    A profiled repetition reads its profile with `go tool pprof`, so it
    gets the same Go environment as the build."""
    cmd = [BINARY, "-workload", workload, "-seed", str(seed), "-sim-seed", str(sim_seed)]
    if traced:
        cmd += ["-profile", os.path.join(OUT, "%s-%d-%d.pprof" % (workload, seed, index))]
    try:
        res = subprocess.run(cmd, capture_output=True, text=True, timeout=DEADLINE_S,
                             env=go_env())
    except subprocess.TimeoutExpired:
        sys.exit("perfbench: repetition of %s timed out" % workload)
    if res.returncode != 0:
        sys.stderr.write(res.stderr)
        sys.exit("perfbench: repetition of %s exited with %d" % (workload, res.returncode))
    lines = res.stdout.strip().splitlines()
    if not lines:
        sys.exit("perfbench: repetition of %s printed nothing" % workload)
    return json.loads(lines[-1])


def repeat(workload, seed, sim_seed, seconds, trace):
    """Repeats the workload until the budget is spent. With trace, plain
    and profiled repetitions alternate so both see the same machine."""
    plain, traced = [], []
    start = time.monotonic()
    longest = 0.0
    while True:
        elapsed = time.monotonic() - start
        enough = (len(plain) >= MIN_PLAIN_REPS if not trace
                  else len(traced) >= MIN_TRACED_PAIRS)
        if enough and (elapsed >= seconds or elapsed + longest > DEADLINE_S):
            break
        t0 = time.monotonic()
        plain.append(run_rep(workload, seed, sim_seed, False, len(plain)))
        if trace:
            traced.append(run_rep(workload, seed, sim_seed, True, len(traced)))
        longest = max(longest, time.monotonic() - t0)
    return plain, traced


def median(reps, key, section=None):
    return statistics.median((r[section] if section else r)[key] for r in reps)


def check_determinism(reps):
    """Every count and virtual-time figure must repeat exactly at one seed."""
    problems = []
    first = reps[0]
    for r in reps[1:]:
        for key in sorted(set(first["det"]) | set(r["det"])):
            a, b = first["det"].get(key), r["det"].get(key)
            if a != b:
                problems.append("%s: %r != %r" % (key, a, b))
        for key in ("attempted", "failed"):
            if first[key] != r[key]:
                problems.append("%s: %r != %r" % (key, first[key], r[key]))
    return problems


def end_to_end(plain):
    det = plain[0]["det"]
    out = {}
    for name, unit in END_TO_END:
        if name in ("setup_s", "run_s", "peak_rss_mb"):
            value = median(plain, name)
        else:
            value = det[name]
        out[name] = {"value": value, "unit": unit}
    return out


def per_layer(plain, traced):
    det = plain[0]["det"]
    out = {}
    for name, unit in PER_LAYER:
        if name == "trace_overhead_s":
            value = median(traced, "run_s") - median(plain, "run_s")
        elif name in traced[0]["cpu"]:
            value = median(traced, name, "cpu")
        elif name in plain[0]["measured"]:
            value = median(plain, name, "measured")
        else:
            value = det.get(name, 0.0)
        out[name] = {"value": value, "unit": unit}
    return out


def span_totals(traced):
    names = sorted({n for r in traced for n in r.get("spans", {})})
    return {n: statistics.median(r.get("spans", {}).get(n, 0.0) for r in traced) for n in names}


def machine():
    model = ""
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    go = subprocess.run(["go", "version"], capture_output=True, text=True, env=go_env()).stdout.strip()
    return {"nproc": os.cpu_count(), "cpu": model, "go": go, "python": platform.python_version()}


def record(path, workload, seed, sim_seed, metrics, spans):
    """Adds this traced run's per-layer split to a baseline file."""
    data = {}
    if os.path.exists(path):
        with open(path) as f:
            data = json.load(f)
    data["held_out"] = {"seed": HELD_OUT_SEED, "sim_seed": HELD_OUT_SEED}
    data["machine"] = machine()
    total = metrics["total.cpu_s"]["value"]
    split = {name[:-len(".cpu_s")]: round(m["value"] / total, 4)
             for name, m in metrics.items()
             if name.endswith(".cpu_s") and name != "total.cpu_s" and total > 0}
    data.setdefault("workloads", {})[workload] = {
        "seed": seed,
        "sim_seed": sim_seed,
        "cpu_share": split,
        "per_layer": {k: m["value"] for k, m in metrics.items()},
        "driver_spans_s": spans,
    }
    with open(path, "w") as f:
        json.dump(data, f, indent=2, sort_keys=True)
        f.write("\n")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--sim-seed", type=int, default=DEFAULT_SIM_SEED,
                    help="simulation seed of the deployment; any but %d also renames the nodes"
                    % DEFAULT_SIM_SEED)
    ap.add_argument("--record", help="with --trace 1, add the per-layer split to this JSON file")
    args = ap.parse_args()

    build()
    plain, traced = repeat(args.workload, args.seed, args.sim_seed, args.seconds, args.trace == 1)
    reps = plain + traced
    problems = check_determinism(reps)
    attempted = sum(r["attempted"] for r in reps)
    failed = sum(r["failed"] for r in reps)

    e2e = end_to_end(plain)
    print("workload=%s seed=%d sim_seed=%d repetitions=%d plain, %d traced"
          % (args.workload, args.seed, args.sim_seed, len(plain), len(traced)))
    for name, m in e2e.items():
        print("  %-16s %14.6f %s" % (name, m["value"], m["unit"]))
    print("  run_s of each plain repetition: " + " ".join("%.3f" % r["run_s"] for r in plain))
    # Printed, not in the JSON line: build_virtual_s is the same at every
    # --seed because the deployment is fixed, and fail_ratio is 0 whenever
    # the run is correct; the JSON line carries attempted and failed.
    print("  %-16s %14.6f s" % ("build_virtual_s", plain[0]["det"]["build_virtual_s"]))
    print("  %-16s %14.6f ratio (%d of %d operations)"
          % ("fail_ratio", failed / max(attempted, 1), failed, attempted))
    for r in reps:
        for e in r["errors"] or []:
            print("  FAILED: " + e)
    for p in problems:
        print("  NOT DETERMINISTIC: " + p)

    if args.trace:
        metrics = per_layer(plain, traced)
        for name, m in metrics.items():
            print("  %-24s %16.6f %s" % (name, m["value"], m["unit"]))
        spans = span_totals(traced)
        for name, s in spans.items():
            print("  span %-19s %16.6f s self" % (name, s))
        if args.record:
            record(args.record, args.workload, args.seed, args.sim_seed, metrics, spans)
    else:
        metrics = e2e

    correct = failed == 0 and not problems
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
