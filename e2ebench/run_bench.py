#!/usr/bin/env python3
"""Repository benchmark runner (stdlib only).

Builds the end-to-end bench program (easydram_bench) from this checkout's
sources into .bench_build/e2ebench, runs it, reduces its raw measurements and
checks its correctness verdicts. The metric definitions (names, units,
directions, regression bounds) come from BENCHMARK.json at the repo root.

  One workload, for a fixed measuring time (the last stdout line is one
  JSON object: correct, attempted, failed, metrics):
    python3 e2ebench/run_bench.py --workload chase --seed 7 --seconds 15 \
        --trace 0

  The whole suite: --rounds rounds, each visiting every workload once in
  its own bench process (1 warmup + --reps measured reps), then one
  traced run per workload; prints every metric and writes --out:
    python3 e2ebench/run_bench.py --seed 1 --out e2e.json

  Compare two suite files row by row under the BENCHMARK.json bounds:
    python3 e2ebench/run_bench.py --compare parent.json change.json
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "e2ebench"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

# Model outputs: deterministic for a seed, so two runs of one seed must
# agree exactly. modeled_wall_ms is reported by the suite only.
EXACT = ["modeled_cycles", "modeled_wall_ms", "fpga_emu_mhz",
         "req_lat_p50_cyc", "req_lat_p99_cyc"]
PROGRAM_TIMEOUT_S = 170
PROBE_REFERENCE_S = 0.035
# Absolute slack on top of setup_s's relative bound in --compare: a change
# regresses only when it is worse by both. burst8's set-up takes about a
# millisecond and shifts between processes by more than its relative bound.
SETUP_TOLERANCE_S = 0.005


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def build_program():
    """Configures and builds the bench program (a no-op when it is up to
    date); returns its path."""
    subprocess.run(["cmake", "-S", str(HERE), "-B", str(BUILD),
                    "-DCMAKE_BUILD_TYPE=Release"],
                   stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", str(BUILD), "--target",
                    "easydram_bench", "-j", str(min(4, os.cpu_count() or 1))],
                   stdout=sys.stderr, check=True)
    return BUILD / "easydram_bench"


def run_program(program, workload, seed, args):
    """Runs one bench process; returns its JSON document, or None when it
    exits non-zero (a failed run)."""
    cmd = [str(program), "--workload", workload, "--seed", str(seed)] + args
    try:
        p = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                           timeout=PROGRAM_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"{workload}: bench process timed out")
        return None
    if p.returncode != 0:
        log(f"{workload}: bench process exited with {p.returncode}")
        return None
    return json.loads(p.stdout)


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles(n=4) gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def lower_quartile(values):
    """First quartile of one run's reps, never outside their range."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=4, method="inclusive")[0]


def spread(values):
    """Interquartile distance as a share of the median."""
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / med if med else 0.0


def summary(values, unit):
    q1, med, q3 = quartiles(values)
    return {"unit": unit, "median": med, "q1": q1, "q3": q3, "n": len(values),
            "values": values}


def readings(probes):
    """One host-speed reading per probe pair: the geometric mean of the
    compute and the memory probe times."""
    return [math.sqrt(c * m)
            for c, m in zip(probes["compute_s"], probes["memory_s"])]


def to_reference(t, before, after):
    """Scales a time measured between two probe readings to seconds of the
    reference host.

    Other tenants of a shared host slow it by tens of percent, for seconds
    to minutes. The bench program takes probe readings around every timed
    phase; a time is scaled by the faster of the two readings around it
    against PROBE_REFERENCE_S, about one reading on the 4-core Xeon
    virtual machine the bounds were sized on. Contention only adds time,
    so the faster reading is the less disturbed one, and a disturbed
    reading cannot make a phase look fast.
    """
    return t * PROBE_REFERENCE_S / min(before, after)


def end_to_end_values(docs):
    """Every end-to-end metric of a workload, one sample per run. A run's
    rep time is its fastest scaled rep: contention only ever adds time,
    and it disturbs single reps far more often than it spares them."""
    v = {"host_s": [], "sim_mhz": [], "mem_req_per_s": [], "setup_s": [],
         "peak_rss_mb": []}
    for d in docs:
        r = readings(d["rep_probes"])
        host_s = min(to_reference(t, *pair)
                     for t, pair in zip(d["host_s"], zip(r, r[1:])))
        v["host_s"].append(host_s)
        v["sim_mhz"].append(d["modeled_cycles"] / host_s / 1e6)
        v["mem_req_per_s"].append(d["requests"] / host_s)
        construct_s = statistics.median(
            to_reference(t, *pair)
            for t, pair in zip(d["construct_s"], zip(r, r[1:])))
        setup = readings(d["setup_probes"])
        v["setup_s"].append(construct_s + to_reference(
            statistics.median(d["gen_s"]), *setup))
        v["peak_rss_mb"].append(d["peak_rss_mb"])
    return v


def per_layer_values(doc):
    """Every per-layer metric of one traced run: per-rep host times as
    lists, deterministic counts as single values."""
    v = {"workloads.gen_s": doc["gen_s"]}
    for name in doc["layers"][0]:
        v[name] = [rep[name] for rep in doc["layers"]]
    for name, x in doc["counts"].items():
        v[name] = [x]
    v["trace.overhead"] = [lower_quartile(doc["traced_host_s"]) /
                           lower_quartile(doc["host_s"]) - 1.0]
    return v


def is_correct(checks, attempted, failed):
    return attempted >= 1 and failed == 0 and all(checks.values())


# --- one workload, fixed measuring time ------------------------------------

def run_contract(args):
    program = args.program or build_program()
    extra = ["--seconds", str(args.seconds), "--reps", str(args.reps),
             "--scale", str(args.scale)]
    if args.trace:
        extra.append("--trace")
    doc = run_program(program, args.workload, args.seed, extra)
    if doc is None:
        return 1
    if args.trace:
        specs = SPEC["per_layer"]
        values = per_layer_values(doc)
    else:
        specs = SPEC["end_to_end"]
        values = end_to_end_values([doc])
    metrics = {}
    for m in specs:
        metrics[m["name"]] = {"value": statistics.median(values[m["name"]]),
                              "unit": m["unit"]}
        print(f"{args.workload:10s} {m['name']:34s} "
              f"{metrics[m['name']]['value']:>16.6g} {m['unit']}")
    for name, ok in doc["checks"].items():
        print(f"{args.workload:10s} check {name:28s} "
              f"{'ok' if ok else 'FAILED'}")
    print(json.dumps({
        "correct": is_correct(doc["checks"], doc["attempted_reps"],
                              doc["failed_reps"]),
        "attempted": doc["attempted_reps"],
        "failed": doc["failed_reps"],
        "metrics": metrics,
    }))
    return 0


# --- the whole suite ---------------------------------------------------------

def run_suite(args):
    program = args.program or build_program()
    common = ["--scale", str(args.scale)]
    docs = {w: [] for w in WORKLOADS}
    attempted = {w: 0 for w in WORKLOADS}
    failed = {w: 0 for w in WORKLOADS}
    checks = {w: {} for w in WORKLOADS}

    def account(w, doc, reps):
        if doc is None:  # A process that exits non-zero fails every rep.
            attempted[w] += reps
            failed[w] += reps
            return
        attempted[w] += doc["attempted_reps"]
        failed[w] += doc["failed_reps"]
        for name, ok in doc["checks"].items():
            checks[w][name] = checks[w].get(name, True) and ok

    # Round-robin rounds spread slow phases of a shared host over every
    # workload instead of letting one absorb them.
    for r in range(args.rounds):
        for w in WORKLOADS:
            log(f"round {r + 1}/{args.rounds}: {w}")
            doc = run_program(program, w, args.seed,
                             common + ["--reps", str(args.reps)])
            account(w, doc, 1 + args.reps)
            if doc is not None:
                docs[w].append(doc)
    traced = {}
    for w in WORKLOADS:
        log(f"traced: {w}")
        doc = run_program(program, w, args.seed,
                         common + ["--reps", "1", "--trace"])
        account(w, doc, 3)
        if doc is not None:
            traced[w] = doc

    out = {"schema": "easydram-e2ebench-v1", "seed": args.seed,
           "rounds": args.rounds, "reps": args.reps, "scale": args.scale,
           "workloads": {}}
    for w in WORKLOADS:
        row = {"attempted": attempted[w], "failed": failed[w],
               "failed_frac": failed[w] / attempted[w],
               "checks": checks[w], "end_to_end": {}, "per_layer": {},
               "model": {}}
        digests = {d["digest"] for d in docs[w]}
        if traced.get(w):
            digests.add(traced[w]["digest"])
        row["checks"]["digest_across_runs"] = len(digests) <= 1
        row["correct"] = is_correct(row["checks"], attempted[w], failed[w])
        if docs[w]:
            e2e = end_to_end_values(docs[w])
            for m in SPEC["end_to_end"]:
                row["end_to_end"][m["name"]] = summary(e2e[m["name"]],
                                                       m["unit"])
        if w in traced:
            layer = per_layer_values(traced[w])
            for m in SPEC["per_layer"]:
                row["per_layer"][m["name"]] = summary(layer[m["name"]],
                                                      m["unit"])
            row["model"] = {k: traced[w]["counts"][k] for k in EXACT}
            row["model"]["digest"] = traced[w]["digest"]
        out["workloads"][w] = row

    print_suite(out)
    if args.out:
        Path(args.out).write_text(json.dumps(out, indent=2) + "\n")
    ok = all(row["correct"] for row in out["workloads"].values())
    return 0 if ok else 1


def print_suite(out):
    print(f"{'workload':10s} {'metric':34s} {'median':>12s} {'q1':>12s} "
          f"{'q3':>12s} {'n':>3s}  unit")
    for w, row in out["workloads"].items():
        for group in ("end_to_end", "per_layer"):
            for name, s in row[group].items():
                print(f"{w:10s} {name:34s} {s['median']:12.6g} "
                      f"{s['q1']:12.6g} {s['q3']:12.6g} {s['n']:3d}  "
                      f"{s['unit']}")
        print(f"{w:10s} {'modeled_wall_ms':34s} "
              f"{row['model'].get('modeled_wall_ms', float('nan')):12.6g}"
              f"{'':30s}  ms")
        print(f"{w:10s} {'failed_frac':34s} {row['failed_frac']:12.6g}"
              f"{'':30s}  fraction ({row['failed']}/{row['attempted']} reps)")
        bad = [k for k, ok in row["checks"].items() if not ok]
        status = "FAILED " + ", ".join(bad) if bad else "all ok"
        print(f"{w:10s} checks: {status}")


# --- compare -----------------------------------------------------------------

def dominates(a, b, better):
    """Every sample of `a` beats every sample of `b`."""
    return max(a) < min(b) if better == "lower" else min(a) > max(b)


def compare_metric(spec, base, change):
    """Verdict for one end-to-end metric of one workload row: 'better',
    'ok', 'regressed', or 'unresolved' when the run-to-run spread is wider
    than the bound and neither side beats every run of the other. A change
    of setup_s within SETUP_TOLERANCE_S is 'ok' whatever its share."""
    bound = spec["bound"]
    mb, mc = statistics.median(base), statistics.median(change)
    worse = (mc - mb) / mb if spec["better"] == "lower" else (mb - mc) / mb
    if dominates(change, base, spec["better"]):
        return "better", worse
    if spec["name"] == "setup_s" and mc - mb <= SETUP_TOLERANCE_S:
        return "ok", worse
    if not dominates(base, change, spec["better"]) and \
            max(spread(base), spread(change)) > bound:
        return "unresolved", worse
    return ("regressed" if worse > bound else "ok"), worse


def compare(path_a, path_b):
    a = json.loads(Path(path_a).read_text())
    b = json.loads(Path(path_b).read_text())
    same_inputs = (a["seed"], a["scale"]) == (b["seed"], b["scale"])
    failing = False
    print(f"{'workload':10s} {'metric':20s} {'base':>12s} {'change':>12s} "
          f"{'worse':>8s} {'bound':>6s}  verdict")
    for w in WORKLOADS:
        ra, rb = a["workloads"].get(w), b["workloads"].get(w)
        if not ra or not rb or not ra["end_to_end"] or not rb["end_to_end"]:
            print(f"{w:10s} missing from one side")
            failing = True
            continue
        if not rb["correct"]:
            print(f"{w:10s} change is not correct: {rb['checks']}")
            failing = True
        for spec in SPEC["end_to_end"]:
            va = ra["end_to_end"][spec["name"]]["values"]
            vb = rb["end_to_end"][spec["name"]]["values"]
            v, worse = compare_metric(spec, va, vb)
            failing = failing or v == "regressed"
            print(f"{w:10s} {spec['name']:20s} {statistics.median(va):12.6g} "
                  f"{statistics.median(vb):12.6g} {worse:+8.2%} "
                  f"{spec['bound']:6.0%}  {v}")
        if same_inputs:
            for name in EXACT:
                xa, xb = ra["model"].get(name), rb["model"].get(name)
                v = "ok" if xa == xb else "changed"
                failing = failing or v == "changed"
                print(f"{w:10s} {name:20s} {xa!s:>12s} {xb!s:>12s} "
                      f"{'':8s} {'exact':>6s}  {v}")
    if not same_inputs:
        print("seeds or scales differ: modeled metrics not compared")
    return 1 if failing else 0


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOADS,
                   help="run one workload for --seconds (contract mode)")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=0.0,
                   help="minimum measuring time of one workload run")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0,
                   help="1: report the per-layer metrics of traced reps")
    p.add_argument("--rounds", type=int, default=5)
    p.add_argument("--reps", type=int, default=3,
                   help="minimum measured reps per bench process")
    p.add_argument("--scale", type=float, default=1.0,
                   help="workload size factor (below 1 for smoke runs); "
                        "set-ups repeat for min(1, scale) seconds")
    p.add_argument("--out", help="suite mode: write the results here")
    p.add_argument("--program", type=Path,
                   help="use this easydram_bench instead of building one")
    p.add_argument("--compare", nargs=2, metavar=("BASE", "CHANGE"))
    args = p.parse_args(argv)
    if args.rounds < 1 or args.reps < 1 or args.scale <= 0 or \
            args.seconds < 0:
        p.error("--rounds and --reps must be >= 1, --scale > 0, "
                "--seconds >= 0")
    return args


def main(argv):
    args = parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if args.workload:
        return run_contract(args)
    return run_suite(args)


if __name__ == "__main__":
    try:
        sys.exit(main(sys.argv[1:]))
    except subprocess.CalledProcessError as e:
        log(f"build failed: {e}")
        sys.exit(1)
