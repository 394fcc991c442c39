#!/usr/bin/env python3
"""Validate an easydram-bench-v2 results document and gate CI on it.

Three layers of checking, in increasing strictness:

1. Structure (always fatal): the schema tag, `all_finite`, the presence of
   every subsystem bench, and the per-bench detail payloads (ECC
   overhead fields, the QoS policy family). These are the crash/NaN checks the old inline CI gate ran --
   they never threshold absolute speed, so noisy runners cannot flake
   them.
2. Stability (fatal on multi-core hosts, warn-only otherwise): every
   bench's CV (stddev / median over the warmup-discarded measured reps)
   must stay under --cv-max. On a 1-core host the harness shares its core
   with the OS, so CV violations only warn there.
3. Regression (optional, fatal when comparable): with --baseline, each
   bench's median must not exceed the baseline median by more than
   --regression-max-percent. The comparison is skipped with a warning
   when the documents are not comparable: baseline still on schema v1,
   different host_cores, or different --perf-scale.

Exit codes: 0 = pass, 1 = a gate failed, 2 = unusable input (bad JSON,
wrong schema, missing fields).
"""

import argparse
import json
import math
import sys

SCHEMA = "easydram-bench-v2"

REQUIRED_BENCHES = [
    "fig14_sim_speed",
    "mitigation_overhead",
    "raidr_refresh",
    "ecc_scrub_overhead",
    "qos_scheduler_overhead",
    "stream_sweep",
    "latency_sweep",
]

STAT_FIELDS = [
    "host_seconds_best",
    "host_seconds_mean",
    "host_seconds_median",
    "host_seconds_p95",
    "host_seconds_stddev",
    "cv",
]


class SchemaError(Exception):
    """The document cannot be checked at all (exit 2)."""


def finite_pos(x):
    return isinstance(x, (int, float)) and math.isfinite(x) and x > 0


def finite(x):
    return isinstance(x, (int, float)) and math.isfinite(x)


def load(path):
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        raise SchemaError(f"{path}: {e}")


def check_structure(doc, failures):
    """The ported inline-gate checks: presence and finiteness only."""
    if doc.get("schema") != SCHEMA:
        raise SchemaError(
            f"schema is {doc.get('schema')!r}, expected {SCHEMA!r}")
    if doc.get("all_finite") is not True:
        failures.append("all_finite is not true: a bench produced a "
                        "non-finite or non-positive measurement")
    benches = doc.get("benches")
    if not benches:
        raise SchemaError("no benches in document")
    by_name = {b.get("name"): b for b in benches}
    for name in REQUIRED_BENCHES:
        if name not in by_name:
            failures.append(f"required bench missing: {name}")

    for b in benches:
        name = b.get("name", "<unnamed>")
        for s in b.get("warmup_host_seconds", []):
            if not finite_pos(s):
                failures.append(f"{name}: non-finite warmup sample {s!r}")
        reps = b.get("host_seconds_per_rep", [])
        if not reps:
            failures.append(f"{name}: no measured reps")
        for s in reps:
            if not finite_pos(s):
                failures.append(f"{name}: non-finite measured sample {s!r}")
        for field in STAT_FIELDS:
            if field not in b:
                failures.append(f"{name}: missing {field}")
            elif not finite(b[field]):
                failures.append(f"{name}: non-finite {field} = {b[field]!r}")

    # Error pipeline: ECC-on and default-off both ran with finite host and
    # emulated-time overheads.
    ecc = by_name.get("ecc_scrub_overhead")
    if ecc is not None:
        ed = ecc.get("detail") or {}
        for key in ("ecc_host_seconds_best", "baseline_host_seconds_best",
                    "overhead_percent", "emulated_overhead_percent"):
            if not finite(ed.get(key)):
                failures.append(f"ecc_scrub_overhead: non-finite {key}")
        if not (ed.get("ecc_emulated_ps", 0) > 0
                and ed.get("baseline_emulated_ps", 0) > 0):
            failures.append("ecc_scrub_overhead: emulated-time fields "
                            "missing or non-positive")

    # QoS scheduler family: every policy point present with finite timings.
    qos = by_name.get("qos_scheduler_overhead")
    if qos is not None:
        qpoints = {p.get("sched"): p
                   for p in (qos.get("detail") or {}).get("points", [])}
        expected = ["atlas", "bliss", "frfcfs", "parbs", "tcm"]
        if sorted(qpoints) != expected:
            failures.append(f"qos_scheduler_overhead: policy points are "
                            f"{sorted(qpoints)}, expected {expected}")
        else:
            for p in qpoints.values():
                if not (finite_pos(p.get("host_seconds_best"))
                        and finite_pos(p.get("host_seconds_median"))
                        and finite(p.get("cv"))):
                    failures.append(
                        f"qos_scheduler_overhead: bad timing point {p}")
                if not finite(p.get("overhead_vs_frfcfs_percent")):
                    failures.append(
                        f"qos_scheduler_overhead: bad overhead point {p}")
    return by_name


def check_cv(doc, cv_max, failures, warnings):
    """Stability gate: warn-only on 1-core hosts, fatal otherwise."""
    strict = doc.get("host_cores", 0) >= 2
    for b in doc.get("benches", []):
        cv = b.get("cv")
        if not finite(cv):
            continue  # already a structure failure
        if cv > cv_max:
            msg = (f"{b.get('name')}: cv {cv:.3f} exceeds --cv-max "
                   f"{cv_max:.3f}")
            if strict:
                failures.append(msg)
            else:
                warnings.append(msg + " (warn-only: host_cores < 2)")


def check_regression(doc, base, pct_max, failures, warnings):
    """Median-vs-baseline gate; skipped when documents are incomparable."""
    if base.get("schema") != SCHEMA:
        warnings.append(f"regression check skipped: baseline schema is "
                        f"{base.get('schema')!r}, not {SCHEMA!r}")
        return
    for field in ("host_cores", "scale"):
        if doc.get(field) != base.get(field):
            warnings.append(
                f"regression check skipped: {field} differs "
                f"({doc.get(field)!r} vs baseline {base.get(field)!r})")
            return
    base_by_name = {b.get("name"): b for b in base.get("benches", [])}
    for b in doc.get("benches", []):
        name = b.get("name")
        old = base_by_name.get(name)
        if old is None:
            warnings.append(f"{name}: not in baseline, regression "
                            "check skipped for this bench")
            continue
        new_med = b.get("host_seconds_median")
        old_med = old.get("host_seconds_median")
        if not (finite_pos(new_med) and finite_pos(old_med)):
            continue  # already a structure failure (or baseline defect)
        pct = (new_med - old_med) / old_med * 100.0
        if pct > pct_max:
            failures.append(
                f"{name}: median {new_med:.4f}s is {pct:.1f}% slower than "
                f"baseline {old_med:.4f}s (limit {pct_max:.0f}%)")


def main(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("results", help="BENCH_results.json to validate")
    ap.add_argument("--baseline",
                    help="previous results document to compare medians "
                         "against (same host and scale required)")
    ap.add_argument("--cv-max", type=float, default=0.35,
                    help="per-bench CV ceiling (default 0.35; warn-only "
                         "when the host has fewer than 2 cores)")
    ap.add_argument("--regression-max-percent", type=float, default=50.0,
                    help="median slowdown vs baseline that fails the gate "
                         "(default 50)")
    ap.add_argument("--report",
                    help="write a machine-readable verdict JSON here")
    args = ap.parse_args(argv)

    failures = []
    warnings = []
    try:
        doc = load(args.results)
        check_structure(doc, failures)
        check_cv(doc, args.cv_max, failures, warnings)
        if args.baseline:
            base = load(args.baseline)
            check_regression(doc, base, args.regression_max_percent,
                             failures, warnings)
    except SchemaError as e:
        print(f"check_bench: SCHEMA ERROR: {e}", file=sys.stderr)
        if args.report:
            with open(args.report, "w") as f:
                json.dump({"verdict": "schema-error", "error": str(e)}, f,
                          indent=2)
        return 2

    for w in warnings:
        print(f"check_bench: WARNING: {w}")
    for f_ in failures:
        print(f"check_bench: FAIL: {f_}", file=sys.stderr)
    verdict = "fail" if failures else "pass"
    names = [b.get("name") for b in doc.get("benches", [])]
    print(f"check_bench: {verdict} "
          f"({len(names)} benches, {len(failures)} failures, "
          f"{len(warnings)} warnings)")
    if args.report:
        with open(args.report, "w") as f:
            json.dump({
                "verdict": verdict,
                "benches": names,
                "failures": failures,
                "warnings": warnings,
                "cv_max": args.cv_max,
                "regression_max_percent": args.regression_max_percent,
                "baseline": args.baseline,
            }, f, indent=2)
            f.write("\n")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
