#!/usr/bin/env python3
"""CTest driver for easydram-lint.

Runs the linter over the fixture files in tests/lint/fixtures/ and asserts
exact finding counts per check, exit codes for the clean/finding/error
paths, suppression behaviour, and that the linter's own output is
run-to-run identical. Finally asserts that src/ itself lints clean — the
repo ships with a green determinism contract, not an advisory one.
"""

from __future__ import annotations

import json
import pathlib
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
REPO = HERE.parent.parent
LINT = REPO / "tools" / "lint" / "easydram_lint.py"
FIXTURES = HERE / "fixtures"

# One entry per registered check: every check must have fixture coverage.
EXPECTED = {
    "nondeterministic-iteration": 2,
    "banned-entropy": 3,
    "raw-time-units": 5,
    "float-accumulation-order": 2,
    "fault-injection-seeding": 2,
    "cross-slice-shared-state": 2,
}

failures = []


def check(name, cond, detail=""):
    print(f"[{'ok' if cond else 'FAIL'}] {name}" + ("" if cond else f" — {detail}"))
    if not cond:
        failures.append(name)


def run_lint(*argv):
    return subprocess.run(
        [sys.executable, str(LINT), "--repo", str(REPO), *argv],
        capture_output=True,
        text=True,
    )


def main():
    # --- Fixture scan: exit 1, exact per-check counts -----------------------
    p = run_lint("--format", "json", str(FIXTURES))
    check("fixture scan exits 1", p.returncode == 1,
          f"exit={p.returncode} stderr={p.stderr!r}")
    data = json.loads(p.stdout)
    counts = {}
    for f in data["findings"]:
        counts[f["check"]] = counts.get(f["check"], 0) + 1
    for name, want in sorted(EXPECTED.items()):
        check(f"{name}: exactly {want} finding(s)", counts.get(name, 0) == want,
              f"got {counts.get(name, 0)}")
    check("no unexpected checks fired", set(counts) <= set(EXPECTED), str(counts))
    check("suppressed lines stay quiet",
          not any("quiet" in f["message"] or "legacy" in f["message"]
                  or "suppressed" in f["message"] for f in data["findings"]),
          str(data["findings"]))

    # The linter practices what it preaches: identical output across runs.
    p2 = run_lint("--format", "json", str(FIXTURES))
    check("json output is run-to-run identical", p.stdout == p2.stdout)

    # --- --check narrows the run --------------------------------------------
    p = run_lint("--format", "json", "--check", "banned-entropy", str(FIXTURES))
    data = json.loads(p.stdout)
    check("--check banned-entropy exits 1", p.returncode == 1)
    check("--check banned-entropy finds only its own",
          all(f["check"] == "banned-entropy" for f in data["findings"])
          and len(data["findings"]) == EXPECTED["banned-entropy"],
          str(data["findings"]))

    # --- Clean paths exit 0 --------------------------------------------------
    p = run_lint(str(FIXTURES / "clean.cpp"))
    check("clean fixture exits 0", p.returncode == 0, p.stdout)

    p = run_lint("--list-checks")
    check("--list-checks exits 0", p.returncode == 0)
    for name in EXPECTED:
        check(f"--list-checks mentions {name}", name in p.stdout, p.stdout)

    # --- Error paths exit 2 --------------------------------------------------
    p = run_lint(str(FIXTURES / "no_such_file.cpp"))
    check("missing path exits 2", p.returncode == 2, str(p.returncode))
    p = run_lint("--check", "no-such-check", str(FIXTURES))
    check("unknown check exits 2", p.returncode == 2, str(p.returncode))

    # --- The repo itself ships green -----------------------------------------
    p = run_lint(str(REPO / "src"))
    check("src/ lints clean", p.returncode == 0, p.stdout)

    print(f"\n{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
