#!/usr/bin/env python3
"""easydram-lint: determinism-contract static analysis for the EasyDRAM repo.

The repository's core contract is bit-identical scenario JSON at any
`--threads`, pinned dynamically by the golden-hash suite. This linter
enforces the *static* half of that contract: it flags source constructs
whose behaviour can differ run-to-run or thread-count-to-thread-count,
before they ever reach a golden hash. See docs/linting.md for the check
catalog and the invariant each check guards.

Analysis
--------
Every check runs on a comment/string-aware token scanner that needs only
the Python standard library, so finding counts are reproducible on any
machine.

Suppressions
------------
A finding on line N is suppressed by a comment on the same line::

    foo();  // NOLINT-easydram(banned-entropy): justification here

or on the immediately preceding line::

    // NOLINT-easydram-next-line(raw-time-units): justification here
    std::int64_t window_ps();

``NOLINT-easydram`` with no check list suppresses every check on that
line. Justifications after ``:`` are a convention, not parsed.

Exit codes: 0 = clean, 1 = findings, 2 = usage or internal error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import pathlib
import re
import sys

# ---------------------------------------------------------------------------
# Findings and suppression


@dataclasses.dataclass
class Finding:
    file: str  # Repo-relative, forward slashes.
    line: int  # 1-based.
    check: str
    message: str

    def key(self):
        return (self.file, self.line, self.check, self.message)


NOLINT_RE = re.compile(r"//\s*NOLINT-easydram(?:\(([^)]*)\))?")
NOLINT_NEXT_RE = re.compile(r"//\s*NOLINT-easydram-next-line(?:\(([^)]*)\))?")


def suppressed_checks(raw_lines, lineno):
    """Checks suppressed at 1-based `lineno`; returns None for 'all'."""
    out = set()
    line = raw_lines[lineno - 1]
    prev = raw_lines[lineno - 2] if lineno >= 2 else ""
    for regex, text in ((NOLINT_NEXT_RE, prev), (NOLINT_RE, line)):
        m = regex.search(text)
        # NOLINT-easydram-next-line also matches NOLINT_RE's prefix; the
        # same-line pattern must not fire on a next-line marker.
        if regex is NOLINT_RE and NOLINT_NEXT_RE.search(text):
            m = None
        if not m:
            continue
        if m.group(1) is None or not m.group(1).strip():
            return None  # Bare NOLINT: everything suppressed.
        out.update(c.strip() for c in m.group(1).split(","))
    return out


def is_suppressed(raw_lines, lineno, check):
    sup = suppressed_checks(raw_lines, lineno)
    return sup is None or check in sup


# ---------------------------------------------------------------------------
# Comment/string stripping (shared by every token check)


def strip_comments_and_strings(text):
    """Returns `text` with comments and string/char literals blanked.

    Replaced regions become spaces so line numbers and column offsets are
    preserved. Handles // and /* */ comments, "..." and '...' literals
    with escapes. Raw string literals are blanked conservatively from
    R"( to the next )" (custom delimiters are not used in this repo).
    """
    out = list(text)
    i, n = 0, len(text)
    NORMAL, LINE, BLOCK, STR, CHR, RAW = range(6)
    state = NORMAL
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if state == NORMAL:
            if c == "/" and nxt == "/":
                state = LINE
                out[i] = out[i + 1] = " "
                i += 2
                continue
            if c == "/" and nxt == "*":
                state = BLOCK
                out[i] = out[i + 1] = " "
                i += 2
                continue
            if c == "R" and text[i + 1 : i + 3] == '"(':
                state = RAW
                out[i] = out[i + 1] = out[i + 2] = " "
                i += 3
                continue
            if c == '"':
                state = STR
                i += 1
                continue
            if c == "'":
                state = CHR
                i += 1
                continue
            i += 1
            continue
        if state == LINE:
            if c == "\n":
                state = NORMAL
            else:
                out[i] = " "
            i += 1
            continue
        if state == BLOCK:
            if c == "*" and nxt == "/":
                state = NORMAL
                out[i] = out[i + 1] = " "
                i += 2
                continue
            if c != "\n":
                out[i] = " "
            i += 1
            continue
        if state == RAW:
            if c == ")" and nxt == '"':
                state = NORMAL
                out[i] = out[i + 1] = " "
                i += 2
                continue
            if c != "\n":
                out[i] = " "
            i += 1
            continue
        # STR / CHR
        if c == "\\":
            out[i] = " "
            if i + 1 < n and text[i + 1] != "\n":
                out[i + 1] = " "
            i += 2
            continue
        if (state == STR and c == '"') or (state == CHR and c == "'"):
            state = NORMAL
            i += 1
            continue
        if c != "\n":
            out[i] = " "
        i += 1
    return "".join(out)


# ---------------------------------------------------------------------------
# Shared grammar fragments

RAW_INT_TYPE = (
    r"(?:(?:unsigned\s+|signed\s+)?(?:long\s+long|long|int|short|char)"
    r"|(?:std::)?u?int(?:8|16|32|64)_t"
    r"|(?:std::)?size_t|(?:std::)?ptrdiff_t)"
)
TIME_SUFFIX_NAME = r"\w+_(?:ps|cycles)"
UNORDERED_TYPE_RE = re.compile(r"\bstd\s*::\s*unordered_(?:multi)?(?:map|set)\s*<")


def balanced_angle_end(text, open_idx):
    """Index one past the matching '>' for the '<' at `open_idx`, or -1."""
    depth = 0
    i = open_idx
    while i < len(text):
        c = text[i]
        if c == "<":
            depth += 1
        elif c == ">":
            depth -= 1
            if depth == 0:
                return i + 1
        elif c in ";{}" and depth == 0:
            return -1
        i += 1
    return -1


# ---------------------------------------------------------------------------
# Check: nondeterministic-iteration


def collect_unordered_names(stripped_by_file):
    """Identifiers declared anywhere in the scan set with a type mentioning
    std::unordered_{map,set} (including nested, e.g. a vector of maps)."""
    names = set()
    for stripped in stripped_by_file.values():
        for m in UNORDERED_TYPE_RE.finditer(stripped):
            end = balanced_angle_end(stripped, stripped.index("<", m.start()))
            if end < 0:
                continue
            # Walk outward over any enclosing template arguments
            # (vector<unordered_map<...>> v) to the end of the full type,
            # then take the declared identifier that follows.
            j = end
            while j < len(stripped) and stripped[j] in "> \t\n":
                j += 1
            tail = stripped[j : j + 200]
            dm = re.match(r"[&*\s]*([A-Za-z_]\w*)\s*[;={(,)]", tail)
            if dm and dm.group(1) not in ("const", "constexpr", "mutable"):
                names.add(dm.group(1))
    return names


def check_nondeterministic_iteration(path, stripped_lines, ctx):
    """Range-for / iterator traversal of an unordered container.

    Hash-map iteration order is unspecified and varies with insertion
    history, libstdc++ version, and (for pointer keys) ASLR: any loop
    over an unordered container that feeds output, stats, or command
    ordering breaks run-to-run determinism. Lookup (find/count/[]/erase)
    is fine. Fix: use an ordered container, or materialize + sort before
    iterating (suppress the materializing line with a justification).
    """
    findings = []
    names = ctx["unordered_names"]
    if not names:
        return findings
    name_alt = "|".join(re.escape(n) for n in sorted(names))
    range_for = re.compile(
        r"for\s*\([^;)]*:\s*\*?(?:\w+(?:\.|->))*(%s)\b(?:\s*\[[^\]]*\])?\s*\)" % name_alt
    )
    begin_call = re.compile(
        r"\b(%s)\b(?:\s*\[[^\]]*\])?\s*\.\s*c?r?begin\s*\(" % name_alt
    )
    for i, line in enumerate(stripped_lines, 1):
        m = range_for.search(line) or begin_call.search(line)
        if m:
            findings.append(
                Finding(
                    path,
                    i,
                    "nondeterministic-iteration",
                    f"iteration over unordered container '{m.group(1)}': hash-map "
                    "order is unspecified and breaks run-to-run determinism; use an "
                    "ordered container or sort a materialized copy before iterating",
                )
            )
    return findings


# ---------------------------------------------------------------------------
# Check: banned-entropy

ENTROPY_PATTERNS = [
    (re.compile(r"\bstd\s*::\s*rand\b|(?<![\w.:>])s?rand\s*\("), "std::rand"),
    (re.compile(r"\bstd\s*::\s*random_device\b"), "std::random_device"),
    (re.compile(r"\bstd\s*::\s*mt19937(?:_64)?\b"), "std::mt19937"),
    (
        re.compile(r"\bstd\s*::\s*chrono\s*::\s*system_clock\b"),
        "std::chrono::system_clock",
    ),
    (
        re.compile(r"\bstd\s*::\s*chrono\s*::\s*steady_clock\b"),
        "std::chrono::steady_clock",
    ),
    (
        re.compile(r"\bstd\s*::\s*chrono\s*::\s*high_resolution_clock\b"),
        "std::chrono::high_resolution_clock",
    ),
    (re.compile(r"\bstd\s*::\s*time\s*\(|(?<![\w.:>])time\s*\(\s*(?:NULL|nullptr|0|\))"),
     "time()"),
    (re.compile(r"(?<![\w.:>])gettimeofday\s*\("), "gettimeofday"),
    (re.compile(r"(?<![\w.:>])clock_gettime\s*\("), "clock_gettime"),
]

# Host-timing code measures the simulator, not the simulation: its clock
# reads never feed scenario JSON payloads.
ENTROPY_ALLOWED = re.compile(r"(^|/)src/cli/(measure|perf)\.(hpp|cpp)$")


def check_banned_entropy(path, stripped_lines, ctx):
    """Wall-clock reads and unseeded/system randomness in simulation code.

    Every simulator value must derive from the scenario seed through the
    deterministic Xoshiro/SplitMix generators in common/rng.hpp; host
    clocks and system entropy make output depend on the machine and the
    moment. Host-timing code (src/cli/measure, src/cli/perf) is exempt —
    it measures the simulator itself.
    """
    findings = []
    if ENTROPY_ALLOWED.search(path):
        return findings
    for i, line in enumerate(stripped_lines, 1):
        for regex, label in ENTROPY_PATTERNS:
            if regex.search(line):
                findings.append(
                    Finding(
                        path,
                        i,
                        "banned-entropy",
                        f"{label} is nondeterministic; simulation code must use the "
                        "seeded Xoshiro256**/SplitMix64 generators in common/rng.hpp "
                        "(host-timing belongs in src/cli/measure or src/cli/perf)",
                    )
                )
    return findings


# ---------------------------------------------------------------------------
# Check: raw-time-units

PARAM_OR_FIELD_RE = re.compile(
    r"\b(?:const\s+)?(%s)\s*[&]?\s+(%s)\s*[,;={)\[]" % (RAW_INT_TYPE, TIME_SUFFIX_NAME)
)
RAW_RETURN_RE = re.compile(
    r"\b(?:const\s+)?(%s)\s+[&]?\s*(%s)\s*\(" % (RAW_INT_TYPE, TIME_SUFFIX_NAME)
)
MIXED_ARITH_RE = re.compile(
    r"\b\w+_ps\b\s*[-+*/%]\s*\w+_cycles\b|\b\w+_cycles\b\s*[-+*/%]\s*\w+_ps\b"
)


def check_raw_time_units(path, stripped_lines, ctx):
    """Raw integers posing as time quantities in public headers.

    An `std::int64_t window_ps` and an `std::int64_t window_cycles` add,
    compare, and convert silently — the classic unit bug the strong
    `Picoseconds` / `Cycles` wrappers in common/units.hpp exist to make
    unrepresentable. In public headers (.hpp under src/), parameters,
    returns, and fields suffixed `_ps` / `_cycles` must use the wrapper
    types; arithmetic mixing the two suffixes is flagged everywhere.
    """
    findings = []
    is_header = path.endswith((".hpp", ".h"))
    for i, line in enumerate(stripped_lines, 1):
        if is_header:
            for m in PARAM_OR_FIELD_RE.finditer(line):
                findings.append(
                    Finding(
                        path,
                        i,
                        "raw-time-units",
                        f"'{m.group(2)}' is declared {m.group(1)}; time quantities in "
                        "public headers must use Picoseconds/Cycles from "
                        "common/units.hpp",
                    )
                )
            for m in RAW_RETURN_RE.finditer(line):
                # A declaration like `int64_t foo_cycles(` is a function
                # returning a raw int; skip if PARAM_OR_FIELD already got it.
                findings.append(
                    Finding(
                        path,
                        i,
                        "raw-time-units",
                        f"function '{m.group(2)}' returns raw {m.group(1)}; return "
                        "Picoseconds/Cycles from common/units.hpp instead",
                    )
                )
        for m in MIXED_ARITH_RE.finditer(line):
            findings.append(
                Finding(
                    path,
                    i,
                    "raw-time-units",
                    "arithmetic mixes *_ps and *_cycles quantities; convert "
                    "explicitly through Frequency before combining",
                )
            )
    return findings


# ---------------------------------------------------------------------------
# Check: float-accumulation-order

FLOAT_DECL_RE = re.compile(r"\b(?:double|float)\s+[&]?\s*([A-Za-z_]\w*)\b")
# Declarations that make an accumulator definitely NOT floating-point, so a
# float literal on the right-hand side (e.g. inside a comparison selecting a
# char appended to a std::string) is not misattributed to the accumulation.
NONFLOAT_DECL_RE = re.compile(
    r"\b(?:(?:std::)?(?:string|u?int(?:8|16|32|64)_t|size_t)|bool|char"
    r"|(?:unsigned\s+|signed\s+)?(?:long\s+long|long|int|short)"
    r"|Picoseconds|Cycles|Frequency)\s+[&]?\s*([A-Za-z_]\w*)\b"
)
FLOAT_HINT_RE = re.compile(
    r"static_cast\s*<\s*(?:double|float)\s*>|\b\d+\.\d*(?:[eE][-+]?\d+)?[fF]?\b"
)


def check_float_accumulation(path, stripped_lines, ctx):
    """Floating-point `+=` reductions outside common/stats.

    FP addition is non-associative: the moment a reduction's iteration
    order changes (the parallel core will shard exactly these loops), the
    low bits of the sum change and golden hashes drift. Accumulations
    that affect output must run through the fixed-order helpers in
    common/stats, use integer arithmetic, or carry a justification that
    the traversal order is structurally fixed.
    """
    findings = []
    if re.search(r"(^|/)src/common/stats\.(hpp|cpp)$", path):
        return findings
    float_names = set()
    nonfloat_names = set()
    for line in stripped_lines:
        for m in FLOAT_DECL_RE.finditer(line):
            if m.group(1) not in ("const", "constexpr"):
                float_names.add(m.group(1))
        for m in NONFLOAT_DECL_RE.finditer(line):
            if m.group(1) not in ("const", "constexpr"):
                nonfloat_names.add(m.group(1))
    acc_re = re.compile(r"([A-Za-z_]\w*(?:\.\w+|\[[^\]]*\])*)\s*\+=\s*(.+)$")
    for i, line in enumerate(stripped_lines, 1):
        m = acc_re.search(line)
        if not m:
            continue
        lhs_root = re.match(r"[A-Za-z_]\w*", m.group(1)).group(0)
        rhs = m.group(2)
        if lhs_root in float_names or (
            lhs_root not in nonfloat_names and FLOAT_HINT_RE.search(rhs)
        ):
            findings.append(
                Finding(
                    path,
                    i,
                    "float-accumulation-order",
                    f"floating-point accumulation into '{m.group(1)}': FP addition "
                    "is non-associative, so iteration-order changes move the low "
                    "bits; use common/stats, integers, or justify a fixed order",
                )
            )
    return findings


# ---------------------------------------------------------------------------
# Check: fault-injection-seeding

RNG_CONSTRUCT_RE = re.compile(
    r"\b(Xoshiro256ss|SplitMix64)\s*(?:[A-Za-z_]\w*\s*)?\(([^)]*)"
)
SEED_SOURCE_RE = re.compile(r"seed|hash_mix", re.IGNORECASE)
# Files under src/ outside the fault pipeline are exempt; everything else
# (the pipeline files themselves, and fixture/test paths) is in scope —
# the same scoping trick cross-slice-shared-state uses.
FAULT_PIPELINE_EXEMPT_RE = re.compile(r"^src/(?!dram/faults\.|smc/ecc\.)")


def check_fault_injection_seeding(path, stripped_lines, ctx):
    """RNG constructions in the fault pipeline not derived from the scenario seed.

    Fault manifestation must replay bit-identically at any --threads
    value, which holds only when every draw in
    src/dram/faults.* and src/smc/ecc.* is keyed from FaultConfig::seed
    through hash_mix with distinct salts. An RNG seeded from anything
    else — a literal, an address, a host counter — silently forks the
    fault stream away from the scenario seed, and the divergence only
    surfaces as a golden-hash mismatch much later. The check requires a
    `seed`/`hash_mix` reference on the construction line
    itself; route derived keys through identifiers named `*seed*`.
    """
    findings = []
    if FAULT_PIPELINE_EXEMPT_RE.match(path):
        return findings
    for i, line in enumerate(stripped_lines, 1):
        for m in RNG_CONSTRUCT_RE.finditer(line):
            if SEED_SOURCE_RE.search(m.group(2) or ""):
                continue
            findings.append(
                Finding(
                    path,
                    i,
                    "fault-injection-seeding",
                    f"{m.group(1)} constructed without a scenario-seed "
                    "derivation: fault-pipeline draws must be keyed from "
                    "FaultConfig::seed via hash_mix (distinct salts) so "
                    "injection replays at any thread count",
                )
            )
    return findings


# ---------------------------------------------------------------------------
# Check: cross-slice-shared-state

STATIC_DECL_RE = re.compile(r"^\s*(?:inline\s+)?(static|thread_local)\b")
SYNC_TYPE_RE = re.compile(
    r"std\s*::\s*(?:atomic(?:_flag)?|mutex|shared_mutex|recursive_mutex"
    r"|once_flag|condition_variable(?:_any)?)"
)
IMMUTABLE_RE = re.compile(r"\b(?:const|constexpr|constinit)\b")
SLICE_SCOPED_RE = re.compile(r"^src/(?!sys/|smc/)")


def check_cross_slice_shared_state(path, stripped_lines, ctx):
    """Mutable static state in system-layer code without a SLICE-SHARED annotation.

    Scenario sweeps (`cli::sweep`) run whole systems concurrently, one
    system per task, so a `static` or `thread_local` object in src/sys
    or src/smc (the layers every system executes) is shared by every
    channel slice of every system in flight. A non-const, non-atomic
    static races between sweep threads; a `thread_local` one forks its
    value per thread and breaks thread-count invariance. Deliberate shared
    state carries a `// SLICE-SHARED(<rendezvous>)` annotation on the same
    or previous line naming the synchronization point that orders access;
    everything else should become const, atomic, or per-slice.
    """
    findings = []
    if SLICE_SCOPED_RE.match(path):
        return findings  # src/ layers outside the system engine.
    raw_lines = ctx["raw_by_path"].get(path, [])
    for i, line in enumerate(stripped_lines, 1):
        m = STATIC_DECL_RE.match(line)
        if not m:
            continue
        if IMMUTABLE_RE.search(line) or SYNC_TYPE_RE.search(line):
            continue
        # A '(' before any '=' means a function declaration/definition,
        # not an object. (Paren-initialized statics would be skipped too;
        # this repo brace-initializes, and the annotation is the escape.)
        if "(" in line.split("=", 1)[0]:
            continue
        raw = raw_lines[i - 1] if i - 1 < len(raw_lines) else ""
        prev = raw_lines[i - 2] if 2 <= i <= len(raw_lines) + 1 else ""
        if "SLICE-SHARED(" in raw or "SLICE-SHARED(" in prev:
            continue
        findings.append(
            Finding(
                path,
                i,
                "cross-slice-shared-state",
                f"mutable {m.group(1)} state in system-layer code: sweep "
                "threads run whole systems concurrently, so non-const "
                "non-atomic statics race; make it const/atomic/per-slice or "
                "annotate deliberate sharing with // SLICE-SHARED(<rendezvous>)",
            )
        )
    return findings


# ---------------------------------------------------------------------------
# Registry and driver

CHECKS = {
    "nondeterministic-iteration": check_nondeterministic_iteration,
    "banned-entropy": check_banned_entropy,
    "raw-time-units": check_raw_time_units,
    "float-accumulation-order": check_float_accumulation,
    "fault-injection-seeding": check_fault_injection_seeding,
    "cross-slice-shared-state": check_cross_slice_shared_state,
}

SOURCE_EXTS = (".cpp", ".cc", ".cxx", ".hpp", ".h")


def gather_files(paths):
    files = []
    for p in paths:
        p = pathlib.Path(p)
        if p.is_dir():
            files.extend(sorted(q for q in p.rglob("*") if q.suffix in SOURCE_EXTS))
        elif p.is_file():
            files.append(p)
        else:
            raise FileNotFoundError(p)
    return files


def run(paths, repo, checks):
    files = gather_files(paths)
    raw_by_file = {}
    stripped_by_file = {}
    rel_by_file = {}
    for f in files:
        text = f.read_text(encoding="utf-8", errors="replace")
        raw_by_file[f] = text.splitlines()
        stripped_by_file[f] = strip_comments_and_strings(text)
        try:
            rel_by_file[f] = f.resolve().relative_to(repo.resolve()).as_posix()
        except ValueError:
            rel_by_file[f] = f.as_posix()

    ctx = {
        "unordered_names": collect_unordered_names(stripped_by_file),
        # Raw (unstripped) lines per relative path, for checks whose
        # annotations live in comments (SLICE-SHARED).
        "raw_by_path": {rel_by_file[f]: raw_by_file[f] for f in files},
    }

    findings = []
    for f in files:
        path = rel_by_file[f]
        stripped_lines = stripped_by_file[f].splitlines()
        for name in checks:
            for finding in CHECKS[name](path, stripped_lines, ctx):
                if not is_suppressed(raw_by_file[f], finding.line, finding.check):
                    findings.append(finding)

    # De-duplicate (a line can match several sub-patterns) and order
    # deterministically — the linter practices what it preaches.
    seen = set()
    unique = []
    for x in sorted(findings, key=Finding.key):
        if x.key() not in seen:
            seen.add(x.key())
            unique.append(x)
    return unique, len(files)


def main(argv=None):
    ap = argparse.ArgumentParser(
        prog="easydram-lint",
        description="Determinism-contract static analysis (see docs/linting.md).",
    )
    ap.add_argument("paths", nargs="*", default=None,
                    help="files or directories to scan (default: src/)")
    ap.add_argument("--repo", default=None,
                    help="repository root (default: this script's grandparent)")
    ap.add_argument("--check", action="append", dest="checks", metavar="NAME",
                    help="run only NAME (repeatable; default: all checks)")
    ap.add_argument("--format", choices=("human", "json"), default="human")
    ap.add_argument("--list-checks", action="store_true",
                    help="print registered check names and exit")
    args = ap.parse_args(argv)

    if args.list_checks:
        for name, fn in CHECKS.items():
            summary = (fn.__doc__ or "").strip().splitlines()[0]
            print(f"{name}: {summary}")
        return 0

    repo = pathlib.Path(args.repo) if args.repo else pathlib.Path(
        __file__).resolve().parent.parent.parent
    checks = args.checks or list(CHECKS)
    for name in checks:
        if name not in CHECKS:
            print(f"easydram-lint: unknown check '{name}' "
                  f"(known: {', '.join(CHECKS)})", file=sys.stderr)
            return 2
    paths = args.paths or [repo / "src"]

    try:
        findings, n_files = run(paths, repo, checks)
    except FileNotFoundError as e:
        print(f"easydram-lint: no such path: {e}", file=sys.stderr)
        return 2

    if args.format == "json":
        print(json.dumps(
            {
                "tool": "easydram-lint",
                "files_scanned": n_files,
                "checks": checks,
                "findings": [dataclasses.asdict(x) for x in findings],
            },
            indent=2,
        ))
    else:
        for x in findings:
            print(f"{x.file}:{x.line}: [{x.check}] {x.message}")
        status = "clean" if not findings else f"{len(findings)} finding(s)"
        print(f"easydram-lint: {status} over {n_files} file(s) "
              f"(checks: {', '.join(checks)})")
    return 1 if findings else 0


if __name__ == "__main__":
    sys.exit(main())
