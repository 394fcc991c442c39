#!/usr/bin/env python3
"""Symbolizes and reports the samples of tools/profile's preloaded sampler.

Run a program under the sampler, then report where its CPU time went:

  python3 tools/profile/easyprof.py --preload build/tools/profile/libeasydram_sampler.so \\
      --out prof -- build/bench/bench_micro --benchmark_filter=BM_Burst8Window

Or report a sample file written earlier (prof.<pid>):

  python3 tools/profile/easyprof.py prof.12345

For each thread the report lists the share of samples by *outermost* frame
(the function the compiler emitted the sampled code in) and by *inlined*
frame (every function addr2line -i places in the inline chain at the
sampled address, so a helper inlined into its caller still gets its share),
plus the share per loaded object, so time spent in a shared library such
as libgcc_s shows up too. Inline chains need debug info: build with
-DCMAKE_CXX_FLAGS=-g (same code as Release, plus DWARF). Without it, the
symbol table still names every outermost function.
"""

import argparse
import bisect
import collections
import os
import subprocess
import sys


def parse(path):
    """Returns (objects, samples): objects as (start, end, bias, path)
    sorted by start, samples as {(tid, pc): count}."""
    objects, samples = [], collections.Counter()
    with open(path) as f:
        header = f.readline().split()
        if header[:2] != ["easydram-prof", "1"]:
            raise SystemExit(f"{path}: not an easydram-prof sample file")
        for line in f:
            kind, *rest = line.split(maxsplit=4 if line.startswith("object") else 3)
            if kind == "object":
                start, end, bias, obj = rest
                objects.append((int(start, 16), int(end, 16), int(bias, 16), obj.strip()))
            elif kind == "sample":
                tid, pc, count = rest
                samples[(int(tid), int(pc, 16))] += int(count)
    objects.sort()
    return objects, samples


def find_object(objects, starts, pc):
    i = bisect.bisect_right(starts, pc) - 1
    if i >= 0 and pc < objects[i][1]:
        return objects[i]
    return None


def dynamic_symbols(obj):
    """Sorted (address, name) of the object's defined symbols, from the
    symbol table or, for a stripped library, the dynamic one."""
    for flags in (["--defined-only"], ["-D", "--defined-only"]):
        out = subprocess.run(["nm", "-C", "-n"] + flags + [obj], capture_output=True,
                             text=True).stdout
        syms = []
        for line in out.splitlines():
            parts = line.split(maxsplit=2)
            if len(parts) == 3 and parts[1] in "tTwW":
                syms.append((int(parts[0], 16), parts[2]))
        if syms:
            return syms
    return []


def symbolize(obj, addrs):
    """Maps each object-relative address to its inline chain, innermost
    first (the last entry is the outermost function)."""
    out = subprocess.run(["addr2line", "-a", "-i", "-f", "-C", "-e", obj],
                         input="".join(f"{a:#x}\n" for a in addrs),
                         capture_output=True, text=True).stdout.splitlines()
    # With -a, each address line is followed by a (function, file:line)
    # pair per frame of its inline chain.
    chains, current = {}, None
    i = 0
    while i < len(out):
        if out[i].startswith("0x"):
            current = int(out[i], 16)
            chains[current] = []
            i += 1
        else:
            chains[current].append(out[i])
            i += 2
    syms = None
    for a in addrs:
        chain = [f for f in chains.get(a, []) if f != "??"]
        if not chain:
            # No symbol addr2line could use: fall back to nm's nearest
            # preceding symbol (stripped shared libraries keep .dynsym).
            if syms is None:
                syms = dynamic_symbols(obj)
                sym_addrs = [addr for addr, _ in syms]
            j = bisect.bisect_right(sym_addrs, a) - 1
            # Static functions of a stripped library are absent, so the
            # name is only the nearest exported symbol before the address.
            chain = [f"{syms[j][1]} [nearest export]"] if j >= 0 else ["??"]
        chains[a] = chain
    return chains


def report(path, top):
    objects, samples = parse(path)
    starts = [o[0] for o in objects]
    by_object = collections.defaultdict(set)
    placed = {}
    for (_, pc) in samples:
        o = find_object(objects, starts, pc)
        if o is not None:
            placed[pc] = (o[3], pc - o[2])
            by_object[o[3]].add(pc - o[2])
    frames = {}
    for obj, addrs in by_object.items():
        chains = symbolize(obj, sorted(addrs))
        for pc, (o, rel) in placed.items():
            if o == obj:
                frames[pc] = chains[rel]

    threads = collections.defaultdict(lambda: {
        "samples": 0, "outermost": collections.Counter(),
        "inlined": collections.Counter(), "objects": collections.Counter()})
    for (tid, pc), n in samples.items():
        t = threads[tid]
        t["samples"] += n
        obj = placed.get(pc, ("[unknown]", 0))[0]
        t["objects"][os.path.basename(obj)] += n
        chain = frames.get(pc, ["[unknown]"])
        t["outermost"][chain[-1]] += n
        for name in set(chain):
            t["inlined"][name] += n
    result = {}
    for tid, t in sorted(threads.items(), key=lambda kv: -kv[1]["samples"]):
        total = t["samples"]
        result[str(tid)] = {
            "samples": total,
            **{key: [[name, n / total] for name, n in t[key].most_common(top)]
               for key in ("objects", "outermost", "inlined")},
        }
    return result


def print_report(result):
    for tid, t in result.items():
        print(f"thread {tid}: {t['samples']} samples")
        for key, title in (("objects", "object"), ("outermost", "outermost frame"),
                           ("inlined", "inlined frame (any depth)")):
            print(f"  by {title}:")
            for name, share in t[key]:
                print(f"    {100 * share:6.2f}%  {name}")


def main():
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("files", nargs="*",
                   help="sample files to report; or end the options with --, "
                        "then the program and arguments to run under the sampler")
    p.add_argument("--preload", help="path of libeasydram_sampler.so")
    p.add_argument("--out", default="easydram-prof",
                   help="sample file prefix for a run (default %(default)s)")
    p.add_argument("--top", type=int, default=15, help="rows per table")
    argv = sys.argv[1:]
    split = argv.index("--") if "--" in argv else len(argv)
    args = p.parse_args(argv[:split])
    files = list(args.files)
    command = argv[split + 1:]
    if command:
        if not args.preload:
            p.error("running a program needs --preload")
        env = dict(os.environ, LD_PRELOAD=os.path.abspath(args.preload),
                   EASYDRAM_PROF_OUT=args.out)
        proc = subprocess.Popen(command, env=env)
        proc.wait()
        if proc.returncode != 0:
            raise SystemExit(f"profiled program exited with {proc.returncode}")
        files.append(f"{args.out}.{proc.pid}")
    if not files:
        p.error("give sample files or a command")
    for path in files:
        print(f"== {path}")
        print_report(report(path, args.top))


if __name__ == "__main__":
    main()
