#!/usr/bin/env python3
"""Compare the BENCH_*.json files of two runs of the bench targets.

usage: python3 bench/compare_bench.py <before_dir> <after_dir>

Checks that a change to the harness kept each file's content: key sets,
array lengths, strings, ints and bools must be equal, and a float must be
equal after rounding both sides to the decimals the "before" file printed.
Fields that measure time move from run to run even without a change
(timings, rates, speedups, provenance.git_rev, the GC figures of timed
loops, the metrics block); a difference there is listed, not failed.
Exits 1 if any other field differs or a file is missing.
"""
import glob
import json
import os
import re
import sys

TIMING = re.compile(
    r"(events_per_sec|_us$|_s$|speedup|groups_per_sec|failover_ms|prove_ms|ops_per_sec"
    r"|ns_per_event|^provenance\.git_rev$|^gc\.|^metrics\.)"
)


def load(path):
    # Keep each float's literal text: its decimals set the comparison.
    return json.load(open(path), parse_float=lambda s: ("float", s))


def decimals(text):
    if "e" in text.lower() or "." not in text:
        return 0
    return len(text.split(".")[1])


def is_number(v):
    return isinstance(v, (int, tuple)) and not isinstance(v, bool)


def value(v):
    return float(v[1]) if isinstance(v, tuple) else v


def walk(before, after, path, out):
    if isinstance(before, dict):
        if not isinstance(after, dict):
            out.append((path, "not an object"))
            return
        if set(before) != set(after):
            out.append((path, f"keys differ: {sorted(set(before) ^ set(after))}"))
        for k in before.keys() & after.keys():
            walk(before[k], after[k], f"{path}.{k}" if path else k, out)
    elif isinstance(before, list):
        if not isinstance(after, list) or len(before) != len(after):
            out.append((path, "array length differs"))
            return
        for i, (b, a) in enumerate(zip(before, after)):
            walk(b, a, f"{path}[{i}]", out)
    elif isinstance(before, tuple):
        d = decimals(before[1])
        if not (is_number(after) and round(value(after), d) == round(value(before), d)):
            out.append((path, f"{before[1]} -> {after}"))
    elif is_number(before):
        if not (is_number(after) and value(after) == before):
            out.append((path, f"{before} -> {after}"))
    elif before != after or type(before) is not type(after):
        out.append((path, f"{before!r} -> {after!r}"))


def main():
    before_dir, after_dir = sys.argv[1:3]
    failed = False
    for bf in sorted(glob.glob(os.path.join(before_dir, "BENCH_*.json"))):
        name = os.path.basename(bf)
        af = os.path.join(after_dir, name)
        if not os.path.exists(af):
            print(f"{name}: missing")
            failed = True
            continue
        out = []
        walk(load(bf), load(af), "", out)
        generic = [(re.sub(r"\[\d+\]", "[]", p), why) for p, why in out]
        timing = sorted({p for p, _ in generic if TIMING.search(p)})
        timing = sorted({"metrics.*" if p.startswith("metrics.") else p for p in timing})
        content = [(p, why) for (p, why), (g, _) in zip(out, generic) if not TIMING.search(g)]
        failed = failed or bool(content)
        print(f"{name}: {len(content)} content differences; timing fields that moved: "
              f"{', '.join(timing) or 'none'}")
        for p, why in content:
            print(f"    {p}: {why}")
    sys.exit(1 if failed else 0)


main()
