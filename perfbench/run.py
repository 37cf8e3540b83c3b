#!/usr/bin/env python3
"""Build and run the end-to-end benchmark (perfbench/e2e.ml).

Run from the root of a checkout of the repository:

    python3 perfbench/run.py --workload clos --seed 1 --seconds 60 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 60
    python3 perfbench/run.py --workload dispersed --seed 1 --selfcheck

The benchmark is built from source with dune (shared cache disabled, so
every build artefact stays under _build/ in the checkout), then run on one
workload. Its output ends with one JSON object: correct, attempted, failed
and metrics. `--workload all` runs every workload in turn and ends with the
combined object, metric names prefixed by the workload. The exit code is
nonzero when the build fails, a correctness gate fails or a run dies.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

WORKLOADS = ["clos", "dispersed"]
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TARGET = "./perfbench/e2e.exe"
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "e2e.exe")


def run_timeout(args):
    # A run measures for --seconds (--trace 1 splits them between an untraced
    # and a traced half), plus setup and an overrunning round in each half.
    return args.seconds + 90


def child_env():
    env = dict(os.environ)
    env["DUNE_CACHE"] = "disabled"
    # Provenance asks git for the revision; keep the lookup inside the checkout.
    env["GIT_CEILING_DIRECTORIES"] = os.path.dirname(ROOT)
    return env


def build():
    if not os.path.isfile(os.path.join(ROOT, "dune-project")):
        print("perfbench: no dune-project at %s; run from a full checkout" % ROOT,
              file=sys.stderr)
        return False
    dune = shutil.which("dune")
    if dune is None:
        print("perfbench: dune is not on PATH", file=sys.stderr)
        return False
    cmd = [dune, "build", "--root", ROOT, "--cache=disabled", "--display=quiet", TARGET]
    return subprocess.run(cmd, cwd=ROOT, env=child_env()).returncode == 0


def run(workload, args, capture):
    cmd = [EXE, "--workload", workload, "--seed", str(args.seed)]
    if args.selfcheck:
        cmd.append("--selfcheck")
    else:
        cmd += ["--seconds", str(args.seconds), "--trace", str(args.trace)]
    timeout = run_timeout(args)
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), timeout=timeout,
                              stdout=subprocess.PIPE if capture else None, text=True)
    except subprocess.TimeoutExpired:
        print("perfbench: %s did not finish in %d s" % (workload, timeout),
              file=sys.stderr)
        return 1, None
    return proc.returncode, proc.stdout


def run_all(args):
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for workload in WORKLOADS:
        rc, out = run(workload, args, capture=True)
        sys.stdout.write(out or "")
        status = status or rc
        if args.selfcheck:
            continue
        try:
            result = json.loads(out.strip().splitlines()[-1])
        except (AttributeError, IndexError, ValueError):
            combined["correct"] = False
            continue
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, m in result["metrics"].items():
            combined["metrics"]["%s.%s" % (workload, name)] = m
    if not args.selfcheck:
        print("\nall workloads:")
        for name, m in combined["metrics"].items():
            print("  %-44s %18.4f %s" % (name, m["value"], m["unit"]))
        print(json.dumps(combined))
    return status


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=60)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--selfcheck", action="store_true",
                        help="determinism self-check instead of a timed run")
    args = parser.parse_args()
    if not build():
        return 1
    if args.workload == "all":
        return run_all(args)
    rc, _ = run(args.workload, args, capture=False)
    return rc


if __name__ == "__main__":
    sys.exit(main())
