#!/usr/bin/env python3
"""A/B comparison of a base revision against the working tree.

  python3 benchmark/ab.py BASE_REV [--workload W]...

Exports BASE_REV with `git archive` into build-bench/ab/<commit>/ and copies
the working tree's benchmark/ and BENCHMARK.json over it, so both sides run
identical benchmark code. Then, per workload, it runs 10 parent/change pairs
of `run.py --trace 0` at BENCHMARK.json's run_seconds, alternating which side
goes first, pair i on seed i. For every end-to-end metric it reports each side's median and
quartiles, how many pairs the change won, and a verdict (stats.verdict):
a gain needs 9 of 10 pair wins and a median difference larger than the
parent's quartile distance; otherwise BENCHMARK.json's bound decides
between "no regression" and "regression", and a parent spread wider than
the bound reads "unresolved". Exits 1 on a regression or a failed run.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.dont_write_bytecode = True
sys.path.insert(0, HERE)
import stats  # noqa: E402

# Parent/change pairs per workload, on seeds 1..PAIRS: the 9-in-10 win rule
# needs ten.
PAIRS = 10

def export_base(rev):
    commit = subprocess.run(["git", "rev-parse", "--verify", rev + "^{commit}"], cwd=ROOT,
                            capture_output=True, text=True, check=True).stdout.strip()
    base = os.path.join(ROOT, "build-bench", "ab", commit[:12])
    if not os.path.isdir(os.path.join(base, "src")):
        os.makedirs(base, exist_ok=True)
        archive = subprocess.Popen(["git", "archive", commit], cwd=ROOT, stdout=subprocess.PIPE)
        subprocess.run(["tar", "-x", "-C", base], stdin=archive.stdout, check=True)
        archive.stdout.close()
        if archive.wait() != 0:
            raise SystemExit("git archive %s failed" % commit)
    shutil.rmtree(os.path.join(base, "benchmark"), ignore_errors=True)
    shutil.copytree(HERE, os.path.join(base, "benchmark"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), base)
    return base


def run(tree, workload, seed):
    r = subprocess.run([sys.executable, "benchmark/run.py", "--workload", workload,
                        "--seed", str(seed), "--trace", "0"],
                       cwd=tree, capture_output=True, text=True)
    lines = r.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    if result is None or not result["correct"]:
        sys.stderr.write(r.stdout[-2000:] + r.stderr[-2000:])
        return None
    return {k: v["value"] for k, v in result["metrics"].items()}


def main():
    bench = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("base", help="git revision of the parent side")
    ap.add_argument("--workload", action="append",
                    help="workload to compare (repeatable; default: all)")
    args = ap.parse_args()

    base = export_base(args.base)
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    failed = False
    print("%-18s %-20s %-11s %-34s %-34s %-6s %s" % (
        "workload", "metric", "unit", "parent median [q1, q3]", "change median [q1, q3]",
        "wins", "verdict"))
    for w in workloads:
        parent, change = [], []
        for seed in range(1, PAIRS + 1):
            sides = [(base, parent), (ROOT, change)]
            for tree, runs in (sides if seed % 2 == 1 else sides[::-1]):
                runs.append(run(tree, w, seed))
        ok = [(p, c) for p, c in zip(parent, change) if p is not None and c is not None]
        if len(ok) < len(parent):
            print("%-18s %d of %d pairs had a failed run" % (w, len(parent) - len(ok), len(parent)))
            failed = True
        if not ok:
            continue
        for m in bench["end_to_end"]:
            p = [a[m["name"]] for a, _ in ok]
            c = [b[m["name"]] for _, b in ok]
            verdict = stats.verdict(p, c, m["better"], m["bound"])
            failed |= verdict == "regression"
            cell = "%.6g [%.6g, %.6g]"
            print("%-18s %-20s %-11s %-34s %-34s %-6s %s" % (
                w, m["name"], m["unit"], cell % ((stats.median(p),) + stats.quartiles(p)),
                cell % ((stats.median(c),) + stats.quartiles(c)),
                "%d/%d" % (stats.wins(p, c, m["better"]), len(ok)), verdict))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
