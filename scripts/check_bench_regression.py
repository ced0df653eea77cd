#!/usr/bin/env python3
"""Gate a fresh micro_core --bench-json run against the committed baseline.

Usage:
    check_bench_regression.py --baseline BENCH_core.json --fresh fresh.jsonl
                              [--tolerance 0.5] [--tolerance-for BENCH=F ...]

Both files are bench-record JSON lines as written by
bench::append_bench_record: {"bench", "config", "wall_s", "items_per_s",
"peak_rss_mb"}. Only wall_s is gated; peak_rss_mb (absent from older records)
is informational.
Records accumulate history, so for every bench name the *last* record wins
on both sides (the committed baseline keeps pre-PR/post-PR pairs around for
archaeology; only the newest number is the contract).

A bench regresses when fresh_wall > baseline_wall * (1 + tolerance).
The default tolerance is deliberately loose (50%): the baseline was
recorded on a different host, and this gate exists to catch order-of-
magnitude perf-path breakage (an accidental O(n^2), a debug build, a lost
optimisation), not nanosecond drift. Two refinements:
  * benches with a sub-microsecond baseline get at least 200% tolerance —
    at that scale the timer and the allocator dominate;
  * --tolerance-for BENCH=FACTOR overrides the tolerance per bench name
    (repeatable), for benches known to be noisy on shared CI hosts.

Benches present only in the fresh run are reported as new (not a failure);
benches present only in the baseline are reported as not-run (not a
failure — the fresh run may be filtered) unless --require-all is given.

Exit code 0 when no bench regresses, 1 otherwise. Stdlib only.
"""
import argparse
import json
import sys


def last_record_per_bench(path):
    out = {}
    with open(path) as f:
        for i, line in enumerate(f):
            if not line.strip():
                continue
            try:
                rec = json.loads(line)
            except json.JSONDecodeError as e:
                sys.exit(f"check_bench_regression: {path}:{i + 1}: {e}")
            out[rec["bench"]] = rec
    return out


def main():
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--baseline", required=True)
    parser.add_argument("--fresh", required=True)
    parser.add_argument("--tolerance", type=float, default=0.5,
                        help="allowed fractional slowdown (default 0.5)")
    parser.add_argument("--tolerance-for", action="append", default=[],
                        metavar="BENCH=FACTOR",
                        help="per-bench tolerance override (repeatable)")
    parser.add_argument("--require-all", action="store_true",
                        help="fail when a baseline bench is missing from "
                             "the fresh run")
    args = parser.parse_args()

    overrides = {}
    for spec in args.tolerance_for:
        bench, _, factor = spec.partition("=")
        if not factor:
            parser.error(f"--tolerance-for needs BENCH=FACTOR, got {spec!r}")
        overrides[bench] = float(factor)

    baseline = last_record_per_bench(args.baseline)
    fresh = last_record_per_bench(args.fresh)
    if not fresh:
        sys.exit(f"check_bench_regression: {args.fresh}: no records")

    failures = []
    for name in sorted(set(baseline) | set(fresh)):
        if name not in fresh:
            msg = f"  not run: {name} (in baseline only)"
            if args.require_all:
                failures.append(msg)
            print(msg)
            continue
        if name not in baseline:
            print(f"  new bench: {name} (no baseline yet) "
                  f"wall_s={fresh[name]['wall_s']:.3g}")
            continue
        base_wall = baseline[name]["wall_s"]
        fresh_wall = fresh[name]["wall_s"]
        tol = overrides.get(name, args.tolerance)
        if base_wall < 1e-6:
            tol = max(tol, 2.0)
        limit = base_wall * (1.0 + tol)
        ratio = fresh_wall / base_wall if base_wall > 0 else float("inf")
        verdict = "OK" if fresh_wall <= limit else "REGRESSION"
        print(f"  {verdict}: {name} baseline={base_wall:.3g}s "
              f"fresh={fresh_wall:.3g}s ({ratio:.2f}x, tol {1 + tol:.2f}x)")
        if fresh_wall > limit:
            failures.append(f"  {name}: {ratio:.2f}x > {1 + tol:.2f}x allowed")

    if failures:
        print("check_bench_regression: FAIL", file=sys.stderr)
        for msg in failures:
            print(msg, file=sys.stderr)
        return 1
    print("check_bench_regression: all benches within tolerance")
    return 0


if __name__ == "__main__":
    sys.exit(main())
