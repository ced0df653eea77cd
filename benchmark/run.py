#!/usr/bin/env python3
"""The repo benchmark (benchmark/README.md).

  python3 benchmark/run.py --workload W --seed N --seconds S --trace 0|1
  python3 benchmark/run.py           # every workload, untraced then traced
  python3 benchmark/run.py --smoke   # reduced sizes: checks every metric prints

Builds benchmark/ (its own CMake project, Release) into build-bench/, then
measures for --seconds. Untraced (--trace 0), it starts fresh driver
processes, one pass of the workload each, until the time is used, and
reports the end-to-end metrics as medians over those repeats. Traced
(--trace 1), it re-executes each job in a process of its own through the
public call into each layer, in passes over the job list while --seconds
allows, and reports each per-layer metric's median over the passes. The last
line of stdout is one JSON object with the keys correct, attempted, failed
and metrics.
"""

import argparse
import json
import math
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.dont_write_bytecode = True  # leave nothing behind in benchmark/
sys.path.insert(0, HERE)
import stats  # noqa: E402

BUILD = os.path.join(ROOT, "build-bench")
DRIVER = os.path.join(BUILD, "cdnsim_bench")
BASELINE = os.path.join(HERE, "baseline.json")
# Untraced repeats per run at least; more while --seconds allows.
MIN_REPEATS = 5
# One driver process never gets near this; it only bounds a hung one.
PROCESS_TIMEOUT_S = 150
# The traced layers must account for the traced job wall within 5 %.
LAYER_SUM_RANGE = (0.95, 1.05)


class BenchError(Exception):
    pass


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise BenchError("library sources (src/) not found next to benchmark/")
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", str(min(4, os.cpu_count() or 1))])
    for cmd in steps:
        r = subprocess.run(cmd, capture_output=True, text=True)
        if r.returncode != 0:
            sys.stderr.write(r.stdout + r.stderr)
            raise BenchError("build failed: " + " ".join(cmd))


def driver(mode, workload, seed, smoke, job=None):
    """One driver process; returns its JSON report."""
    cmd = [DRIVER, mode, "--workload", workload, "--seed", str(seed)]
    if job is not None:
        cmd += ["--job", str(job)]
    if smoke:
        cmd.append("--smoke")
    r = subprocess.run(cmd, capture_output=True, text=True, timeout=PROCESS_TIMEOUT_S)
    if r.returncode != 0:
        raise BenchError("%s exited %d: %s" % (" ".join(cmd), r.returncode, r.stderr.strip()))
    return json.loads(r.stdout.strip().splitlines()[-1])


def until_spent(seconds, minimum, step):
    """Calls step() at least `minimum` times, and again while the average
    call still fits in `seconds`; returns the results."""
    out = []
    start = time.monotonic()
    while True:
        out.append(step())
        elapsed = time.monotonic() - start
        if len(out) >= minimum and elapsed + elapsed / len(out) > seconds:
            return out


# ---------------------------------------------------------------------------
# Untraced: end-to-end metrics
# ---------------------------------------------------------------------------

def untraced(workload, seed, seconds, smoke, minimum):
    reps = until_spent(seconds, minimum, lambda: driver("run", workload, seed, smoke))
    attempted = sum(r["attempted"] for r in reps)
    problems = [p for r in reps for p in r["problems"]]
    # Every repeat is a fresh process on the same inputs: outputs must agree.
    first = reps[0]["job_digests"]
    for r in reps[1:]:
        problems += ["job %d: output differs between repeats" % j
                     for j, (a, b) in enumerate(zip(first, r["job_digests"])) if a != b]
    # Times are in reference-host seconds: each repeat's wall times scaled by
    # its host speed, the driver's fixed probe's reference time over its
    # measured time (README "Host speed").
    speed = [r["probe_reference_s"] / stats.median(r["probe_s"]) for r in reps]
    wall_run_s = [r["run_s"] for r in reps]
    run_s = [t * v for t, v in zip(wall_run_s, speed)]
    samples = {
        "run_s": run_s,
        "server_hours_per_s": [r["server_hours"] / t for r, t in zip(reps, run_s)],
        "setup_s": [stats.median(r["setup_s"]) * v for r, v in zip(reps, speed)],
        "peak_rss_mb": [r["peak_rss_mb"] for r in reps],
    }
    q1, q3 = stats.quartiles(speed)
    print("%s: wall run_s median %.6g s, host speed median %.4g [%.4g, %.4g]" % (
        workload, stats.median(wall_run_s), stats.median(speed), q1, q3))
    digest = stats.fnv1a("".join(first))
    base = json.load(open(BASELINE))
    pinned = base["digests"].get(workload) if seed == base["seed"] and not smoke else None
    print("%s: digest %s digest_match %s" % (
        workload, digest, "n/a (no pin for this seed)" if pinned is None else str(pinned == digest).lower()))
    return samples, attempted, problems


# ---------------------------------------------------------------------------
# Traced: per-layer metrics
# ---------------------------------------------------------------------------

def traced_pass(workload, seed, smoke):
    """Every job once, each in its own process."""
    jobs = [driver("trace", workload, seed, smoke, job=0)]
    for j in range(1, jobs[0]["jobs"]):
        jobs.append(driver("trace", workload, seed, smoke, job=j))
    return jobs


def pass_values(jobs, names):
    """One traced pass's per-layer metrics: sums over its jobs, then the
    ratios derived from those sums."""
    def total(get):
        return sum(get(job) for job in jobs)

    def value(job, name):
        for group in ("layers", "waits", "counts"):
            if name in job[group]:
                return job[group][name]
        return 0.0  # a layer this workload bypasses

    def ratio(a, b):
        return a / b if b else 0.0

    out = {name: total(lambda job: value(job, name)) for name in names}
    wall = total(lambda job: job["wall_traced"])
    engine_s = out["sim.run_s"] + out["engine.run_s"]
    out["sim.cancel_ratio"] = ratio(out["sim.events_cancelled"], out["sim.events_scheduled"])
    out["sim.ns_per_event"] = ratio(engine_s * 1e9, out["sim.events_fired"])
    out["reliable.retries_per_update"] = ratio(out["reliable.retries"], out["net.messages_update"])
    live, suppressed = out["pubsub.live_deliveries"], out["pubsub.suppressed_deliveries"]
    out["pubsub.live_ratio"] = ratio(live, live + suppressed)
    sharded = [j for j in jobs if "shard.lane_imbalance" in j["counts"]]
    out["shard.lane_imbalance"] = (
        stats.median([j["counts"]["shard.lane_imbalance"] for j in sharded]) if sharded else 0.0)
    out["trace.layer_sum_frac"] = ratio(total(lambda job: sum(job["layers"].values())), wall)
    # Standalone re-runs are extra work, not tracing cost.
    out["trace.overhead_frac"] = ratio(wall - total(lambda job: job["standalone_s"]),
                                       total(lambda job: job["wall_untraced"])) - 1.0
    return out


def traced(workload, seed, seconds, smoke, names):
    """Traced passes while --seconds allows; per-layer samples, one per pass."""
    passes = until_spent(seconds, 1, lambda: traced_pass(workload, seed, smoke))
    problems = []
    for p in passes:
        for job in p:
            if job["problem"]:
                problems.append("%s: %s" % (job["label"], job["problem"]))
            if job["digest_traced"] != job["digest_untraced"]:
                problems.append("%s: traced output differs from untraced" % job["label"])
    for p in passes[1:]:
        for a, b in zip(passes[0], p):
            if a["counts"] != b["counts"]:
                problems.append("%s: counts differ between passes" % a["label"])
    values = [pass_values(p, names) for p in passes]
    samples = {k: [v[k] for v in values] for k in values[0]}
    layer_sum = stats.median(samples["trace.layer_sum_frac"])
    lo, hi = LAYER_SUM_RANGE
    if not lo <= layer_sum <= hi:
        problems.append("layers sum to %.3f of the traced wall, outside [%.2f, %.2f]"
                        % (layer_sum, lo, hi))
    attempted = sum(len(p) for p in passes)
    return samples, attempted, problems, len(passes)


# ---------------------------------------------------------------------------

def report(workload, spec, samples, repeats):
    """Prints each metric's median, quartiles and repeat count; returns the
    metrics object of the result line."""
    metrics = {}
    for m in spec:
        values = samples[m["name"]]
        q1, q3 = stats.quartiles(values)
        med = stats.median(values)
        print("%-18s %-28s %-10s median %-12.6g q1 %-12.6g q3 %-12.6g R=%d"
              % (workload, m["name"], m["unit"], med, q1, q3, repeats))
        metrics[m["name"]] = {"value": med, "unit": m["unit"]}
    return metrics


def run_one(bench, workload, seed, seconds, trace, smoke):
    """Returns (metrics, attempted, problems) for one workload and mode."""
    if trace:
        names = [m["name"] for m in bench["per_layer"]]
        samples, attempted, problems, repeats = traced(workload, seed, seconds, smoke, names)
        metrics = report(workload, bench["per_layer"], samples, repeats)
    else:
        samples, attempted, problems = untraced(
            workload, seed, seconds, smoke, 2 if smoke else MIN_REPEATS)
        metrics = report(workload, bench["end_to_end"], samples, len(samples["run_s"]))
    for p in problems:
        print("%s: FAILED %s" % (workload, p))
    return metrics, attempted, problems


def check_smoke(bench, metrics, trace):
    """Every metric of BENCHMARK.json, printed with its unit and a finite value."""
    errors = []
    for m in bench["per_layer" if trace else "end_to_end"]:
        got = metrics.get(m["name"])
        if got is None or got["unit"] != m["unit"] or not math.isfinite(got["value"]):
            errors.append("metric %s (%s) missing or not finite" % (m["name"], m["unit"]))
    return errors


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", help="one workload of BENCHMARK.json (default: all)")
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1))
    ap.add_argument("--smoke", action="store_true",
                    help="reduced sizes, every workload and mode; checks every metric prints")
    args = ap.parse_args()

    try:
        bench = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
        workloads = [w["name"] for w in bench["workloads"]]
        if args.workload is not None and args.workload not in workloads:
            raise BenchError("unknown workload %r (known: %s)" % (args.workload, ", ".join(workloads)))
        build()
        seconds = args.seconds if args.seconds is not None else (
            0.5 if args.smoke else bench["run_seconds"])
        selected = [args.workload] if args.workload else workloads
        modes = [args.trace] if args.trace is not None else [0, 1]
        single = len(selected) == 1 and len(modes) == 1

        metrics, attempted, problems, smoke_errors = {}, 0, [], []
        for w in selected:
            for trace in modes:
                m, a, p = run_one(bench, w, args.seed, seconds, trace, args.smoke)
                metrics.update(m if single else {"%s/%s" % (w, k): v for k, v in m.items()})
                attempted += a
                problems += p
                if args.smoke:
                    smoke_errors += ["%s: %s" % (w, e) for e in check_smoke(bench, m, trace)]
    except (BenchError, subprocess.TimeoutExpired, OSError, ValueError, KeyError) as e:
        print("run.py: %s" % e, file=sys.stderr)
        return 2

    for e in smoke_errors:
        print("smoke: " + e)
    correct = not problems and not smoke_errors
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": len(problems), "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
