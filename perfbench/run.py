#!/usr/bin/env python3
"""gfair benchmark: run one workload for a fixed time and print its metrics.

Usage, from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds `perfbench/` (a cargo package of its own, depending on the
repository's crates by path) into `$CARGO_TARGET_DIR` (default
`.bench_build`), then:

* `--trace 0` runs the workload untraced, one repetition per process, until
  `S` seconds have passed (at least three repetitions). Before each
  repetition it times a fixed calibration kernel (`perfbench/src/calib.rs`)
  for a moment, and scales the repetition's host times to a machine of
  fixed speed by the kernel's reference duration over its median duration
  there. It prints the median of every end-to-end metric. Each repetition
  checks its own output, and every repetition of one seed must produce the
  same report bytes.
* `--trace 1` times the calibration kernel, then runs the traced mode once.
  That mode runs the workload with no decorator (the reference report),
  then traced at the pinned planning-worker count, at a second count, and
  again until `S` seconds have passed. It checks that every report equals
  the reference, that the layer table closes and that every work count
  repeats. It prints the per-layer metrics, whose times are as measured.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`. One operation is one trace
job: every job of a repetition counts as failed if that repetition errs or
fails a check. The metric names and units are those listed in
`BENCHMARK.json`. See `perfbench/README.md` for the workloads and metrics.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MANIFEST = os.path.join(ROOT, "perfbench", "Cargo.toml")
MIN_REPS = 3
# Every run must end within 180 s; stop starting repetitions well before.
BUDGET_S = 150.0
# End-to-end metrics that are a pure function of the seed: every
# repetition must report them bit for bit.
DETERMINISTIC = ("jain", "base_gpu_h", "jct_p50_min", "jct_p99_min", "rho_p99", "finished_frac")
# Host times scaled to the reference machine: multiplied by the calibration
# factor, or divided by it for a rate.
SCALED = ("wall_s", "setup_s", "round_p50_us", "round_p90_us")
SCALED_RATE = ("sim_gpu_h_per_s",)
# Calibration time before each untraced repetition, and before a traced run.
# Within a run the machine's speed drifts, so each repetition is scaled by
# the calibration just before it, not by one factor for the whole run.
CALIBRATE_S = 0.2
CALIBRATE_TRACED_S = 1.0


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build():
    """Builds the benchmark; returns (binary path, target dir) or None."""
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    target = os.path.join(ROOT, target) if not os.path.isabs(target) else target
    if not os.path.exists(os.path.join(ROOT, "crates", "sim", "Cargo.toml")):
        log("the repository's crates are missing; run from a full checkout")
        return None
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    cmd = ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", MANIFEST]
    if subprocess.run(cmd, env=env, stdout=sys.stderr).returncode != 0:
        log("build failed")
        return None
    return os.path.join(target, "release", "gfair-perfbench"), target


def invoke(binary, args, timeout):
    """Runs the binary and returns (exit code, last stdout line as JSON)."""
    try:
        p = subprocess.run([binary] + args, stdout=subprocess.PIPE, timeout=timeout, text=True)
    except subprocess.TimeoutExpired:
        return None, None
    lines = p.stdout.strip().splitlines()
    try:
        return p.returncode, json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        return p.returncode, None


def calibrate(binary, seconds):
    """Times the calibration kernel; returns the reference duration over the
    median kernel duration (the scale factor), or None if the kernel failed."""
    code, out = invoke(binary, ["calibrate", "--seconds", str(seconds)], 60)
    if code != 0 or not out or out.get("error") is not None:
        log(f"calibration failed: {(out or {}).get('error') or f'exit code {code}'}")
        return None
    return out["reference_ms"] / statistics.median(out["calib_ms"])


def plain(binary, common, jobs, seconds):
    """Untraced repetitions, each right after a calibration, until `seconds`
    pass. Each repetition's host times are scaled by the factor of the
    calibration before it; the result is the median of each metric."""
    start = time.monotonic()
    reps, attempted, failed, errors = [], 0, 0, []
    while len(reps) + len(errors) < MIN_REPS or time.monotonic() - start < seconds:
        elapsed = time.monotonic() - start
        last = elapsed / max(1, len(reps) + len(errors))
        if elapsed + last > BUDGET_S:
            break
        factor = calibrate(binary, CALIBRATE_S)
        attempted += jobs
        if factor is None:
            failed += jobs
            errors.append("calibration failed")
            break
        code, out = invoke(binary, ["plain"] + common, BUDGET_S - elapsed + 20)
        if code == 0 and out and out.get("error") is None:
            out["factor"] = factor
            reps.append(out)
        else:
            failed += jobs
            errors.append((out or {}).get("error") or f"exit code {code}")
    for e in errors:
        log(f"repetition failed: {e}")
    correct = not errors and len(reps) >= MIN_REPS
    if reps and len({r["report_hash"] for r in reps}) != 1:
        log("repetitions of one seed produced different reports")
        correct = False
    for name in DETERMINISTIC:
        if reps and len({r["metrics"][name]["value"] for r in reps}) != 1:
            log(f"{name} differs between repetitions of one seed")
            correct = False

    def scaled(rep, name):
        value = rep["metrics"][name]["value"]
        if name in SCALED:
            return value * rep["factor"]
        if name in SCALED_RATE:
            return value / rep["factor"]
        return value

    metrics = {}
    for name in reps[0]["metrics"] if reps else []:
        value = statistics.median(scaled(r, name) for r in reps)
        metrics[name] = {"value": value, "unit": reps[0]["metrics"][name]["unit"]}
    if reps:
        log(f"{len(reps)} repetition(s) in {time.monotonic() - start:.1f}s; median wall_s as measured "
            f"{statistics.median(r['metrics']['wall_s']['value'] for r in reps)}, median scale factor "
            f"{statistics.median(r['factor'] for r in reps)}")
    return correct, attempted, failed, metrics


def traced(binary, common, jobs, seconds):
    """A calibration, then one traced-mode process; its per-layer metrics."""
    factor = calibrate(binary, CALIBRATE_TRACED_S)
    if factor is None:
        return False, jobs, jobs, {}
    code, out = invoke(binary, ["traced", "--seconds", str(seconds)] + common, BUDGET_S + 20)
    if code != 0 or not out or out.get("error") is not None:
        log(f"traced run failed: {(out or {}).get('error') or f'exit code {code}'}")
        return False, jobs, jobs, {}
    reps = int(out["reps"])
    metrics = dict(out["metrics"])
    metrics["calib.factor"] = {"value": factor, "unit": "ratio"}
    return True, jobs * reps, 0, metrics


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    built = build()
    if built is None:
        return 1
    binary, target = built
    code, jobs_by_name = invoke(binary, ["list"], 60)
    if code != 0 or a.workload not in (jobs_by_name or {}):
        log(f"unknown workload {a.workload!r}; known: {sorted(jobs_by_name or {})}")
        return 2
    jobs = jobs_by_name[a.workload]
    scratch = os.path.join(target, "perfbench-scratch")
    os.makedirs(scratch, exist_ok=True)
    # Planning workers are pinned, never sized from the machine, so numbers
    # depend on the code rather than on the core count. One worker keeps a
    # round from waiting on a second thread that another tenant delayed.
    nproc = os.cpu_count() or 1
    workers = 1
    log(f"workload={a.workload} seed={a.seed} nproc={nproc} planning_workers={workers}")
    common = ["--workload", a.workload, "--seed", str(a.seed), "--workers", str(workers), "--scratch", scratch]

    run = traced if a.trace else plain
    correct, attempted, failed, metrics = run(binary, common, jobs, a.seconds)
    wanted = spec["per_layer"] if a.trace else spec["end_to_end"]
    out = {}
    for m in wanted:
        got = metrics.get(m["name"])
        if got is None or got["unit"] != m["unit"]:
            if correct:
                log(f"metric {m['name']} missing or in the wrong unit")
            correct = False
            continue
        out[m["name"]] = {"value": got["value"], "unit": m["unit"]}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": out}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
