#!/usr/bin/env python3
"""Build and run the repository's benchmark (see BENCHMARK.json).

One measurement, run from the repository root:

    python3 perfbench/run.py --workload fig3_cold --seed 1 --seconds 15 --trace 0

builds the `perfbench` binary from source (cargo, offline, into
$CARGO_TARGET_DIR or .bench_build), runs the workload for `--seconds`,
checks every result, prints each metric with its median, quartile spread
and sample count, and ends with one JSON line:

    {"correct": true, "attempted": 630, "failed": 0, "metrics": {...}}

With `--trace 0` the metrics are BENCHMARK.json's end-to-end metrics;
with `--trace 1` they are its per-layer metrics, from traced replays.

Many seeds and workloads, with a summary table per workload:

    python3 perfbench/run.py --report --seeds 10 [--workloads a,b] [--trace 0|1]

Host fingerprints, per-run results and span traces are written under
.bench_out/.
"""

import argparse
import json
import os
import re
import shutil
import signal
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT = os.path.join(ROOT, ".bench_out")
# Every workload runs on the default evaluator backend, pinned here.
BACKEND = "bitpar"
# Per-layer metrics of the layers a workload never calls: these read 0.
# Any other per-layer metric missing from a traced run fails the run.
IDLE_LAYERS = {
    "fig3_cold": (
        "apx_core.library.", "apx_verify.", "apx_core.cache.scan_", "apx_core.cache.gc_",
        "apx_core.orchestrate.",
    ),
    "fig3_retarget": ("apx_core.orchestrate.",),
    "fig3_sharded": (
        "apx_core.library.", "apx_verify.", "apx_core.cache.scan_", "apx_core.cache.gc_",
    ),
}
# A run must end within 180 s; the first one in a checkout may also build.
RUN_LIMIT_S = 175


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def build():
    """Builds the benchmark binary; returns its path, or None on failure."""
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    target = os.path.join(ROOT, target)
    cmd = [
        "cargo", "build", "--release", "--offline", "--locked", "--quiet",
        "--manifest-path", os.path.join("perfbench", "Cargo.toml"),
    ]
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    try:
        done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr)
    except OSError as e:
        log(f"cannot run cargo: {e}")
        return None
    binary = os.path.join(target, "release", "perfbench")
    if done.returncode != 0 or not os.path.isfile(binary):
        log("perfbench: build failed")
        return None
    return binary


def command_output(cmd):
    try:
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def target_cpu():
    """The target-cpu the build used: RUSTFLAGS, else .cargo/config.toml."""
    flags = os.environ.get("CARGO_ENCODED_RUSTFLAGS", "").replace("\x1f", " ")
    flags = flags or os.environ.get("RUSTFLAGS", "")
    m = re.search(r"target-cpu=([\w.-]+)", flags)
    if m:
        return m.group(1)
    try:
        with open(os.path.join(ROOT, ".cargo", "config.toml")) as f:
            m = re.search(r"target-cpu=([\w.-]+)", f.read())
    except OSError:
        m = None
    return m.group(1) if m else "default"


def git_revision():
    """HEAD of the checkout, if it is a git work tree of its own."""
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown (not a git checkout)"
    return command_output(["git", "rev-parse", "HEAD"]) or "unknown"


def fingerprint(backend):
    model = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "target_cpu": target_cpu(),
        "backend": backend,
        "git_revision": git_revision(),
        "rustc": command_output(["rustc", "-V"]) or "unknown",
    }


def run_binary(binary, workload, seed, seconds, trace, deadline):
    """Runs one measurement; returns the binary's JSON report or None."""
    cmd = [
        binary, "bench", "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace), "--out", OUT,
    ]
    env = dict(os.environ, APX_EVAL_BACKEND=BACKEND)
    proc = subprocess.Popen(
        cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True, start_new_session=True
    )
    try:
        stdout, _ = proc.communicate(timeout=max(10.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        log("perfbench: run exceeded its time limit")
        return None
    finally:
        # The binary cleans up after itself; this covers a crash.
        shutil.rmtree(
            os.path.join(OUT, "tmp", f"{workload}-{seed}-{proc.pid}"), ignore_errors=True
        )
    if proc.returncode != 0:
        log(f"perfbench: exited with status {proc.returncode}")
        return None
    lines = stdout.strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, ValueError):
        log("perfbench: no report")
        return None


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def summarize(spec, workload, report, trace):
    """Per metric: (unit, median, q1, q3, samples); None if a traced run
    lacks a metric of a layer the workload calls."""
    rows = {}
    if trace:
        for m in spec["per_layer"]:
            name = m["name"]
            idle = name.startswith(IDLE_LAYERS[workload])
            vals = [layer.get(name, 0.0 if idle else None) for layer in report["layers"]]
            if not vals or None in vals:
                log(f"perfbench: traced run of {workload} did not report {name}")
                return None
            rows[name] = (m["unit"], statistics.median(vals), *quartiles(vals), len(vals))
        return rows
    attempted, failed = report["attempted"], report["failed"]
    for m in spec["end_to_end"]:
        name = m["name"]
        if name == "pass_ratio":
            vals = [1.0 - failed / attempted]
        else:
            vals = [r[name] for r in report["reps"]]
        rows[name] = (m["unit"], statistics.median(vals), *quartiles(vals), len(vals))
    return rows


def measure(args):
    started = time.monotonic()
    spec = load_spec()
    binary = build()
    if binary is None:
        return 1
    # The first run in a checkout may spend most of its allowance building.
    deadline = time.monotonic() + RUN_LIMIT_S
    if time.monotonic() - started > 5:
        deadline = started + 895
    report = run_binary(binary, args.workload, args.seed, args.seconds, args.trace, deadline)
    if report is None:
        return 1
    rows = summarize(spec, args.workload, report, args.trace)
    if rows is None:
        return 1
    fp = fingerprint(report["backend"])
    print(
        f"perfbench {args.workload} seed={args.seed} trace={args.trace} "
        f"reps={len(report['reps'])} attempted={report['attempted']} failed={report['failed']} "
        f"digest={report['digest']}"
    )
    print("fingerprint: " + json.dumps(fp, sort_keys=True))
    for err in report["errors"]:
        print(f"check failed: {err}")
    print(f"{'metric':<38} {'unit':<6} {'median':>13} {'q1':>13} {'q3':>13} {'n':>4}")
    for name, (unit, med, q1, q3, n) in rows.items():
        print(f"{name:<38} {unit:<6} {med:>13.6g} {q1:>13.6g} {q3:>13.6g} {n:>4}")
    os.makedirs(os.path.join(OUT, "results"), exist_ok=True)
    record = dict(report, fingerprint=fp, seconds=args.seconds, trace=args.trace)
    path = os.path.join(OUT, "results", f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w") as f:
        json.dump(record, f, indent=1)
    metrics = {name: {"value": med, "unit": unit} for name, (unit, med, *_rest) in rows.items()}
    result = {
        "correct": report["failed"] == 0,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


def report_mode(args):
    """Runs every workload over several seeds and prints a summary."""
    spec = load_spec()
    workloads = args.workloads.split(",") if args.workloads else [w["name"] for w in spec["workloads"]]
    seconds = args.seconds or spec["run_seconds"]
    metric_specs = spec["per_layer"] if args.trace else spec["end_to_end"]
    bounds = {m["name"]: m.get("bound") for m in metric_specs}
    ok = True
    for w in workloads:
        values = {m["name"]: [] for m in metric_specs}
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            cmd = [
                sys.executable, os.path.abspath(__file__), "--workload", w, "--seed", str(seed),
                "--seconds", str(seconds), "--trace", str(args.trace),
            ]
            t0 = time.monotonic()
            done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            took = time.monotonic() - t0
            last = done.stdout.strip().splitlines()[-1:] if done.returncode == 0 else []
            if not last:
                log(f"{w} seed {seed}: FAILED (status {done.returncode})\n{done.stderr[-2000:]}")
                ok = False
                continue
            result = json.loads(last[0])
            ok &= result["correct"]
            log(f"{w} seed {seed}: {took:.1f} s, correct={result['correct']}")
            for name, m in result["metrics"].items():
                values[name].append(m["value"])
        print(f"\n== {w}: {args.seeds} seeds x {seconds} s, trace={args.trace}")
        print(f"{'metric':<38} {'unit':<6} {'median':>13} {'spread':>8} {'n':>3} {'bound':>6}")
        for m in metric_specs:
            vals = values[m["name"]]
            if not vals:
                continue
            med = statistics.median(vals)
            q1, q3 = quartiles(vals)
            spread = (q3 - q1) / med if med else float("nan")
            bound = bounds[m["name"]]
            flag = ""
            if bound is not None:
                flag = "ok" if spread <= bound / 3 else ("within bound" if spread <= bound else "TOO WIDE")
            print(
                f"{m['name']:<38} {m['unit']:<6} {med:>13.6g} {spread:>8.4f} {len(vals):>3} "
                f"{'' if bound is None else bound:>6} {flag}"
            )
    return 0 if ok else 1


def main():
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", choices=sorted(IDLE_LAYERS))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--report", action="store_true", help="run many seeds and summarize")
    p.add_argument("--seeds", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--workloads", help="comma-separated subset for --report")
    args = p.parse_args()
    if args.report:
        return report_mode(args)
    if args.workload is None or args.seconds is None:
        p.error("--workload and --seconds are required")
    return measure(args)


if __name__ == "__main__":
    sys.exit(main())
