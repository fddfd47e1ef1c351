#!/usr/bin/env python3
"""NVServe benchmark: fixed-work kv-write / kv-evict.

One run:

    python3 perfbench/run.py --workload kv-write --seed 1 --seconds 10 --trace 0

builds perfbench/nvbench.exe from source (dune, build dir .bench_build),
serves the workload from an NVServe child process, drives it with one
validating closed-loop client, crashes and recovers the server, and audits
every key. With --trace 1 it also replays the same seeded stream in-process
through each layer and writes a Chrome trace to .bench_build/traces/. The
last line of stdout is one JSON object:

    {"correct": bool, "attempted": n, "failed": n,
     "metrics": {name: {"value": v, "unit": u}, ...}}

carrying the end_to_end metrics of BENCHMARK.json (--trace 0) or its
per_layer metrics (--trace 1).

Steadiness check, the same statistics the acceptance runs use:

    python3 perfbench/run.py steady --workload kv-write --runs 10 --seed 1

runs a workload N times (run_seconds of BENCHMARK.json, --trace 0) with
seeds seed..seed+N-1 and prints every end_to_end metric's median,
quartiles and quartile spread against its bound.
"""

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_DIR = ".bench_build"
EXE = os.path.join(ROOT, BUILD_DIR, "default", "perfbench", "nvbench.exe")
TRACE_DIR = os.path.join(ROOT, BUILD_DIR, "traces")

# Wall-clock budget of one run after the build, in seconds.
RUN_BUDGET_S = 170
BUILD_BUDGET_S = 850


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def build():
    cmd = ["dune", "build", "--root", ".", "--build-dir", BUILD_DIR,
           "--profile", "release", "./perfbench/nvbench.exe"]
    try:
        r = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr,
                           timeout=BUILD_BUDGET_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        sys.exit(f"run.py: build failed: {e}")
    if r.returncode != 0 or not os.path.exists(EXE):
        sys.exit("run.py: build failed")


# The child process group running now, and the signal that stops it, so
# that a run stopped from outside leaves no server behind.
_current = None


def _stop(signum, _frame):
    if _current is not None and _current[0].poll() is None:
        os.killpg(_current[0].pid, _current[1])
        _current[0].wait()
    sys.exit(128 + signum)


def spawn(args, stop_signal):
    """Start [args] in its own process group and track it for _stop."""
    global _current
    p = subprocess.Popen(args, cwd=ROOT, stdout=subprocess.PIPE,
                         start_new_session=True)
    _current = (p, stop_signal)
    return p


def run_child(args, deadline):
    """Run nvbench (it spawns the server) and return its JSON result line;
    the whole group dies on timeout."""
    p = spawn(args, signal.SIGKILL)
    try:
        out, _ = p.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(p.pid, signal.SIGKILL)
        p.wait()
        sys.exit(f"run.py: {args[1]} timed out")
    if p.returncode != 0:
        sys.exit(f"run.py: {args[1]} exited with {p.returncode}")
    return json.loads(out.decode().strip().splitlines()[-1])


def cpu_ticks():
    """(steal, total) jiffies of the whole machine, or None off Linux."""
    try:
        with open("/proc/stat") as f:
            fields = [int(x) for x in f.readline().split()[1:]]
        return fields[7], sum(fields)
    except (OSError, IndexError, ValueError):
        return None


def bench(argv):
    ap = argparse.ArgumentParser(description="Run one benchmark workload.")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = ap.parse_args(argv)
    spec = load_spec()
    if a.workload not in [w["name"] for w in spec["workloads"]]:
        sys.exit(f"run.py: unknown workload {a.workload}")
    build()
    deadline = time.monotonic() + RUN_BUDGET_S
    common = ["--workload", a.workload, "--seed", str(a.seed)]
    common += ["--seconds", str(a.seconds)]
    ticks0 = cpu_ticks()
    live = run_child([EXE, "live", *common], deadline)
    ticks1 = cpu_ticks()
    metrics = dict(live["metrics"])
    attempted, failed = live["attempted"], live["failed"]
    print(f"run.py: {int(metrics['latency_samples'])} batch latency samples, "
          f"{int(metrics['lost_writes'])} acknowledged writes lost", file=sys.stderr)
    if ticks0 and ticks1 and ticks1[1] > ticks0[1]:
        # Time the hypervisor ran someone else: the main source of run-to-run
        # spread on a shared host.
        steal = (ticks1[0] - ticks0[0]) / (ticks1[1] - ticks0[1])
        print(f"run.py: host steal {steal:.1%} of CPU time during the live run",
              file=sys.stderr)
    if a.trace:
        os.makedirs(TRACE_DIR, exist_ok=True)
        trace = os.path.join(TRACE_DIR, f"{a.workload}-seed{a.seed}.json")
        rep = run_child([EXE, "replay", *common, "--trace-out", trace], deadline)
        metrics.update(rep["metrics"])
        attempted += rep["attempted"]
        failed += rep["failed"]
        # Server CPU the in-process replay does not account for: sockets,
        # scheduler, output buffers.
        metrics["nvserve.io_us_per_req"] = (
            metrics["nvserve.cpu_us_per_req"] - metrics["replay.us_per_req"])
    declared = spec["per_layer" if a.trace else "end_to_end"]
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in declared},
    }
    print(json.dumps(result))


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3, (q3 - q1) / q2 if q2 else float("inf")


def steady(argv):
    ap = argparse.ArgumentParser(
        description="Run a workload N times and report each metric's spread.")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seed", type=int, default=1, help="first seed")
    a = ap.parse_args(argv)
    spec = load_spec()
    seconds = spec["run_seconds"]
    declared = {m["name"]: m for m in spec["end_to_end"]}
    values = {name: [] for name in declared}
    for i in range(a.runs):
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", a.workload,
               "--seed", str(a.seed + i), "--seconds", str(seconds),
               "--trace", "0"]
        # SIGTERM lets the run stop its own server first.
        p = spawn(cmd, signal.SIGTERM)
        out, _ = p.communicate()
        if p.returncode != 0:
            sys.exit(f"run.py: seed {a.seed + i} failed")
        res = json.loads(out.decode().strip().splitlines()[-1])
        print(f"seed {a.seed + i}: correct={res['correct']} failed={res['failed']}/"
              f"{res['attempted']} " + " ".join(
                  f"{k}={v['value']:.6g}" for k, v in res["metrics"].items()),
              flush=True)
        for name in declared:
            values[name].append(res["metrics"][name]["value"])
    print(f"\n{a.workload}: {a.runs} runs, {seconds:g} s each")
    print(f"{'metric':36} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}")
    summary = {}
    for name, m in declared.items():
        if len(values[name]) < 2:
            continue
        q1, q2, q3, s = spread(values[name])
        bound = m["bound"]
        flag = "ok" if s < bound / 3 else ("WIDE" if s > bound else "near")
        print(f"{name:36} {q2:12.6g} {q1:12.6g} {q3:12.6g} {s:8.4f} "
              f"{bound:>6} {flag}")
        summary[name] = {"median": q2, "q1": q1, "q3": q3, "spread": s}
    print(json.dumps({"workload": a.workload, "runs": a.runs, "metrics": summary}))


def main():
    signal.signal(signal.SIGTERM, _stop)
    signal.signal(signal.SIGINT, _stop)
    if len(sys.argv) > 1 and sys.argv[1] == "steady":
        steady(sys.argv[2:])
    else:
        bench(sys.argv[1:])


if __name__ == "__main__":
    main()
