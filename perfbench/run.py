#!/usr/bin/env python3
"""Build and run the fpsnr end-to-end benchmark.

    python3 perfbench/run.py --workload hurricane-3d --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --smoke

The first form builds the library and the benchmark program (Release, into
.bench_build/ next to this directory) and runs one workload. Its last stdout
line is the JSON result {"correct", "attempted", "failed", "metrics"}; the
exit code is 0 only for a correct run. --trace 0 reports the end-to-end
metrics, --trace 1 the per-layer metrics of the traced run. The metric
names must match BENCHMARK.json exactly.

With --trace 0, setup_s is the median of several set-up samples, each
taken in a fresh process of the program after the measuring run, so that
every sample pays the process's cold costs (thread pool start-up, lazy
statics, first-touch page faults) as a user's first call does.

--smoke runs every workload on tiny inputs for a fraction of a second, in
both modes, and checks each result: the benchmark's own test.
"""
import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
WORK_DIR = os.path.join(ROOT, ".bench_build", "perfbench-run")
EXE = os.path.join(BUILD_DIR, "fpsnr_perfbench")
WORKLOADS = ("hurricane-3d", "atm-2d-fpsnrd", "series-3d")
# One run, set-up samples included, must end within 180 s of the build.
RUN_BUDGET_S = 170
SETUP_TIMEOUT_S = 5
# Set-up samples per run: each is one process, ~0.1-0.4 s.
SETUP_SAMPLES = {"hurricane-3d": 9, "atm-2d-fpsnrd": 15, "series-3d": 9}


def build():
    """Configure once, then (re)build the program; output goes to stderr."""
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            shutil.rmtree(BUILD_DIR, ignore_errors=True)
            sys.exit("perfbench: configure failed")
    cmd = ["cmake", "--build", BUILD_DIR, "--target", "fpsnr_perfbench",
           "-j", str(os.cpu_count() or 1)]
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
        sys.exit("perfbench: build failed")


def declared_metrics(trace):
    """Metric names BENCHMARK.json declares for this mode (None if absent)."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.exists(path):
        return None
    with open(path) as f:
        spec = json.load(f)
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def invoke(args, echo, timeout):
    """Run the program once; returns (exit code, stdout lines) or None on timeout."""
    cmd = [EXE] + args + ["--work-dir", WORK_DIR]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=None if echo else subprocess.PIPE,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        print("perfbench: %s timed out" % " ".join(args), file=sys.stderr)
        return None
    if not echo and proc.returncode:
        sys.stderr.write(proc.stdout + (proc.stderr or ""))
    return proc.returncode, proc.stdout.rstrip("\n").split("\n")


def parse_result(lines):
    try:
        return json.loads(lines[-1])
    except (ValueError, IndexError):
        print("perfbench: no JSON result line", file=sys.stderr)
        return None


def setup_samples(workload, quick, result, echo, deadline):
    """Median set-up time over fresh processes, merged into `result`."""
    common = ["--workload", workload, "--setup-sample"] + (["--quick"] if quick else [])
    samples, code = [], 0
    for _ in range(2 if quick else SETUP_SAMPLES[workload]):
        timeout = min(SETUP_TIMEOUT_S, deadline - time.monotonic())
        got = invoke(common, echo=False, timeout=timeout) if timeout > 0 else None
        sample = parse_result(got[1]) if got else None
        if sample is None:
            return 1
        code = code or got[0]
        result["attempted"] += sample["attempted"]
        result["failed"] += sample["failed"]
        result["correct"] = result["correct"] and sample["correct"]
        if "setup_s" in sample["metrics"]:
            samples.append(sample["metrics"]["setup_s"]["value"])
    if echo:
        print("set-up samples (s, one fresh process each): %s"
              % " ".join("%.4f" % s for s in samples), flush=True)
    if not samples:
        return code or 1
    result["metrics"] = dict(
        [("setup_s", {"value": statistics.median(samples), "unit": "s"})]
        + list(result["metrics"].items()))
    return code


def run(workload, seed, seconds, trace, quick=False, echo=True):
    """Run one workload; returns (exit code, parsed result or None)."""
    deadline = time.monotonic() + RUN_BUDGET_S
    args = ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
            "--trace", "1" if trace else "0"] + (["--quick"] if quick else [])
    got = invoke(args, echo, RUN_BUDGET_S)
    if got is None:
        return 1, None
    code, lines = got
    if echo:
        print("\n".join(lines[:-1]), flush=True)
    result = parse_result(lines)
    if result is None:
        return code or 1, None
    if not trace:
        code = setup_samples(workload, quick, result, echo, deadline) or code
    declared = declared_metrics(trace)
    if declared is not None and set(result["metrics"]) != declared:
        print("perfbench: metrics differ from BENCHMARK.json: missing %s, extra %s"
              % (sorted(declared - set(result["metrics"])),
                 sorted(set(result["metrics"]) - declared)), file=sys.stderr)
        return 1, None
    return code, result


def smoke():
    failures = 0
    for workload in WORKLOADS:
        for trace in (False, True):
            code, result = run(workload, 1, 0.2, trace, quick=True, echo=False)
            ok = code == 0 and result is not None and result["correct"] \
                and result["failed"] == 0 and result["attempted"] > 0
            print("%-14s trace=%d %s" % (workload, trace, "ok" if ok else "FAILED"))
            failures += not ok
    return 1 if failures else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="short run of every workload in both modes")
    args = parser.parse_args()
    if not args.smoke and (not args.workload or not args.seconds):
        parser.error("--workload and --seconds are required (or --smoke)")
    build()
    if args.smoke:
        return smoke()
    code, result = run(args.workload, args.seed, args.seconds, args.trace == 1)
    if result is None:
        return code or 1
    print(json.dumps(result), flush=True)
    return code


if __name__ == "__main__":
    sys.exit(main())
