#!/usr/bin/env python3
"""Benchmark regression gate for CI.

Merges one or more Google Benchmark JSON outputs into a single
``BENCH_pr.json``, compares every benchmark against the checked-in
baseline with a tolerance factor, and (on machines with enough cores)
enforces the global-work-queue speedup claim:

    time(BM_BatchSequentialPerField/8) / time(BM_BatchGlobalQueue/8) >= 1.3

and the full-rank tiling claim from bench_tiling (pancake-shaped field,
where axis-0 slabs cap the block count at the short leading extent):

    time(BM_TilingSlabCompress/8) / time(BM_TilingFullRankCompress/8) >= 1.3

and the temporal-compression claim from bench_temporal (slowly evolving
series, equal fixed-PSNR target, compression *ratios* from the benches'
``ratio`` counters — archive bytes are deterministic, so this gate never
depends on the runner's speed):

    ratio(BM_TemporalSeriesCompress/60) /
        ratio(BM_TemporalSpatialOnlyCompress/60) >= 1.4

The absolute comparison is deliberately loose (default: fail only when a
benchmark runs ``--tolerance`` times slower than the baseline): the
baseline and the CI runner are different machines, so the gate exists to
catch order-of-magnitude regressions (accidental O(n^2), lost parallelism,
debug code left in), not 10% noise. The speedup gate, by contrast, is an
*intra-run* ratio — machine-independent — and is the PR's actual claim; it
is skipped when the runner has fewer than ``--min-cpus`` cores, where no
scheduling win is physically possible.

A second intra-run gate covers the SIMD kernel layer: bench_simd_kernels
runs every vectorized kernel as a scalar/dispatch arm pair and exports the
dispatched backend through the ``fpsnr_simd_backend`` context key. When
that key is present and not ``scalar``, at least ``--simd-min-kernels``
kernels must show a scalar/dispatch speedup of ``--simd-gate`` or better
(the huffman pack arm is serial by design and is reported but not expected
to pass). With a scalar backend — FPSNR_SIMD=scalar legs, or hosts with no
vector ISA — the pairs measure parity and the gate is skipped.

Usage:
  bench_compare.py --baseline bench/BENCH_baseline.json \
      --pr out1.json out2.json --out BENCH_pr.json \
      [--tolerance 2.0] [--speedup-gate 1.3] [--min-cpus 4] \
      [--simd-gate 1.5] [--simd-min-kernels 2] \
      [--summary "$GITHUB_STEP_SUMMARY"]

Exit codes: 0 pass, 1 regression / missing benchmark, 2 bad input.
"""
from __future__ import annotations

import argparse
import json
import sys


SEQ8 = "BM_BatchSequentialPerField/8/real_time"
QUEUE8 = "BM_BatchGlobalQueue/8/real_time"
SLAB8 = "BM_TilingSlabCompress/8/real_time"
FULLRANK8 = "BM_TilingFullRankCompress/8/real_time"

# bench_temporal arms: same series, same PSNR target, spatial-only vs the
# v4 delta chain. The gate reads their `ratio` counters (compression
# ratios — deterministic bytes, so machine-independent). Gated at 60 dB,
# the slow-evolution claim; the 80 dB pair is reported alongside.
TEMPORAL_PAIRS = [
    (60, "BM_TemporalSpatialOnlyCompress/60/real_time",
     "BM_TemporalSeriesCompress/60/real_time", True),
    (80, "BM_TemporalSpatialOnlyCompress/80/real_time",
     "BM_TemporalSeriesCompress/80/real_time", False),
]

# scalar/dispatch arm pairs emitted by bench_simd_kernels.cpp.
SIMD_KERNELS = [
    ("haar", "BM_SimdHaarFwd/scalar", "BM_SimdHaarFwd/dispatch"),
    ("dct", "BM_SimdDct2/scalar", "BM_SimdDct2/dispatch"),
    ("zfpr", "BM_SimdZfprQuant/scalar", "BM_SimdZfprQuant/dispatch"),
    ("lorenzo", "BM_SimdLorenzo2/scalar", "BM_SimdLorenzo2/dispatch"),
    ("lorenzo3", "BM_SimdLorenzo3/scalar", "BM_SimdLorenzo3/dispatch"),
    ("lorenzo2-recon", "BM_SimdLorenzo2Recon/scalar",
     "BM_SimdLorenzo2Recon/dispatch"),
    ("lorenzo3-recon", "BM_SimdLorenzo3Recon/scalar",
     "BM_SimdLorenzo3Recon/dispatch"),
    ("huffman", "BM_SimdHuffmanPack/scalar", "BM_SimdHuffmanPack/dispatch"),
    ("sse", "BM_SimdSse/scalar", "BM_SimdSse/dispatch"),
]


def load(path):
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        print(f"error: cannot read {path}: {e}", file=sys.stderr)
        sys.exit(2)


def times_by_name(doc):
    """name -> real_time in ns, keyed by the canonical benchmark name.

    When a run used --benchmark_repetitions, the median aggregate is
    preferred over individual iterations: shared CI runners are noisy, and
    the gate should compare typical times, not one unlucky sample. Runs
    without repetitions fall back to the single iteration entry, so old
    baselines and new PR runs stay comparable.
    """
    unit_ns = {"ns": 1.0, "us": 1e3, "ms": 1e6, "s": 1e9}
    raw, medians = {}, {}
    for b in doc.get("benchmarks", []):
        ns = float(b["real_time"]) * unit_ns.get(b.get("time_unit", "ns"), 1.0)
        if b.get("run_type") == "aggregate":
            if b.get("aggregate_name") == "median":
                medians[b.get("run_name", b["name"])] = ns
            continue
        # repeated runs share one run_name; keep the first sample as the
        # fallback when no median aggregate is present
        raw.setdefault(b.get("run_name", b["name"]), ns)
    return {**raw, **medians}


def counters_by_name(doc, counter):
    """name -> value of a user counter, preferring median aggregates."""
    raw, medians = {}, {}
    for b in doc.get("benchmarks", []):
        if counter not in b:
            continue
        value = float(b[counter])
        if b.get("run_type") == "aggregate":
            if b.get("aggregate_name") == "median":
                medians[b.get("run_name", b["name"])] = value
            continue
        raw.setdefault(b.get("run_name", b["name"]), value)
    return {**raw, **medians}


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--baseline", required=True)
    ap.add_argument("--pr", nargs="+", required=True,
                    help="benchmark JSON output file(s) from this run")
    ap.add_argument("--out", default="BENCH_pr.json",
                    help="merged PR benchmark JSON to write")
    ap.add_argument("--tolerance", type=float, default=2.0,
                    help="fail when pr_time > tolerance * baseline_time")
    ap.add_argument("--speedup-gate", type=float, default=1.3,
                    help="required sequential/queue speedup at 8 workers")
    ap.add_argument("--tiling-gate", type=float, default=1.3,
                    help="required slab/full-rank tiling speedup at 8 workers")
    ap.add_argument("--min-cpus", type=int, default=4,
                    help="skip the speedup gate below this core count")
    ap.add_argument("--temporal-gate", type=float, default=1.4,
                    help="required temporal/spatial compression-ratio win "
                         "at the gated PSNR target")
    ap.add_argument("--simd-gate", type=float, default=1.5,
                    help="required per-kernel scalar/dispatch speedup")
    ap.add_argument("--simd-min-kernels", type=int, default=2,
                    help="kernels that must meet --simd-gate when a vector "
                         "backend is dispatched")
    ap.add_argument("--summary", default=None,
                    help="append a markdown report here (GITHUB_STEP_SUMMARY)")
    args = ap.parse_args()

    prs = [load(p) for p in args.pr]
    merged = {"context": prs[0].get("context", {}), "benchmarks": []}
    for doc in prs:
        merged["benchmarks"].extend(doc.get("benchmarks", []))
    with open(args.out, "w") as f:
        json.dump(merged, f, indent=1)
    print(f"wrote {args.out} ({len(merged['benchmarks'])} benchmark entries)")

    base = times_by_name(load(args.baseline))
    pr = times_by_name(merged)

    failures = []
    rows = []
    for name in sorted(base):
        if name not in pr:
            failures.append(f"baseline benchmark `{name}` missing from this run")
            rows.append((name, base[name], None, None, "MISSING"))
            continue
        ratio = pr[name] / base[name] if base[name] > 0 else float("inf")
        verdict = "ok" if ratio <= args.tolerance else "REGRESSED"
        if verdict != "ok":
            failures.append(
                f"`{name}`: {pr[name] / 1e6:.2f} ms vs baseline "
                f"{base[name] / 1e6:.2f} ms ({ratio:.2f}x > {args.tolerance}x)")
        rows.append((name, base[name], pr[name], ratio, verdict))
    for name in sorted(set(pr) - set(base)):
        rows.append((name, None, pr[name], None, "new"))

    cpus = int(merged["context"].get("num_cpus", 0) or 0)
    base_cpus = int(load(args.baseline).get("context", {}).get("num_cpus", 0) or 0)
    baseline_note = ""
    if base_cpus and base_cpus < args.min_cpus:
        baseline_note = (
            f"warning: baseline was recorded on {base_cpus} cpu(s) — its "
            f"parallel-arm times are serial times, so the {args.tolerance}x "
            f"tolerance cannot catch lost parallelism; refresh "
            f"BENCH_baseline.json from a multi-core run's BENCH_pr.json")
    speedup_note = ""
    if SEQ8 in pr and QUEUE8 in pr:
        speedup = pr[SEQ8] / pr[QUEUE8]
        if cpus >= args.min_cpus:
            gate = "ok" if speedup >= args.speedup_gate else "FAILED"
            speedup_note = (f"global-queue speedup at 8 workers: "
                            f"{speedup:.2f}x (gate >= {args.speedup_gate}x, "
                            f"{cpus} cpus) — {gate}")
            if gate != "ok":
                failures.append(speedup_note)
        else:
            speedup_note = (f"global-queue speedup at 8 workers: {speedup:.2f}x "
                            f"(gate skipped: only {cpus} cpus, need "
                            f">= {args.min_cpus})")
    else:
        failures.append(
            f"speedup gate benchmarks missing (`{SEQ8}`, `{QUEUE8}`)")

    # Full-rank tiling gate: on a pancake field the slab decomposition can
    # never keep 8 workers busy (block count == leading extent), so the
    # full-rank arm must win by the gate factor. Intra-run ratio, same
    # machine-independence argument as the queue gate.
    tiling_note = ""
    if SLAB8 in pr and FULLRANK8 in pr:
        speedup = pr[SLAB8] / pr[FULLRANK8]
        if cpus >= args.min_cpus:
            gate = "ok" if speedup >= args.tiling_gate else "FAILED"
            tiling_note = (f"full-rank tiling speedup at 8 workers: "
                           f"{speedup:.2f}x (gate >= {args.tiling_gate}x, "
                           f"{cpus} cpus) — {gate}")
            if gate != "ok":
                failures.append(tiling_note)
        else:
            tiling_note = (f"full-rank tiling speedup at 8 workers: "
                           f"{speedup:.2f}x (gate skipped: only {cpus} cpus, "
                           f"need >= {args.min_cpus})")
    else:
        failures.append(
            f"tiling gate benchmarks missing (`{SLAB8}`, `{FULLRANK8}`)")

    # Temporal compression gate: intra-run *compression-ratio* ratio from
    # bench_temporal's `ratio` counters. Unlike the timing gates this one
    # never depends on core count or machine load — the archives' bytes are
    # deterministic — so it is always armed when the bench ran.
    temporal_notes = []
    ratio_counters = counters_by_name(merged, "ratio")
    temporal_seen = False
    for db, spatial, temporal, gated in TEMPORAL_PAIRS:
        if spatial not in ratio_counters or temporal not in ratio_counters:
            continue
        temporal_seen = True
        win = (ratio_counters[temporal] / ratio_counters[spatial]
               if ratio_counters[spatial] > 0 else float("inf"))
        if gated:
            gate = "ok" if win >= args.temporal_gate else "FAILED"
            note = (f"- {db} dB: temporal ratio {ratio_counters[temporal]:.2f} "
                    f"vs spatial {ratio_counters[spatial]:.2f} = {win:.2f}x "
                    f"(gate >= {args.temporal_gate}x) — {gate}")
            if gate != "ok":
                failures.append(
                    f"temporal compression gate at {db} dB: {win:.2f}x < "
                    f"{args.temporal_gate}x")
        else:
            note = (f"- {db} dB: temporal ratio {ratio_counters[temporal]:.2f} "
                    f"vs spatial {ratio_counters[spatial]:.2f} = {win:.2f}x "
                    f"(reported, not gated)")
        temporal_notes.append(note)
    if temporal_seen:
        temporal_notes.insert(0, "temporal vs spatial-only compression:")
    else:
        failures.append(
            "temporal gate benchmarks missing (bench_temporal `ratio` "
            "counters not found)")

    # SIMD vectorization gate: intra-run scalar/dispatch arm ratios from
    # bench_simd_kernels. Armed only when that bench ran AND it dispatched
    # a vector backend; scalar runs report parity and skip the gate.
    simd_notes = []
    simd_backend = next((doc.get("context", {}).get("fpsnr_simd_backend")
                         for doc in prs
                         if doc.get("context", {}).get("fpsnr_simd_backend")),
                        None)
    simd_pairs = [(k, s, d) for k, s, d in SIMD_KERNELS
                  if s in pr and d in pr]
    if simd_pairs:
        passing = 0
        for kernel, s, d in simd_pairs:
            speedup = pr[s] / pr[d] if pr[d] > 0 else float("inf")
            gate_met = speedup >= args.simd_gate
            passing += gate_met
            simd_notes.append(f"- {kernel}: {speedup:.2f}x "
                              f"({'ok' if gate_met else 'below gate'})")
        if simd_backend and simd_backend != "scalar":
            verdict = "ok" if passing >= args.simd_min_kernels else "FAILED"
            header = (f"SIMD vectorization gate (backend `{simd_backend}`): "
                      f"{passing}/{len(simd_pairs)} kernels at >= "
                      f"{args.simd_gate}x, need {args.simd_min_kernels} — "
                      f"{verdict}")
            if verdict != "ok":
                failures.append(header)
        else:
            header = (f"SIMD kernel arms (backend "
                      f"`{simd_backend or 'unknown'}`): vectorization gate "
                      f"skipped — scalar backend measures parity, not speedup")
        simd_notes.insert(0, header)

    lines = ["| benchmark | baseline (ms) | this run (ms) | ratio | verdict |",
             "|---|---|---|---|---|"]
    for name, b, p, ratio, verdict in rows:
        lines.append("| `{}` | {} | {} | {} | {} |".format(
            name,
            f"{b / 1e6:.2f}" if b is not None else "—",
            f"{p / 1e6:.2f}" if p is not None else "—",
            f"{ratio:.2f}x" if ratio is not None else "—",
            verdict))
    report = ["### Benchmark regression check", "",
              f"tolerance {args.tolerance}x vs checked-in baseline "
              f"(cross-machine guard), {cpus} cpus on this runner", "",
              *lines, ""]
    if speedup_note:
        report += [speedup_note, ""]
    if tiling_note:
        report += [tiling_note, ""]
    if temporal_notes:
        report += [*temporal_notes, ""]
    if simd_notes:
        report += [*simd_notes, ""]
    if baseline_note:
        report += [baseline_note, ""]
    report += ["**" + (f"{len(failures)} failure(s)" if failures else "PASS") + "**"]
    text = "\n".join(report)
    print(text)
    if args.summary:
        with open(args.summary, "a") as f:
            f.write(text + "\n")

    if failures:
        print("\nfailures:", file=sys.stderr)
        for f_ in failures:
            print(f"  - {f_}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
