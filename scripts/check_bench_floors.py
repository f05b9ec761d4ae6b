#!/usr/bin/env python3
"""Perf-floor guard over BENCH_simulator.json.

Reads the artifact perf_simulator writes, checks every committed
floor and invariant below, and exits non-zero naming each violation.
The floors are deliberately conservative (roughly an order of
magnitude under a warm developer machine) so shared CI runners don't
flake, while a real hot-path regression — an accidental O(n^2), a
re-introduced allocation storm, a lost cache fast-path — still trips
them. Ratio floors (speedups, byte-identity flags) and exact work
counters (memo misses) carry the real acceptance bars: they compare
two paths measured on the same host in the same process, or count
deterministic work, so they are immune to runner speed.

Usage:
    check_bench_floors.py BENCH_simulator.json [--summary OUT.md]
        [--baseline OLD.json]

--summary writes a markdown table of every checked number next to its
floor (and next to the baseline artifact's number when --baseline
names one, the before/after view CI uploads).
"""

import argparse
import json
import sys

# (json path, floor, kind) — kind "min" for >=, "max" for <=, "eq"
# for an exact count, "true" for must-be-true. Paths are dot-separated
# member chains.
FLOORS = [
    # specOps: the JSON hot-path primitives. Absolute floors are the
    # runner-tolerant backstop; the allocation counts are exact
    # invariants (compare/hash walk the tree without allocating, and
    # the compact Value caps what parse/clone may allocate).
    ("specOps.valueBytes", 16, "max"),
    ("specOps.parse.opsPerSec", 5000, "min"),
    ("specOps.dump.opsPerSec", 10000, "min"),
    ("specOps.clone.opsPerSec", 15000, "min"),
    ("specOps.compare.opsPerSec", 100000, "min"),
    ("specOps.hash.opsPerSec", 20000, "min"),
    ("specOps.compare.allocsPerOp", 0, "max"),
    ("specOps.hash.allocsPerOp", 0, "max"),
    ("specOps.parse.allocsPerOp", 400, "max"),
    ("specOps.clone.allocsPerOp", 400, "max"),
    # Grid expansion: the in-place pooled-workspace path against the
    # legacy clone-per-point emulation — the PR acceptance bar the
    # binary itself also enforces, re-checked here so a silently
    # edited bench can't drop it.
    ("gridSweep.expansion.speedupVsLegacy", 2.0, "min"),
    ("gridSweep.expansion.identicalToLegacy", None, "true"),
    ("gridSweep.expansion.inPlace.designsPerSec", 20000, "min"),
    ("gridSweep.pipelineIdenticalAcrossPaths", None, "true"),
    # The per-worker cycle-sim memo: the memo evaluator against plain
    # per-point Simulator runs, and exact miss counts over the
    # canonical grid — one per distinct simulated topology, in
    # row-major and stride-12 order alike. Pass A's one topology is the
    # only one: every pass-B stall check is answered without
    # simulating (ActBuf holds the whole frame). A miss count above 1
    # means the memo key or bound regressed, or the stall check
    # started simulating what it proves.
    ("incrementalSweep.speedup", 2.0, "min"),
    ("incrementalSweep.identicalToFullRebuild", None, "true"),
    ("stridedSweep.memoMisses", 1, "eq"),
    ("stridedSweep.rowMajorMemoMisses", 1, "eq"),
    ("stridedSweep.identicalToFullRebuild", None, "true"),
    # The on-disk outcome store must stay an optimization, never a
    # different answer.
    ("cachedSweep.identicalToFullRebuild", None, "true"),
    # The sweep service: a served stream is the same bytes as a local
    # run (the service contract), and the daemon's loopback round
    # trip stays a bounded overhead over the library path.
    ("servedSweep.identicalToInProcess", None, "true"),
    ("servedSweep.overheadRatio", 25.0, "max"),
    ("servedSweep.served.designsPerSec", 10, "min"),
    # Fast-forward cycle simulation: the closed-form period jumps
    # must stay bit-identical to the tick-loop reference (checked
    # in-binary too; re-checked here so a silently edited bench can't
    # drop it) and keep the PR acceptance bar of 5x on the
    # cycle-dominated frame. The serial-sweep floor rises with it:
    # the timing stage dominated the sweep before fast-forward
    # (~81 designs/sec); with it a warm machine clears ~400.
    ("cycleSim.identicalToTickLoop", None, "true"),
    ("cycleSim.speedup", 5.0, "min"),
    ("serialSweep.designsPerSec", 120, "min"),
    # The pass-B stall check on the source's cone of influence: cycles
    # ticked over the 27 paper studies (both passes; deterministic,
    # host-independent — 12,599,064 before the cone), and the serial
    # throughput over those studies it buys (38 designs/s before).
    ("usecaseSweep.cyclesTicked", 600000, "max"),
    ("usecaseSweep.serialSweep.designsPerSec", 300, "min"),
    # Paper accuracy (Fig. 7): MAPE 6.5197% and r = 0.99957 today.
    ("validation.fig07MapePct", 6.53, "max"),
    ("validation.fig07Corr", 0.9995, "min"),
]


def lookup(doc, path):
    node = doc
    for part in path.split("."):
        if not isinstance(node, dict) or part not in node:
            return None
        node = node[part]
    return node


def fmt(value):
    if isinstance(value, bool):
        return str(value).lower()
    if isinstance(value, float):
        return f"{value:,.1f}" if abs(value) >= 10 else f"{value:.3f}"
    return str(value)


def check(doc):
    failures = []
    rows = []
    for path, floor, kind in FLOORS:
        value = lookup(doc, path)
        if value is None:
            failures.append(f"{path}: missing from the artifact")
            rows.append((path, "MISSING", floor, kind, False))
            continue
        if kind == "min":
            ok = value >= floor
        elif kind == "max":
            ok = value <= floor
        elif kind == "eq":
            ok = value == floor
        else:
            ok = value is True
        if not ok:
            bound = {"min": ">=", "max": "<=", "eq": "==",
                     "true": "=="}[kind]
            want = floor if kind != "true" else True
            failures.append(
                f"{path}: {fmt(value)} (wants {bound} {fmt(want)})")
        rows.append((path, value, floor, kind, ok))
    return failures, rows


def write_summary(out_path, rows, baseline):
    lines = [
        "# Bench floor summary",
        "",
        "| metric | value | " +
        ("baseline | " if baseline else "") + "floor | ok |",
        "|---|---|" + ("---|" if baseline else "") + "---|---|",
    ]
    for path, value, floor, kind, ok in rows:
        bound = {"min": ">= ", "max": "<= ", "eq": "== ",
                 "true": "== true, "}[kind]
        floor_txt = bound + (fmt(floor) if kind != "true" else "")
        floor_txt = floor_txt.rstrip(", ")
        cells = [path, fmt(value)]
        if baseline:
            base_value = lookup(baseline, path)
            cells.append("-" if base_value is None else fmt(base_value))
        cells += [floor_txt, "yes" if ok else "**NO**"]
        lines.append("| " + " | ".join(str(c) for c in cells) + " |")
    with open(out_path, "w") as out:
        out.write("\n".join(lines) + "\n")


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("artifact", help="BENCH_simulator.json path")
    parser.add_argument("--summary", help="markdown summary to write")
    parser.add_argument(
        "--baseline",
        help="a previous BENCH_simulator.json for the before/after "
             "column (informational only — floors are what fail)")
    args = parser.parse_args()

    with open(args.artifact) as f:
        doc = json.load(f)
    baseline = None
    if args.baseline:
        try:
            with open(args.baseline) as f:
                baseline = json.load(f)
        except OSError as e:
            print(f"note: baseline unreadable, skipping: {e}")

    failures, rows = check(doc)
    if args.summary:
        write_summary(args.summary, rows, baseline)

    for path, value, floor, kind, ok in rows:
        mark = "ok " if ok else "FAIL"
        print(f"  [{mark}] {path} = {fmt(value)}")
    if failures:
        print(f"\n{len(failures)} perf floor(s) violated:",
              file=sys.stderr)
        for failure in failures:
            print(f"  {failure}", file=sys.stderr)
        return 1
    print(f"\nall {len(rows)} perf floors hold")
    return 0


if __name__ == "__main__":
    sys.exit(main())
