#!/usr/bin/env python3
"""Determinism self-test of the CamJ benchmark.

    python3 perfbench/selftest.py

Builds the runner (as run.py does), then runs every workload for a few
jobs and asserts that
  * every metric BENCHMARK.json names prints, by name, with its unit;
  * the exact counters (digital.*, explore.stages_run,
    explore.full_build_share, explore.lru_hit_ratio, serve.worker_restarts
    and the fig07 figures) repeat bit for bit across two runs of one seed;
  * a corrupted reference is reported as a failed job.
Exits non-zero on the first failed assertion.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.dont_write_bytecode = True
sys.path.insert(0, HERE)
import run  # noqa: E402

SEED = 4242
JOBS = {"grid": 9, "studies": 27, "served": 12}
EXACT = ["digital.cycles_ticked", "digital.cycles_jumped",
         "digital.jump_share", "digital.fallbacks", "explore.stages_run",
         "explore.full_build_share", "explore.lru_hit_ratio",
         "serve.worker_restarts", "fig07_mape_pct", "fig07_corr"]


def bench(workload, trace, *extra):
    out = run.build_dir()
    cmd = [os.path.join(out, "camj_perfbench"), "--workload", workload,
           "--seed", str(SEED), "--seconds", "1", "--trace", str(trace),
           "--jobs", str(JOBS[workload]), "--root", run.ROOT,
           "--tmp-dir", os.path.join(out, "tmp"),
           "--spans-dir", os.path.join(out, "spans")] + list(extra)
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=300)
    if proc.returncode != 0:
        fail(f"{workload}: runner exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def fail(message):
    print(f"FAIL {message}")
    sys.exit(1)


def check_names(workload, result, specs):
    metrics = result["metrics"]
    for spec in specs:
        got = metrics.get(spec["name"])
        if got is None or got.get("unit") != spec["unit"]:
            fail(f"{workload}: {spec['name']} [{spec['unit']}] "
                 f"missing or mislabelled: {got}")
        if not isinstance(got["value"], (int, float)):
            fail(f"{workload}: {spec['name']} is not a number")
    extra = set(metrics) - {s["name"] for s in specs}
    if extra:
        fail(f"{workload}: unexpected metrics {sorted(extra)}")


def check_exact(workload, first, second):
    for name in EXACT:
        a = first["metrics"].get(name)
        b = second["metrics"].get(name)
        if a is not None and a != b:
            fail(f"{workload}: {name} differs across runs: {a} vs {b}")


def main():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    run.build(run.build_dir())
    for workload in JOBS:
        plain = [bench(workload, 0) for _ in range(2)]
        traced = [bench(workload, 1) for _ in range(2)]
        for r in plain + traced:
            if not r["correct"] or r["failed"] != 0:
                fail(f"{workload}: a clean run reported failures: {r}")
        check_names(workload, plain[0], spec["end_to_end"])
        check_names(workload, traced[0], spec["per_layer"])
        check_exact(workload, *plain)
        check_exact(workload, *traced)
        corrupt = bench(workload, 0, "--corrupt-check")
        if corrupt["correct"] or corrupt["failed"] < 1:
            fail(f"{workload}: a corrupted reference went unnoticed")
        print(f"ok   {workload}: names and units, exact counters repeat, "
              f"corrupted reference caught")
    print("selftest passed")


if __name__ == "__main__":
    main()
