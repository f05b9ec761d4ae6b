#!/usr/bin/env python3
"""Build and run the CamJ benchmark.

    python3 perfbench/run.py --workload grid|studies|served --seed N \
        --seconds S --trace 0|1

Run from the root of a checkout. The first run configures and builds
the library, camj_serve and the benchmark runner from source into
$CARGO_TARGET_DIR (default .bench_build); later runs only re-check the
build. The runner's last line of standard output is the result JSON.
"""

import argparse
import os
import shutil
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 175


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.abspath(os.path.join(ROOT, path))


def build(out):
    """Configure once, then bring the runner and camj_serve up to date."""
    for needed in ("CMakeLists.txt", "src"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            sys.exit("perfbench: no CamJ sources next to perfbench/ "
                     f"(missing {needed})")
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", out, "--target", "camj_perfbench",
                    "-j", jobs], check=True, stdout=sys.stderr)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["grid", "studies", "served"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    out = build_dir()
    try:
        build(out)
    except (OSError, subprocess.CalledProcessError) as e:
        sys.exit(f"perfbench: build failed: {e}")

    cmd = [os.path.join(out, "camj_perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--root", ROOT,
           "--tmp-dir", os.path.join(out, "tmp"),
           "--spans-dir", os.path.join(out, "spans")]
    # The runner and every daemon it starts share one process group, so
    # nothing outlives the run even if the runner dies.
    runner = subprocess.Popen(cmd, start_new_session=True)
    try:
        code = runner.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        code = None
    stop_group(runner)
    if code is None:
        sys.exit(f"perfbench: run exceeded {RUN_TIMEOUT_S} s")
    sys.exit(code)


def stop_group(runner):
    """Kill whatever is left in the runner's process group and wait."""
    try:
        os.killpg(runner.pid, signal.SIGKILL)
    except ProcessLookupError:
        return
    runner.wait()
    deadline = time.monotonic() + 10
    while time.monotonic() < deadline:
        try:
            os.killpg(runner.pid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)


if __name__ == "__main__":
    main()
