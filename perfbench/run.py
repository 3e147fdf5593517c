#!/usr/bin/env python3
"""TUPELO's benchmark entry point.

Run from the repository root:

    python3 perfbench/run.py --workload discover_paper --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --all [--seed N] [--seconds S] [--trace 0|1]

--seconds defaults to BENCHMARK.json's run_seconds.
The first form runs one workload in its own process and prints the result
as the last stdout line: one JSON object with "correct", "attempted",
"failed" and "metrics". --trace 0 reports the end-to-end metrics,
--trace 1 the per-layer metrics of the traced run. --all runs every
workload named in BENCHMARK.json, one process each, and writes the
collected results to .bench_out/summary.json.

The program is built from source on first use: CMake configures
perfbench/CMakeLists.txt (which pulls in ../src and ../tools) into
$CARGO_TARGET_DIR, or .bench_build when that is unset. Build output goes to
stderr. The exit code is non-zero when the build fails or any operation
fails its correctness check.
"""

import argparse
import json
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}
RUN_TIMEOUT_S = 170


def load_benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return path if os.path.isabs(path) else os.path.join(ROOT, path)


def build():
    """Configures (once) and builds the perfbench binary and tupelo_serve."""
    out = build_dir()
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", out,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            return None
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    cmd = ["cmake", "--build", out, "-j", jobs,
           "--target", "perfbench", "tupelo_serve"]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        return None
    return out


def run_binary(cmd):
    """Runs cmd in its own process group; kills the group on timeout."""
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                            start_new_session=True, text=True)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        print("perfbench: run timed out", file=sys.stderr)
        return 1, ""
    return proc.returncode, stdout


def run_workload(args, out):
    expected = os.path.join(HERE, "expected", args.workload + ".tsv")
    cmd = [os.path.join(out, "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--expected", expected,
           "--bin-dir", out, "--out-dir", os.path.join(ROOT, ".bench_out")]
    if args.write_expected:
        cmd.append("--write-expected")
        return subprocess.run(cmd, cwd=ROOT).returncode
    code, stdout = run_binary(cmd)
    lines = [l for l in stdout.splitlines() if l.strip()]
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        print("perfbench: no result line", file=sys.stderr)
        return 1
    if set(result) != RESULT_KEYS:
        print("perfbench: malformed result line", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return code


def run_all(args):
    names = [w["name"] for w in load_benchmark()["workloads"]]
    summary, status = {}, 0
    for name in names:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True)
        status |= proc.returncode
        lines = [l for l in proc.stdout.splitlines() if l.strip()]
        summary[name] = json.loads(lines[-1]) if lines else None
        print(name, lines[-1] if lines else "(no result)")
    path = os.path.join(ROOT, ".bench_out", "summary.json")
    with open(path, "w") as f:
        json.dump(summary, f, indent=2)
    print("wrote", os.path.relpath(path, ROOT))
    return 1 if status else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--all", action="store_true")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int,
                        default=load_benchmark()["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-expected", action="store_true",
                        help="regenerate expected/<workload>.tsv")
    args = parser.parse_args()
    if not args.all and not args.workload:
        parser.error("--workload or --all is required")

    os.makedirs(os.path.join(ROOT, ".bench_out"), exist_ok=True)
    out = build()
    if out is None:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    return run_all(args) if args.all else run_workload(args, out)


if __name__ == "__main__":
    sys.exit(main())
