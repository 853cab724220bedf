#!/usr/bin/env python3
"""End-to-end benchmark runner.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds the `pvbench` program (and the library it links, from ../src) into
.bench_build/ at the repository root, runs one workload in a process of
its own, and forwards its result: a human summary on stderr and, as the
last line of stdout, one JSON object with the keys correct, attempted,
failed and metrics.  The metric names and units are checked against
BENCHMARK.json before the line is printed.

Exit status: 0 when the workload ran and every correctness check passed;
non-zero, with no result line, when the build fails or the result is
malformed; pvbench's own status (1) when a correctness check failed.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build")
OUT_DIR = os.path.join(ROOT, ".bench_out")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(1)


def run_logged(cmd, timeout):
    """Runs a build step with its output on stderr; True when it succeeded."""
    # The compiler's temporary files stay inside the checkout too.
    tmp = os.path.join(BUILD_DIR, "tmp")
    os.makedirs(tmp, exist_ok=True)
    try:
        proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=timeout, check=False,
                              env=dict(os.environ, TMPDIR=tmp))
    except (OSError, subprocess.TimeoutExpired) as exc:
        print(f"run.py: {' '.join(cmd)}: {exc}", file=sys.stderr)
        return False
    return proc.returncode == 0


def build():
    if shutil.which("cmake") is None:
        fail("cmake not found")
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD_DIR,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja") is not None:
            configure += ["-G", "Ninja"]
        if not run_logged(configure, BUILD_TIMEOUT_S):
            # A half-written cache would make the next run skip configure.
            shutil.rmtree(BUILD_DIR, ignore_errors=True)
            fail("configure failed")
    jobs = str(len(os.sched_getaffinity(0)))
    if not run_logged(["cmake", "--build", BUILD_DIR, "--target", "pvbench",
                       "-j", jobs], BUILD_TIMEOUT_S):
        fail("build failed")
    return os.path.join(BUILD_DIR, "pvbench")


def check_result(line, spec, trace):
    try:
        result = json.loads(line)
    except json.JSONDecodeError:
        fail(f"last output line is not JSON: {line!r}")
    if not isinstance(result, dict) or \
            set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("result does not have exactly correct/attempted/failed/metrics")
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in wanted}
    got = result["metrics"]
    if set(got) != set(units):
        fail(f"metrics {sorted(set(got) ^ set(units))} differ from BENCHMARK.json")
    for name, unit in units.items():
        if got[name].get("unit") != unit:
            fail(f"{name}: unit {got[name].get('unit')!r}, BENCHMARK.json says {unit!r}")
    return result


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(spec_path, encoding="utf-8") as f:
            spec = json.load(f)
    except (OSError, json.JSONDecodeError) as exc:
        fail(f"cannot read {spec_path}: {exc}")
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        fail(f"unknown workload {args.workload!r}")
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1")

    binary = build()
    os.makedirs(OUT_DIR, exist_ok=True)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out", OUT_DIR]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        fail(f"pvbench exited {proc.returncode} without a result")
    result = check_result(lines[-1], spec, args.trace)
    if proc.returncode not in (0, 1) or (proc.returncode == 0) != result["correct"]:
        fail(f"pvbench exited {proc.returncode} with correct={result['correct']}")
    print(lines[-1])
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
