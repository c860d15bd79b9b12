#!/usr/bin/env python3
"""Builds psmr_bench from source and runs one workload of it.

    python3 bench/e2e/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout; the build goes to .bench_build/e2e at
the checkout root. Everything psmr_bench prints goes to stderr. The last
line on stdout is one JSON object with the keys correct, attempted, failed
and metrics: every end_to_end metric named in BENCHMARK.json, or with
--trace 1 every per_layer metric. The exit code is 0 only when the run
completed and every correctness check passed.
"""
import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
BUILD = ROOT / ".bench_build" / "e2e"
RUN_TIMEOUT_S = 175


def fail(message):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(1)


def build():
    if not (ROOT / "src" / "smr" / "deployment.h").is_file():
        fail(f"no psmr sources under {ROOT / 'src'}")
    configure = ["cmake", "-S", str(HERE), "-B", str(BUILD),
                 "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja") and not (BUILD / "CMakeCache.txt").exists():
        configure += ["-G", "Ninja"]
    for command in (configure,
                    ["cmake", "--build", str(BUILD), "--target", "psmr_bench",
                     "-j", str(min(4, os.cpu_count() or 1))]):
        if subprocess.run(command, stdout=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(command))
    return BUILD / "psmr_bench"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail(f"unknown workload {args.workload}")
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    binary = build()
    result_path = BUILD / f"result-{os.getpid()}.json"
    command = [str(binary), f"--workload={args.workload}",
               f"--seed={args.seed}", f"--seconds={args.seconds:g}",
               f"--json={result_path}"]
    if args.trace:
        command.append(f"--trace={BUILD / f'trace-{args.workload}.json'}")
    # psmr_bench runs each workload in a child process: give it its own
    # process group so a timeout stops the children too.
    proc = subprocess.Popen(command, stdout=sys.stderr, start_new_session=True)
    try:
        proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        fail(f"psmr_bench did not finish within {RUN_TIMEOUT_S} s")
    if proc.returncode not in (0, 1) or not result_path.exists():
        fail(f"psmr_bench exited with {proc.returncode}")
    result = json.loads(result_path.read_text())["workloads"][args.workload]
    result_path.unlink()

    metrics = {}
    for m in wanted:
        got = result["metrics"].get(m["name"])
        if got is None or got["unit"] != m["unit"]:
            fail(f"psmr_bench did not report {m['name']} in {m['unit']}")
        metrics[m["name"]] = got
    if result["attempted"] < 1:
        fail("psmr_bench attempted no operation")
    correct = proc.returncode == 0 and result["correct"]
    print(json.dumps({"correct": correct,
                      "attempted": result["attempted"],
                      "failed": result["failed"],
                      "metrics": metrics}))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
