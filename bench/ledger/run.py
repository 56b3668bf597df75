#!/usr/bin/env python3
"""Builds mpcsd_ledger from this checkout and runs one ledger workload.

    python3 bench/ledger/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/ledger/run.py --smoke [--binary PATH] [--out-dir DIR]

The first form configures and builds the library and the benchmark in
.bench_build/ledger (Release), runs one workload, prints every metric of
the run's record with its unit on stderr, and prints the result line as the
last line of stdout: the end-to-end metrics of BENCHMARK.json with
--trace 0, the per-layer ones with --trace 1.  It exits non-zero when an answer was wrong or a metric is
missing.  --smoke runs every workload at tiny sizes and checks that the
record names every metric of BENCHMARK.json and passes the correctness
checks.
"""

import argparse
import json
import math
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
BUILD = os.path.join(ROOT, ".bench_build", "ledger")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 160


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def run_bounded(cmd, timeout):
    """Runs cmd with its stdout on our stderr; kills its process group on timeout."""
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=sys.stderr, start_new_session=True)
    try:
        return proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        log(f"run.py: {cmd[0]} exceeded {timeout} s")
        return None


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("run.py: the library sources (src/) are not in this checkout")
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if run_bounded(configure, BUILD_TIMEOUT_S) != 0:
            sys.exit("run.py: cmake configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    cmd = ["cmake", "--build", BUILD, "-j", jobs, "--target", "mpcsd_ledger"]
    if run_bounded(cmd, BUILD_TIMEOUT_S) != 0:
        sys.exit("run.py: build failed")
    return os.path.join(BUILD, "mpcsd_ledger")


def git_sha():
    if not os.path.isdir(os.path.join(ROOT, ".git")) or not shutil.which("git"):
        return "unknown"
    got = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                         capture_output=True, text=True, check=False)
    return got.stdout.strip() if got.returncode == 0 else "unknown"


def load_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        return json.load(f)


def select(workload, specs):
    """The record's metrics named in specs, and the problems found."""
    problems = []
    metrics = {}
    for spec in specs:
        got = workload["metrics"].get(spec["name"])
        if got is None:
            problems.append(f"{workload['name']}: missing metric {spec['name']}")
        elif got["unit"] != spec["unit"]:
            problems.append(f"{workload['name']}: {spec['name']} unit {got['unit']} "
                            f"!= {spec['unit']}")
        elif not isinstance(got["value"], (int, float)) or not math.isfinite(got["value"]):
            problems.append(f"{workload['name']}: {spec['name']} is not a number")
        else:
            metrics[spec["name"]] = {"value": got["value"], "unit": got["unit"]}
    return metrics, problems


def print_table(name, metrics):
    log(f"-- {name}")
    for metric, m in metrics.items():
        log(f"   {metric:<28} {m['value']:>16.6g} {m['unit']}")


def run_workload(args):
    binary = build()
    spec_file = load_benchmark_json()
    if args.workload not in [w["name"] for w in spec_file["workloads"]]:
        sys.exit(f"run.py: unknown workload {args.workload}")
    results = os.path.join(BUILD, "results")
    os.makedirs(results, exist_ok=True)
    out = os.path.join(results, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    if os.path.exists(out):
        os.remove(out)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out", out, "--git-sha", git_sha()]
    code = run_bounded(cmd, RUN_TIMEOUT_S)
    if code is None or not os.path.isfile(out):
        sys.exit("run.py: mpcsd_ledger produced no record")
    with open(out, encoding="utf-8") as f:
        record = json.load(f)
    workload = record["workloads"][0]
    specs = spec_file["per_layer" if args.trace else "end_to_end"]
    metrics, problems = select(workload, specs)
    for problem in problems:
        log(f"run.py: {problem}")
    print_table(args.workload, workload["metrics"])
    log(f"   attempted {workload['attempted']}, failed {workload['failed']}, "
        f"latency samples {workload['latency_samples']}, record {out}")
    correct = workload["correct"] and code == 0 and not problems
    print(json.dumps({"correct": correct, "attempted": workload["attempted"],
                      "failed": workload["failed"], "metrics": metrics}))
    return 0 if correct else 1


def run_smoke(args):
    binary = args.binary or build()
    spec_file = load_benchmark_json()
    os.makedirs(args.out_dir, exist_ok=True)
    out = os.path.join(args.out_dir, "ledger_smoke.json")
    code = run_bounded([binary, "--smoke", "--out", out], RUN_TIMEOUT_S)
    if code is None or not os.path.isfile(out):
        log("run.py: smoke produced no record")
        return 1
    with open(out, encoding="utf-8") as f:
        record = json.load(f)
    by_name = {w["name"]: w for w in record["workloads"]}
    problems = [] if code == 0 else [f"mpcsd_ledger exited {code}"]
    for spec in spec_file["workloads"]:
        workload = by_name.get(spec["name"])
        if workload is None:
            problems.append(f"missing workload {spec['name']}")
            continue
        if not workload["correct"]:
            problems.append(f"{spec['name']}: {workload['failed']} failed checks")
        _, missing = select(workload, spec_file["end_to_end"] + spec_file["per_layer"])
        problems += missing
    for problem in problems:
        log(f"run.py: smoke: {problem}")
    log(f"run.py: smoke {'failed' if problems else 'ok'} ({out})")
    return 1 if problems else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--binary", help="smoke: an already built mpcsd_ledger")
    parser.add_argument("--out-dir", default=os.path.join(BUILD, "smoke"),
                        help="smoke: where the record goes")
    args = parser.parse_args()
    if args.smoke:
        return run_smoke(args)
    if not args.workload:
        parser.error("--workload is required")
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
