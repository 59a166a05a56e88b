#!/usr/bin/env python3
"""Build and run the deepmc repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

Run from the root of a checkout. The first call configures and builds
perfbench/ (which compiles ../src) into .bench_build/perfbench; later calls
only rebuild what changed. The benchmark binary prints readable lines and a
JSON object; this script passes the readable lines through and prints, as
the last line, one JSON object with the keys correct, attempted, failed and
metrics, where metrics holds exactly the end_to_end metrics of
BENCHMARK.json (--trace 0) or its per_layer metrics (--trace 1). A layer a
workload never calls reads 0. The exit code is 0 only when every output of
the program was correct. perfbench/README.md describes the workloads and
every metric.
"""
import argparse
import fcntl
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def die(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def build():
    """Configure once, then build incrementally, under a lock."""
    os.makedirs(BUILD, exist_ok=True)
    log_path = os.path.join(BUILD, "build.log")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    with open(os.path.join(BUILD, ".lock"), "w") as lock, \
            open(log_path, "w") as log:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", BUILD,
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", BUILD, "-j", jobs, "--target",
                      "perfbench", "perfbench_selftest"])
        for cmd in steps:
            try:
                rc = subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                                    timeout=BUILD_TIMEOUT_S).returncode
            except (OSError, subprocess.TimeoutExpired) as e:
                die("build failed: %s" % e)
            if rc != 0:
                log.flush()
                with open(log_path) as f:
                    sys.stderr.write("".join(f.readlines()[-30:]))
                if cmd[1] == "-S":  # a failed configure must not be cached
                    shutil.rmtree(BUILD, ignore_errors=True)
                die("build failed (%s)" % " ".join(cmd[:2]))


def declared_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return spec["per_layer" if trace else "end_to_end"]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()

    build()
    if args.selftest:
        sys.exit(subprocess.run([os.path.join(BUILD, "perfbench_selftest")])
                 .returncode)
    if not args.workload:
        die("--workload is required")

    work = os.path.join(".bench_run", str(os.getpid()))
    cmd = [os.path.join(BUILD, "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--work-dir", work]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              timeout=RUN_TIMEOUT_S, text=True)
    except subprocess.TimeoutExpired:
        die("%s did not finish in %d s" % (args.workload, RUN_TIMEOUT_S))
    finally:
        shutil.rmtree(os.path.join(ROOT, work), ignore_errors=True)

    lines = proc.stdout.splitlines()
    if not lines or not lines[-1].startswith("{"):
        sys.stdout.write(proc.stdout)
        die("%s printed no result (exit %d)" % (args.workload, proc.returncode))
    for line in lines[:-1]:
        print(line)
    measured = json.loads(lines[-1])

    metrics = {}
    for m in declared_metrics(args.trace):
        got = measured["metrics"].get(m["name"])
        if got is None:
            if not args.trace:
                die("%s did not measure %s" % (args.workload, m["name"]))
            got = {"value": 0, "unit": m["unit"]}  # layer not used here
        if got["unit"] != m["unit"]:
            die("%s: %s measured in %s, declared in %s" %
                (args.workload, m["name"], got["unit"], m["unit"]))
        metrics[m["name"]] = got
    result = {"correct": measured["correct"] and proc.returncode == 0,
              "attempted": measured["attempted"],
              "failed": measured["failed"], "metrics": metrics}
    print(json.dumps(result))
    sys.stdout.flush()
    if not result["correct"]:
        print("perfbench: %s produced incorrect output" % args.workload,
              file=sys.stderr)
        sys.exit(1)


if __name__ == "__main__":
    main()
