#!/usr/bin/env python3
"""End-to-end loopback benchmark of relcont_serve.

Run from the root of a relcont checkout:

    python3 perfbench/run.py --workload warm_hits --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --report [--seed 1] [--seconds 30]

The first form builds the server and the load generator from source (into
.bench_build/perfbench, Release), runs the self-tests of the benchmark's
reply parsing, runs one workload and prints one JSON result as the last
line of standard output: the end-to-end metrics with --trace 0, the
per-layer metrics of the in-process replay with --trace 1. The line before
it records the environment. --report runs every workload untraced and
prints a table of the end-to-end metrics, failed_ratio included.
See perfbench/NOTES.md.
"""

import argparse
import json
import os
import re
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ["warm_hits", "cold_pairs", "qbf_search", "session_churn"]
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 880


def log(message):
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


def loadavg():
    try:
        with open("/proc/loadavg") as f:
            return [float(x) for x in f.read().split()[:3]]
    except OSError:
        return None


def run_quiet(cmd, timeout):
    """Runs a build step with its output on stderr (stdout is the result)."""
    return subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                          timeout=timeout).returncode == 0


def build(build_dir, deadline):
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        os.makedirs(build_dir, exist_ok=True)
        if not run_quiet(["cmake", "-S", HERE, "-B", build_dir,
                          "-DCMAKE_BUILD_TYPE=Release"],
                         max(1, deadline - time.time())):
            return False
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    return run_quiet(["cmake", "--build", build_dir, "-j", jobs, "--target",
                      "relcont_serve", "perfbench_loadgen",
                      "perfbench_selftest"],
                     max(1, deadline - time.time()))


def environment(build_dir, load_start, load_end):
    cache = {}
    try:
        with open(os.path.join(build_dir, "CMakeCache.txt")) as f:
            for line in f:
                m = re.match(r"^([A-Za-z_]+):[A-Z]+=(.*)$", line.strip())
                if m:
                    cache[m.group(1)] = m.group(2)
    except OSError:
        pass
    compiler = cache.get("CMAKE_CXX_COMPILER", "")
    version = ""
    if compiler:
        try:
            out = subprocess.run([compiler, "--version"], capture_output=True,
                                 text=True, timeout=30).stdout
            version = out.splitlines()[0] if out else ""
        except (OSError, subprocess.SubprocessError):
            pass
    build_type = cache.get("CMAKE_BUILD_TYPE", "")
    flags = " ".join(x for x in [
        cache.get("CMAKE_CXX_FLAGS", ""),
        cache.get("CMAKE_CXX_FLAGS_" + build_type.upper(), "")] if x)
    optimized = bool(re.search(r"-O[23s]", flags))
    return {
        "compiler": version or compiler,
        "build_type": build_type,
        "cxx_flags": flags,
        "optimized": optimized,
        "nproc": os.cpu_count(),
        "loadavg_start": load_start,
        "loadavg_end": load_end,
    }


def run_workload(build_dir, args, spans):
    cmd = [os.path.join(build_dir, "perfbench_loadgen"),
           "--server", os.path.join(build_dir, "relcont_serve"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if spans:
        cmd += ["--spans", spans]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        log(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
        return 1, None
    lines = [line for line in out.splitlines() if line.strip()]
    return proc.returncode, (lines[-1] if lines else None)


def prepare(root):
    """Builds and self-tests; returns the build directory or None."""
    for needed in ("src/CMakeLists.txt", "examples/relcont_serve.cpp"):
        if not os.path.exists(os.path.join(root, needed)):
            log(f"{needed} is missing: run from the root of a relcont "
                "checkout")
            return None
    build_dir = os.path.join(root, ".bench_build", "perfbench")
    if not build(build_dir, time.time() + BUILD_TIMEOUT_S):
        log("build failed")
        return None
    selftest = subprocess.run([os.path.join(build_dir, "perfbench_selftest")],
                              stdout=sys.stderr, stderr=sys.stderr,
                              timeout=60)
    if selftest.returncode != 0:
        log("self-tests failed")
        return None
    return build_dir


def report(build_dir, args):
    """Every workload, untraced, as one table of end-to-end metrics."""
    rows = []
    for workload in WORKLOADS:
        args.workload = workload
        args.trace = 0
        code, line = run_workload(build_dir, args, None)
        if line is None:
            return 1
        result = json.loads(line)
        attempted = result["attempted"]
        failed = result["failed"]
        metrics = dict(result["metrics"])
        metrics["failed_ratio"] = {"value": failed / attempted,
                                   "unit": "ratio"}
        rows.append((workload, code, result["correct"], metrics))
    names = list(rows[0][3].keys())
    print(f"{'metric':<24}{'unit':<7}" +
          "".join(f"{w:>16}" for w, _, _, _ in rows))
    for name in names:
        unit = rows[0][3][name]["unit"]
        cells = "".join(f"{r[3][name]['value']:>16.6g}" for r in rows)
        print(f"{name:<24}{unit:<7}{cells}")
    print(f"{'correct':<31}" + "".join(f"{str(r[2]):>16}" for r in rows))
    return 0 if all(code == 0 and ok for _, code, ok, _ in rows) else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--report", action="store_true",
                        help="run every workload and print a table")
    args = parser.parse_args()
    if not args.report and args.workload is None:
        parser.error("--workload is required (or --report)")

    root = os.getcwd()
    load_start = loadavg()
    build_dir = prepare(root)
    if build_dir is None:
        return 1
    if args.report:
        return report(build_dir, args)

    spans = None
    if args.trace:
        spans_dir = os.path.join(root, ".bench_build", "spans")
        os.makedirs(spans_dir, exist_ok=True)
        spans = os.path.join(spans_dir,
                             f"{args.workload}-seed{args.seed}.jsonl")
    code, line = run_workload(build_dir, args, spans)
    env = environment(build_dir, load_start, loadavg())
    if not env["optimized"]:
        log("WARNING: the build is not optimized; figures are not "
            "comparable")
    print("# env " + json.dumps(env, sort_keys=True))
    if line is None or not line.startswith("{"):
        log(f"{args.workload} printed no result")
        return 1
    print(line, flush=True)
    return code


if __name__ == "__main__":
    sys.exit(main())
