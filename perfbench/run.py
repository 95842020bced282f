#!/usr/bin/env python3
"""Benchmark entry point: builds fa_served and the driver, runs one workload.

    python3 perfbench/run.py --workload dashboard --seed 1 --seconds 16 --trace 0
    python3 perfbench/run.py --selftest

Builds perfbench/CMakeLists.txt (the repository's modules, fa_served and
the fa_perfbench driver) into $CARGO_TARGET_DIR (default .bench_build),
then runs fa_perfbench with the workload's parameters from
perfbench/spec.json. The last stdout line is the JSON result; the exit
code is non-zero when the build fails or any checked reply was wrong.
"""

import argparse
import json
import os
import platform
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170
BUILD_TYPE = "RelWithDebInfo"


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.abspath(os.path.join(ROOT, d) if not os.path.isabs(d) else d)


def build():
    """Configures and builds fa_served + fa_perfbench; returns the build tree."""
    out = os.path.join(build_dir(), "cmake")
    os.makedirs(out, exist_ok=True)
    logfile = os.path.join(out, "build.log")
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out, f"-DCMAKE_BUILD_TYPE={BUILD_TYPE}"])
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps.append(["cmake", "--build", out, "-j", jobs, "--target", "fa_served", "fa_perfbench"])
    with open(logfile, "a") as lf:
        for cmd in steps:
            if subprocess.run(cmd, stdout=lf, stderr=subprocess.STDOUT).returncode != 0:
                with open(logfile) as f:
                    sys.stderr.write(f.read()[-4000:])
                log(f"build failed: {' '.join(cmd)}")
                # A half-configured tree must not be mistaken for a good one.
                cache = os.path.join(out, "CMakeCache.txt")
                if len(steps) == 2 and os.path.exists(cache):
                    os.remove(cache)
                sys.exit(1)
    return out


def host_fingerprint(tree):
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = "unknown"
    try:
        r = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                           text=True, timeout=10)
        if r.returncode == 0:
            commit = r.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    build_type = "unknown"
    try:
        with open(os.path.join(tree, "CMakeCache.txt")) as f:
            for line in f:
                if line.startswith("CMAKE_BUILD_TYPE:"):
                    build_type = line.split("=", 1)[1].strip()
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": cpu, "kernel": platform.release(),
            "build_type": build_type, "commit": commit}


def driver_args(tree, name, spec, seed, seconds, trace, workdir):
    w = spec["workloads"][name]
    mix = ",".join(f"{op}={weight}" for op, weight in w["mix"].items())
    return [
        os.path.join(tree, "fa_perfbench"), "run",
        "--workload", name,
        "--served", os.path.join(tree, "fa", "net", "fa_served"),
        "--served-args", " ".join(w["served_args"]),
        "--protocol", w["protocol"],
        "--places", w["places"],
        "--mix", mix,
        "--rate", str(w["nominal_rate"]),
        "--limit-ms", str(w["latency_limit_ms"]),
        "--prepare-increments", str(w["prepare_increments"]),
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--trace", str(trace),
        "--workdir", workdir,
    ]


def run_driver(cmd, timeout_s=RUN_TIMEOUT_S):
    """Runs the driver in its own process group; returns (rc, stdout lines)."""
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=timeout_s)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        log(f"timed out after {timeout_s}s")
        return 1, []
    finally:
        # fa_served children die with the driver (parent-death signal);
        # sweep the group anyway.
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    return proc.returncode, out.splitlines()


def selftest(tree, spec):
    ok = subprocess.run([os.path.join(tree, "fa_perfbench"), "selftest"]).returncode == 0
    # A reply with one flipped byte must fail the command and count.
    workdir = os.path.join(build_dir(), "work", "selftest")
    cmd = driver_args(tree, "dashboard", spec, 1, 3, 0, workdir)
    cmd[cmd.index("--rate") + 1] = "2000"
    cmd += ["--corrupt-sample", "0"]
    rc, lines = run_driver(cmd)
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else {}
    flipped = rc != 0 and result.get("correct") is False and result.get("failed", 0) >= 1 \
        and result["metrics"]["ok_frac"]["value"] < 1.0
    print(f"selftest: {'corrupted sampled reply fails the command and counts as failed':64s} "
          f"{'ok' if flipped else 'FAILED'}")
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    names_match = {m["name"] for m in bench["end_to_end"]} == set(spec["end_to_end"]) and \
        {m["name"] for m in bench["per_layer"]} == set(spec["per_layer"]) and \
        {w["name"] for w in bench["workloads"]} == set(spec["workloads"])
    print(f"selftest: {'BENCHMARK.json and spec.json name the same metrics':64s} "
          f"{'ok' if names_match else 'FAILED'}")
    return 0 if ok and flipped and names_match else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=16)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()

    with open(os.path.join(HERE, "spec.json")) as f:
        spec = json.load(f)
    if not args.selftest and args.workload not in spec["workloads"]:
        log(f"unknown workload {args.workload!r}; one of {sorted(spec['workloads'])}")
        return 2

    t0 = time.monotonic()
    tree = build()
    log(f"build ready in {time.monotonic() - t0:.1f}s")
    if args.selftest:
        return selftest(tree, spec)

    print("perfbench: host " + json.dumps(host_fingerprint(tree), sort_keys=True), flush=True)
    workdir = os.path.join(build_dir(), "work", args.workload)
    cmd = driver_args(tree, args.workload, spec, args.seed, args.seconds, args.trace, workdir)
    rc, lines = run_driver(cmd)
    for line in lines:
        print(line)
    if not lines or not lines[-1].startswith("{"):
        log("the driver printed no result")
        return rc or 1
    return rc


if __name__ == "__main__":
    sys.exit(main())
