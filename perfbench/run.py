#!/usr/bin/env python3
"""Builds and runs the mine -> refresh -> serve benchmark.

    python3 perfbench/run.py --workload mine-em --seed 1 --seconds 30 --trace 0

Run it from the repository root. It configures and builds perfbench/ (which
compiles ../src) into $CARGO_TARGET_DIR/perfbench, or .bench_build/perfbench
when that variable is unset, refuses sanitizer and unoptimised builds,
prints a host and build record, then runs the benchmark binary. The binary's
report goes to stdout; its last line is the result JSON.
"""

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def build(build_dir):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no src/ beside perfbench/: run from a full checkout")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", build_dir, "--target",
                  "latent_perfbench", "-j", jobs])
    for cmd in steps:
        # Build chatter goes to stderr: stdout ends with the result line.
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            fail("build step failed: " + " ".join(cmd))


def read_build_record(build_dir):
    record = {}
    with open(os.path.join(build_dir, "build_record.txt")) as f:
        for line in f:
            key, _, value = line.rstrip("\n").partition("=")
            record[key] = value.strip()
    return record


def cpu_info():
    model, flags = "", []
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                key, _, value = line.partition(":")
                key = key.strip()
                if key == "model name" and not model:
                    model = value.strip()
                elif key == "flags" and not flags:
                    flags = value.split()
    except OSError:
        pass
    return model or platform.processor() or "unknown", flags


def host_record(build):
    model, flags = cpu_info()
    simd = sorted(f for f in flags if f.startswith(("avx", "sse4", "fma")))
    record = {
        "cpu_model": model,
        "cpu_simd_flags": simd,
        "nproc": os.cpu_count(),
        "compiler": build.get("compiler", ""),
        "build_type": build.get("build_type", ""),
        "cxx_flags": build.get("cxx_flags", ""),
        "latent_obs": build.get("latent_obs", ""),
        "latent_failpoints": build.get("latent_failpoints", ""),
    }
    key = json.dumps(record, sort_keys=True).encode()
    record["host_key"] = hashlib.sha256(key).hexdigest()[:16]
    return record


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()

    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = os.path.join(os.path.abspath(target), "perfbench")
    build(build_dir)

    record = read_build_record(build_dir)
    if "-fsanitize" in record.get("cxx_flags", ""):
        fail("refusing to benchmark a sanitizer build")
    if record.get("build_type") not in ("RelWithDebInfo", "Release"):
        fail("refusing to benchmark build type '%s'" % record.get("build_type"))
    host = host_record(record)
    committed = os.path.join(HERE, "host_record.json")
    baseline_key = None
    if os.path.isfile(committed):
        with open(committed) as f:
            baseline_key = json.load(f).get("host_key")
    with open(os.path.join(build_dir, "host_record.json"), "w") as f:
        json.dump(host, f, indent=2, sort_keys=True)
    print("host: %s, nproc %s, %s, %s, obs=%s failpoints=%s, key %s (%s)" % (
        host["cpu_model"], host["nproc"], host["compiler"], host["build_type"],
        host["latent_obs"], host["latent_failpoints"], host["host_key"],
        "matches the committed baseline host" if baseline_key == host["host_key"]
        else "NOT the committed baseline host: compare only within this host"))
    sys.stdout.flush()

    cmd = [os.path.join(build_dir, "latent_perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--out-dir", os.path.join(build_dir, "out")]
    try:
        done = subprocess.run(cmd, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("benchmark run exceeded %d s" % RUN_TIMEOUT_S)
    sys.exit(done.returncode)


if __name__ == "__main__":
    main()
