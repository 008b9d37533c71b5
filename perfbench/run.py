#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout. The first run builds `perfbench`
(this directory's CMake project, which compiles the repository's `src/`)
into $CARGO_TARGET_DIR (default `.bench_build`), then emits the native
workload's C units and compiles them with the host C compiler. Later runs
reuse both. Build output goes to stderr; the last line on stdout is the
result object, whose metric names and units are checked against
BENCHMARK.json. See README.md for the workloads and metrics.
"""
import argparse
import concurrent.futures
import glob
import hashlib
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["table1-cold", "validate", "serve", "native"]
JOBS = max(1, min(4, os.cpu_count() or 1))
# The host flags of bench/native_diff.
NATIVE_CFLAGS = ["-O2", "-fPIC", "-ffp-contract=off"]


def log(msg):
    print(f"run.py: {msg}", file=sys.stderr, flush=True)


def run_quiet(cmd, **kwargs):
    """Runs a build step with its output on stderr; True on success."""
    proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, **kwargs)
    return proc.returncode == 0


def build(build_dir):
    cmake_dir = os.path.join(build_dir, "cmake")
    if not os.path.exists(os.path.join(cmake_dir, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        if not run_quiet(["cmake", "-S", HERE, "-B", cmake_dir,
                          "-DCMAKE_BUILD_TYPE=Release"] + generator):
            shutil.rmtree(cmake_dir, ignore_errors=True)
            return None
    if not run_quiet(["cmake", "--build", cmake_dir, "-j", str(JOBS)]):
        return None
    return os.path.join(cmake_dir, "perfbench")


def prepare_native(binary, build_dir, cc):
    """Emits and host-compiles the native units once per benchmark binary."""
    with open(binary, "rb") as f:
        binary_id = hashlib.sha256(f.read()).hexdigest()[:16]
    native_dir = os.path.join(build_dir, "native-" + binary_id)
    if os.path.exists(os.path.join(native_dir, "native.so")):
        os.utime(native_dir)
        return native_dir
    # Keep the most recently used other binary's units, so alternating two
    # builds in one build directory does not rebuild them at every switch.
    prepared = glob.glob(os.path.join(build_dir, "native-*"))
    staged = [d for d in prepared if d.endswith(".tmp")]
    others = sorted(set(prepared) - set(staged), key=os.path.getmtime)
    for stale in staged + others[:-1]:
        shutil.rmtree(stale, ignore_errors=True)
    staging = native_dir + ".tmp"
    shutil.rmtree(staging, ignore_errors=True)
    if not run_quiet([binary, "--prepare-native", staging], cwd=ROOT):
        return None
    tmp = os.path.join(build_dir, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    units = sorted(glob.glob(os.path.join(staging, "case_*.c")))
    log(f"host-compiling {len(units)} native units with {cc} ({JOBS} jobs)")

    def compile_unit(unit):
        return run_quiet([cc] + NATIVE_CFLAGS +
                         ["-c", unit, "-o", unit[:-2] + ".o"], env=env)

    with concurrent.futures.ThreadPoolExecutor(JOBS) as pool:
        if not all(pool.map(compile_unit, units)):
            return None
    objects = [u[:-2] + ".o" for u in units]
    if not run_quiet([cc, "-shared", "-o", os.path.join(staging, "native.so")]
                     + objects + ["-lm"], env=env):
        return None
    for obj in objects:
        os.remove(obj)
    os.rename(staging, native_dir)
    return native_dir


def check_result(line, trace):
    """The result line must list exactly BENCHMARK.json's metrics."""
    result = json.loads(line)
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        return "result keys are " + ", ".join(sorted(result))
    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    with open(spec_path) as f:
        spec = json.load(f)
    listed = spec["per_layer" if trace else "end_to_end"]
    want = {m["name"]: m["unit"] for m in listed}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if want != got:
        return f"metrics {sorted(got.items())} differ from BENCHMARK.json"
    return None


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR",
                                                  ".bench_build"))
    binary = build(build_dir)
    if binary is None:
        log("build failed")
        return 1

    # The native units are prepared whatever the workload, so their ~2
    # minute host compile lands in the first run after a build (the build
    # run) and not in the first native run, which must stay short.
    cc = shutil.which(os.environ.get("CC", "cc"))
    native_dir = prepare_native(binary, build_dir, cc) if cc else None
    if args.workload == "native" and native_dir is None:
        log("native: skipped: " + ("the native units failed to build" if cc
                                   else "no host C compiler (cc) on PATH"))
        return 3

    # Relative paths keep the daemon's Unix socket path short.
    work_dir = os.path.relpath(os.path.join(build_dir, "run"), ROOT)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", work_dir]
    if native_dir:
        cmd += ["--native-dir", os.path.relpath(native_dir, ROOT)]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        log(f"perfbench exited with {proc.returncode}")
        return proc.returncode or 1
    problem = check_result(lines[-1], args.trace == 1)
    if problem:
        log(problem)
        return 1
    print(lines[-1], flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
