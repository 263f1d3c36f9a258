#!/usr/bin/env python3
"""Build and run the cluster benchmark.

Usage, from the root of a checkout:
    python3 clusterbench/run.py --workload transfer|hotspot|blob --seed N \
        --seconds S --trace 0|1 [--short]

Configures and builds this directory's CMake package (the benchmark driver
plus the mca library and the mcad daemon from ../src) into the build
directory — $CARGO_TARGET_DIR when set, else .bench_build — then runs the
driver. The driver's last stdout line is the JSON result. Build failures
exit non-zero without printing a result.
"""
import argparse
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def build(build_dir):
    log_path = os.path.join(build_dir, "build.log")
    os.makedirs(build_dir, exist_ok=True)
    with open(log_path, "w") as log:
        if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
            configure = ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"]
            if shutil.which("ninja"):
                configure += ["-G", "Ninja"]
            if subprocess.call(configure, stdout=log, stderr=subprocess.STDOUT) != 0:
                return log_path
        jobs = str(min(4, os.cpu_count() or 1))
        cmd = ["cmake", "--build", build_dir, "-j", jobs, "--target", "clusterbench", "mcad"]
        if subprocess.call(cmd, stdout=log, stderr=subprocess.STDOUT) != 0:
            return log_path
    return None


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", choices=["0", "1"], default="0")
    parser.add_argument("--short", action="store_true")
    args = parser.parse_args()

    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build"))
    failed_log = build(build_dir)
    if failed_log:
        with open(failed_log) as log:
            sys.stderr.write(log.read()[-4000:])
        sys.stderr.write("clusterbench: build failed (log: %s)\n" % failed_log)
        return 1

    cmd = [os.path.join(build_dir, "clusterbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", args.trace,
           "--data", os.path.join(build_dir, "data")]
    if args.short:
        cmd.append("--short")
    sys.stdout.flush()
    # Its own process group: the mcad daemons it spawns join it, so a run
    # that overstays its limit is stopped together with every daemon.
    proc = subprocess.Popen(cmd, start_new_session=True)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.stderr.write("clusterbench: run exceeded %d s, stopped\n" % RUN_TIMEOUT_S)
        return 1
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()


if __name__ == "__main__":
    sys.exit(main())
