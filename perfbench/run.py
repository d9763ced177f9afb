#!/usr/bin/env python3
"""Builds and runs the end-to-end benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. Every run configures and builds perfbench/
(with the engine sources in src/) into .bench_build/perfbench; after the
first, only what changed is rebuilt. The benchmark's last line of standard
output is one JSON object: {"correct", "attempted", "failed", "metrics"}.
Exits non-zero, printing no result, when the build or the run fails.
"""

import argparse
import os
import shutil
import signal
import subprocess
import sys

ROOT = os.getcwd()
HERE = os.path.dirname(os.path.abspath(__file__))
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"[run.py] {msg}", file=sys.stderr, flush=True)


def run(cmd, timeout, **kwargs):
    """subprocess.run in its own process group, so a timeout also stops the
    compilers a build spawns. Returns the CompletedProcess, or None on a
    timeout."""
    with subprocess.Popen(cmd, start_new_session=True, **kwargs) as proc:
        try:
            out, _ = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            log(f"timed out after {timeout}s: {' '.join(cmd)}")
            return None
        return subprocess.CompletedProcess(cmd, proc.returncode, out)


def build():
    """Configures and builds the perfbench binary; returns its path."""
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", BUILD, "--target", "perfbench", "-j", jobs]]
    for cmd in steps:
        # Build chatter goes to stderr: stdout carries only the result.
        done = run(cmd, BUILD_TIMEOUT_S, stdout=sys.stderr, stderr=sys.stderr)
        if done is None or done.returncode != 0:
            log(f"build step failed: {' '.join(cmd)}")
            return None
    return os.path.join(BUILD, "perfbench")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--scale", type=float, default=0.0,
                    help="override the workload's dataset scale (self-test)")
    args = ap.parse_args()

    binary = build()
    if binary is None:
        return 2
    # A private data directory, so concurrent runs cannot collide.
    data = os.path.join(BUILD, f"run-{os.getpid()}")
    shutil.rmtree(data, ignore_errors=True)
    os.makedirs(data)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--data-dir", data, "--scale", str(args.scale)]
    try:
        done = run(cmd, RUN_TIMEOUT_S, stdout=subprocess.PIPE, text=True)
    finally:
        # Keep the span file of a traced run; drop the databases.
        for name in os.listdir(data):
            if name.startswith("trace-"):
                os.replace(os.path.join(data, name), os.path.join(BUILD, name))
        shutil.rmtree(data, ignore_errors=True)
    if done is None:
        return 3
    if done.returncode != 0:
        log(f"benchmark exited with {done.returncode}")
        return done.returncode
    sys.stdout.write(done.stdout)
    sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
