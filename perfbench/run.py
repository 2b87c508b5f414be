#!/usr/bin/env python3
"""Run one workload of the repository benchmark (see README.md here).

    python3 perfbench/run.py --workload sweep|batch|intake --seed N \
        --seconds S --trace 0|1

Run from the root of a source checkout. The script builds the harness and
the library from source into .bench_build/ (Release), generates the seeded
inputs once per seed into .bench_build/inputs/ (prime generation is never
timed), runs the measurement, and passes its output through: a stamp line
naming the machine and build, a metric table, and as the last line one JSON
object with the keys correct, attempted, failed and metrics. It exits 1 when
a result disagrees with the ground truth and 2 when it cannot build or run.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "perfbench", "perfbench")
WORKLOADS = ("sweep", "batch", "intake")


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def run_logged(cmd, log_name, timeout):
    """Run a build step with its output in a log; show the tail on failure."""
    log_path = os.path.join(BUILD, log_name)
    with open(log_path, "w") as log:
        code = subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                              timeout=timeout).returncode
    if code != 0:
        with open(log_path) as log:
            sys.stderr.write("".join(log.readlines()[-30:]))
        fail(f"{' '.join(cmd[:2])} failed (log: {log_path})")


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("library sources (src/) not found next to perfbench/")
    os.makedirs(BUILD, exist_ok=True)
    tree = os.path.join(BUILD, "perfbench")
    if not os.path.isfile(os.path.join(tree, "CMakeCache.txt")):
        run_logged(["cmake", "-S", HERE, "-B", tree,
                    "-DCMAKE_BUILD_TYPE=Release"], "configure.log", 300)
    run_logged(["cmake", "--build", tree, "-j", str(os.cpu_count() or 1)],
               "build.log", 800)


def source_id():
    """The commit when the checkout is a git tree, else a digest of src/."""
    if os.path.exists(os.path.join(ROOT, ".git")):
        head = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
        if head.returncode == 0:
            return head.stdout.strip()
    digest = hashlib.sha256()
    for base, dirs, files in os.walk(os.path.join(ROOT, "src")):
        dirs.sort()
        for name in sorted(files):
            path = os.path.join(base, name)
            digest.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as f:
                digest.update(f.read())
    return "src-sha256:" + digest.hexdigest()[:16]


def inputs_for(seed):
    """The seed's input directory, generated on first use."""
    final = os.path.join(BUILD, "inputs", f"seed-{seed}")
    if os.path.isdir(final):
        return final
    staging = f"{final}.tmp-{os.getpid()}"
    shutil.rmtree(staging, ignore_errors=True)
    code = subprocess.run([BINARY, "gen", "--seed", str(seed),
                           "--out", staging], timeout=600).returncode
    if code != 0:
        shutil.rmtree(staging, ignore_errors=True)
        fail(f"input generation failed for seed {seed}")
    try:
        os.rename(staging, final)
    except OSError:  # another run generated it first
        shutil.rmtree(staging, ignore_errors=True)
    return final


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    build()
    inputs = inputs_for(args.seed)
    work = os.path.join(BUILD, f"work-{os.getpid()}")
    try:
        proc = subprocess.run(
            [BINARY, "run", "--workload", args.workload,
             "--inputs", inputs, "--work", work,
             "--seconds", str(args.seconds), "--trace", str(args.trace),
             "--seed", str(args.seed), "--commit", source_id()],
            stdout=subprocess.PIPE, text=True, timeout=170)
    except subprocess.TimeoutExpired:
        fail("harness ran out of time")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    lines = proc.stdout.splitlines()
    if proc.returncode not in (0, 1) or not lines:
        sys.stdout.write(proc.stdout)
        fail(f"harness exited with {proc.returncode}")
    result = json.loads(lines[-1])
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        fail("harness printed a malformed result line")
    sys.stdout.write(proc.stdout)
    sys.exit(0 if result["correct"] and proc.returncode == 0 else 1)


if __name__ == "__main__":
    main()
