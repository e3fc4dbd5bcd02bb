#!/usr/bin/env python3
"""Builds and runs the coDB benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1>

Run from the root of a checkout. The first run configures and builds
perfbench/ (which builds the coDB libraries from src/) into
.bench_build/perfbench; later runs rebuild incrementally. The benchmark binary's
table and result are passed through; its last line is one JSON object.

Besides the checks the benchmark binary makes inside one run, this script
keeps a record of the figures that must repeat exactly (traffic per op, per
cost class, the update counters, retained memory) for every (build, workload,
seed) it has run, and fails, naming the figure, if a later run of the same
build and seed disagrees -- traced and untraced runs included.

Exit status: 0 success; 1 a failed operation (result printed with
"correct": false, no record kept); 2 a determinism or self-check failure;
3 bad arguments; 4 the build failed or the run timed out.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

RUN_TIMEOUT_S = 170
BUILD_JOBS = min(4, os.cpu_count() or 1)
# Heap readings carry allocator jitter; see Deterministic in src/bench.h.
RETAINED_SLACK = (0.01, 64 * 1024)


def fail(code, message):
    sys.stderr.write(message.rstrip() + "\n")
    sys.exit(code)


def build(root, build_dir, env):
    log_path = os.path.join(build_dir, "build.log")
    steps = [
        ["cmake", "-S", os.path.join(root, "perfbench"), "-B", build_dir,
         "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", build_dir, "-j", str(BUILD_JOBS),
         "--target", "codb_perfbench"],
    ]
    with open(log_path, "w") as log:
        for step in steps:
            if subprocess.run(step, stdout=log, stderr=subprocess.STDOUT,
                              cwd=root, env=env).returncode != 0:
                with open(log_path) as f:
                    tail = f.read()[-4000:]
                fail(4, "build failed:\n" + tail)
    return os.path.join(build_dir, "codb_perfbench")


def sha256(path):
    digest = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def check_record(records_dir, binary_hash, workload, seed, figures):
    """Compares `figures` with the record of an earlier run of this build
    and seed, or stores them. Returns the name of a differing figure."""
    os.makedirs(records_dir, exist_ok=True)
    path = os.path.join(records_dir, "%s-%s.json" % (workload, seed))
    if os.path.exists(path):
        with open(path) as f:
            record = json.load(f)
        if record.get("build") == binary_hash:
            for name, value in figures.items():
                old = record["figures"].get(name)
                if name == "retained_bytes" and old is not None:
                    slack = max(RETAINED_SLACK[1],
                                RETAINED_SLACK[0] * max(abs(old), abs(value)))
                    if abs(old - value) > slack:
                        return "%s (%s vs %s)" % (name, value, old)
                elif old != value:
                    return "%s (%s vs %s)" % (name, value, old)
            return None
    with open(path, "w") as f:
        json.dump({"build": binary_hash, "figures": figures}, f)
    return None


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    try:
        args = parser.parse_args()
    except SystemExit:
        sys.exit(3)

    root = os.getcwd()
    build_dir = os.path.join(root, ".bench_build", "perfbench")
    # Compiler and program temporaries stay inside the checkout too.
    tmp_dir = os.path.join(build_dir, "tmp")
    os.makedirs(tmp_dir, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp_dir)
    binary = build(root, build_dir, env)
    work_dir = os.path.join(build_dir, "work-%d" % os.getpid())
    os.makedirs(work_dir, exist_ok=True)
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--work-dir", work_dir]
    try:
        proc = subprocess.run(command, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S, cwd=root, env=env)
    except subprocess.TimeoutExpired:
        fail(4, "benchmark run exceeded %d s" % RUN_TIMEOUT_S)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    sys.stderr.write(proc.stderr)
    lines = proc.stdout.splitlines()
    if proc.returncode not in (0, 1) or not lines:
        fail(proc.returncode or 2, "benchmark exited with %d" % proc.returncode)
    result = lines[-1]
    figures = None
    for line in lines[:-1]:
        if line.startswith("DETERMINISM "):
            figures = json.loads(line[len("DETERMINISM "):])
        else:
            print(line)
    if figures is None and proc.returncode == 0:
        fail(2, "benchmark printed no determinism record")
    differs = figures and check_record(
        os.path.join(build_dir, "records"), sha256(binary), args.workload,
        args.seed, figures)
    if differs:
        fail(2, "determinism failure: %s differs from an earlier run of this "
                "build with seed %d" % (differs, args.seed))
    print(result)
    sys.stdout.flush()
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
