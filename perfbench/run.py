#!/usr/bin/env python3
"""Builds and runs the repo benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload edge_fleet --seed 1 --seconds 10 --trace 0

Run from the repository root. The benchmark binary is built from source into
$CARGO_TARGET_DIR (default .bench_build) as a Release CMake package of its
own (perfbench/CMakeLists.txt compiles the repo's src/ layers). Build output
goes to stderr; stdout carries provenance lines, the human-readable report
and, as its last line, the JSON result. The exit code is nonzero when the
build fails, a correctness gate fails, or the result does not list exactly
the metrics BENCHMARK.json declares for the mode. A traced run reports the
per-layer metrics of the layers its workload executes; run.py lists every
other declared per-layer metric with the value 0.
"""
import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def build(build_dir):
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) or not os.path.isdir(
        os.path.join(ROOT, "src")
    ):
        fail("no repository sources next to perfbench/ (CMakeLists.txt, src/)")
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        cfg = subprocess.run(
            ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
            stdout=sys.stderr,
            stderr=sys.stderr,
        )
        if cfg.returncode != 0:
            fail("cmake configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    b = subprocess.run(
        ["cmake", "--build", build_dir, "--target", "perfbench", "-j", jobs],
        stdout=sys.stderr,
        stderr=sys.stderr,
    )
    if b.returncode != 0:
        fail("build failed")
    return os.path.join(build_dir, "perfbench")


def provenance():
    commit = "unknown (not a git checkout)"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(
                ["git", "-C", ROOT, "rev-parse", "HEAD"],
                capture_output=True, text=True, timeout=30,
            ).stdout.strip() or commit
        except (OSError, subprocess.SubprocessError):
            pass
    # A digest of the code under test identifies it where git cannot.
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    with open(os.path.join(ROOT, "CMakeLists.txt"), "rb") as f:
        h.update(f.read())
    print("# commit " + commit)
    print("# source digest " + h.hexdigest()[:16])


def declared(trace):
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(path):
        return None
    with open(path) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = ap.parse_args()

    build_dir = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(build_dir):
        build_dir = os.path.join(ROOT, build_dir)
    binary = build(build_dir)
    out_dir = os.path.join(build_dir, "trace")
    os.makedirs(out_dir, exist_ok=True)
    provenance()
    sys.stdout.flush()
    try:
        p = subprocess.run(
            [binary, "--workload", a.workload, "--seed", str(a.seed),
             "--seconds", str(a.seconds), "--trace", str(a.trace),
             "--out-dir", out_dir],
            stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        fail("run exceeded %d s" % RUN_TIMEOUT_S)
    lines = p.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except (ValueError, IndexError):
        sys.stdout.write(p.stdout)
        fail("no JSON result (exit code %d)" % p.returncode)
    want = declared(bool(a.trace))
    if want is not None:
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        if a.trace:
            # A traced run reports the layers its workload executes; every
            # other declared per-layer metric reads 0.
            for name, unit in want.items():
                if name not in got:
                    result["metrics"][name] = {"value": 0, "unit": unit}
                    got[name] = unit
        if got != want:
            sys.stdout.write("\n".join(lines[:-1]) + "\n")
            fail("reported metrics differ from BENCHMARK.json: %s"
                 % sorted(set(got.items()) ^ set(want.items())))
    sys.stdout.write("\n".join(lines[:-1]) + "\n")
    print(json.dumps(result))
    sys.stdout.flush()
    sys.exit(p.returncode)


if __name__ == "__main__":
    main()
