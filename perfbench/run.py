#!/usr/bin/env python3
"""Builds and runs the paper-workload benchmark (perfbench/README.md).

Run from the repository root:

    python3 perfbench/run.py --workload lubm-analytic --seed 1 --seconds 10 --trace 0

The engine is built from the checkout's sources into .bench_build/perfbench
(Release, so NDEBUG is set), then the benchmark binary runs with the same
arguments. Build output goes to stderr; the binary's standard output passes
through unchanged, and its last line is the result object. The exit code is
the binary's, or 2 when the build fails (for example when the engine's
sources are missing).
"""

import argparse
import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORKLOADS = ("lubm-analytic", "lubm-param", "dbpedia-snapshot")


def build():
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", BUILD, "--target", "paper_bench",
              "-j", jobs]]
    for cmd in steps:
        if subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr).returncode != 0:
            return False
    return True


def commit_id():
    """The git commit when the checkout is a repository, else a digest of
    the engine's sources and build file."""
    if os.path.isdir(os.path.join(ROOT, ".git")):
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True)
        if out.returncode == 0:
            return out.stdout.strip()
    digest = hashlib.sha256()
    paths = [os.path.join(ROOT, "CMakeLists.txt")]
    for base, dirs, files in os.walk(os.path.join(ROOT, "src")):
        dirs.sort()
        paths += [os.path.join(base, f) for f in sorted(files)]
    for path in paths:
        digest.update(os.path.relpath(path, ROOT).encode())
        with open(path, "rb") as f:
            digest.update(f.read())
    return "src-sha256:" + digest.hexdigest()[:16]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not build():
        print("perfbench: build failed", file=sys.stderr)
        return 2
    cmd = [os.path.join(BUILD, "paper_bench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--out-dir", os.path.join(BUILD, "out"),
           "--commit", commit_id()]
    return subprocess.run(cmd, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
