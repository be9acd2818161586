#!/usr/bin/env python3
"""Build and run the repository benchmark from the root of a checkout.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds perfbench/ (which builds the library from the checkout's src/)
into $CARGO_TARGET_DIR (default .bench_build), runs one workload, and
relays the binary's output; the last line of stdout is the result JSON.
Build logs go to stderr. Exits non-zero, printing no result, when the
build fails or the binary crashes or overruns its time limit.
"""
import argparse
import hashlib
import os
import subprocess
import sys

RUN_LIMIT_S = 170  # one run, build excluded


def source_rev(root):
    """The git commit, or a digest of src/ when the checkout has no git."""
    try:
        out = subprocess.run(["git", "-C", root, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0:
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    src = os.path.join(root, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            digest.update(os.path.relpath(path, src).encode() + b"\0")
            with open(path, "rb") as f:
                digest.update(f.read())
    return "src-sha256:" + digest.hexdigest()


def build(root, build_dir):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [
        ["cmake", "-S", os.path.join(root, "perfbench"), "-B", build_dir,
         "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
        ["cmake", "--build", build_dir, "--target", "perfbench", "-j", jobs],
    ]
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            sys.exit("perfbench: build step failed: " + " ".join(cmd))


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", choices=["0", "1"], default="0")
    args = ap.parse_args()

    root = os.getcwd()
    build_dir = os.path.join(
        os.environ.get("CARGO_TARGET_DIR") or ".bench_build", "perfbench")
    build(root, build_dir)
    out_dir = os.path.join(build_dir, "results")
    os.makedirs(out_dir, exist_ok=True)

    cmd = [os.path.join(build_dir, "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--out-dir", out_dir, "--source-rev", source_rev(root)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, timeout=RUN_LIMIT_S)
    except subprocess.TimeoutExpired:
        sys.exit("perfbench: run exceeded %d s" % RUN_LIMIT_S)
    out = proc.stdout.decode()
    if proc.returncode not in (0, 1) or not out.strip():
        sys.stderr.write(out)
        sys.exit("perfbench: benchmark binary failed with code %d" % proc.returncode)
    sys.stdout.write(out)
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
