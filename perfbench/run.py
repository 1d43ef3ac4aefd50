#!/usr/bin/env python3
"""Build the EMAP benchmark runner from source and run one workload.

Usage (from the root of an EMAP checkout):

    python3 perfbench/run.py --workload <evaluation|fleet|edge> \
        --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --self-test

The runner and the EMAP libraries are built (Release) under the directory
named by $CARGO_TARGET_DIR, else `.bench_build`, relative to the checkout
root; results and span files go to `.bench_out`.  The last line of
standard output is the run's JSON result.  Build output goes to standard
error.  Exits non-zero, without a result, when the checkout holds no EMAP
source tree or the build or the run fails.
"""

import argparse
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD_TIMEOUT_S = 700
RUN_TIMEOUT_S = 170


def run(cmd, timeout, **kwargs):
    """Run a child process to completion; kill it if it overruns."""
    with subprocess.Popen(cmd, **kwargs) as proc:
        try:
            out, _ = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            sys.exit(f"perfbench: {cmd[0]} timed out after {timeout} s")
        return proc.returncode, out


def build():
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        sys.exit(f"perfbench: no EMAP source tree at {ROOT}")
    build_root = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not build_root.is_absolute():
        build_root = ROOT / build_root
    build_dir = build_root / "perfbench"
    jobs = str(min(4, os.cpu_count() or 1))
    if not (build_dir / "CMakeCache.txt").is_file():
        configure = ["cmake", "-S", str(HERE), "-B", str(build_dir),
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        code, _ = run(configure, BUILD_TIMEOUT_S, stdout=sys.stderr)
        if code != 0:
            sys.exit("perfbench: cmake configure failed")
    code, _ = run(["cmake", "--build", str(build_dir), "--target",
                   "emap_perfbench", "-j", jobs],
                  BUILD_TIMEOUT_S, stdout=sys.stderr)
    if code != 0:
        sys.exit("perfbench: build failed")
    return build_dir / "emap_perfbench"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=["evaluation", "fleet", "edge"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="check that every output check rejects a "
                             "corrupted copy of a real result")
    args = parser.parse_args()
    if not args.self_test and args.workload is None:
        parser.error("--workload is required")

    binary = build()
    if args.self_test:
        code, _ = run([str(binary), "--self-test"], RUN_TIMEOUT_S)
        return code
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out", str(ROOT / ".bench_out")]
    code, out = run(cmd, RUN_TIMEOUT_S, stdout=subprocess.PIPE, text=True)
    lines = out.strip().splitlines()
    if code != 0 or not lines:
        sys.exit(f"perfbench: {args.workload} run failed (exit {code})")
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
