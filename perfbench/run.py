#!/usr/bin/env python3
"""Build and run the Merlin end-to-end benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload retune --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --self-test

The first call configures and builds perfbench/CMakeLists.txt (an optimized
build of the Merlin libraries plus the merlin-perfbench binary) into
.bench_build/; later calls only re-check that build. Build output goes to
stderr, so the last line of stdout is the binary's JSON result. With
--trace 1 the spans of the traced run are written to
.bench_build/spans/<workload>-seed<n>.jsonl.
See perfbench/README.md for the workloads and metrics.
"""

import argparse
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build"
BINARY = BUILD / "merlin-perfbench"


def build() -> None:
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        sys.exit("perfbench: the Merlin sources (CMakeLists.txt, src/) "
                 "are not in this checkout")
    jobs = str(min(4, os.cpu_count() or 1))
    if not (BUILD / "CMakeCache.txt").is_file():
        configure = ["cmake", "-S", str(ROOT / "perfbench"), "-B", str(BUILD),
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        subprocess.run(configure, check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", str(BUILD), "--target",
                    "merlin-perfbench", "-j", jobs],
                   check=True, stdout=sys.stderr)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=["retune", "churn", "compile"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="check the probe oracle against a broken table")
    args = parser.parse_args()
    if not args.self_test and args.workload is None:
        parser.error("--workload is required")

    try:
        build()
    except (OSError, subprocess.CalledProcessError) as error:
        print(f"perfbench: build failed: {error}", file=sys.stderr)
        return 1

    if args.self_test:
        command = [str(BINARY), "--self-test"]
    else:
        command = [str(BINARY), "--workload", args.workload,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace)]
        if args.trace:
            spans = BUILD / "spans" / f"{args.workload}-seed{args.seed}.jsonl"
            spans.parent.mkdir(exist_ok=True)
            command += ["--spans", str(spans)]
    sys.stdout.flush()
    return subprocess.run(command, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
