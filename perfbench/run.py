#!/usr/bin/env python3
"""Builds the archival benchmark from source and runs one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1>
    python3 perfbench/run.py --self-test [--seed <n>]

Run from the root of a checkout. The program and the library it drives
are built with CMake into .bench_build/ (configured once, rebuilt
incrementally); containers and scans live in .bench_work/ for the length
of the run; traced runs leave their spans in .bench_out/. The last line
of standard output is the result JSON. Without the library sources next
to perfbench/ the script exits with status 2 and prints no result.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build")
WORK_DIR = os.path.join(ROOT, ".bench_work")
OUT_DIR = os.path.join(ROOT, ".bench_out")
BINARY = os.path.join(BUILD_DIR, "ule_perfbench")
WORKLOADS = ("tpch_archive_session", "tpch_emulated_restore",
             "microfilm_scan_restore")


def build(env):
    """Configures (once) and builds the benchmark; output goes to stderr."""
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD_DIR,
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                       stdout=sys.stderr, check=True, env=env)
    subprocess.run(["cmake", "--build", BUILD_DIR, "--target", "ule_perfbench",
                    "-j", "4"], stdout=sys.stderr, check=True, env=env)


def commit():
    """The checked-out commit, when the checkout is a git repository."""
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except OSError:
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="check failure accounting on a damaged reel")
    args = parser.parse_args()
    if not args.self_test and args.workload is None:
        parser.error("--workload is required")
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("perfbench: library sources (src/) not found next to "
              "perfbench/; nothing to build", file=sys.stderr)
        return 2
    # Compiler and program temporaries stay inside the checkout too.
    tmp = os.path.join(BUILD_DIR, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    try:
        build(env)
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 2

    name = "selftest" if args.self_test else args.workload
    workdir = os.path.join(WORK_DIR, f"{name}-{args.seed}-{os.getpid()}")
    cmd = [BINARY, "--seed", str(args.seed), "--workdir", workdir]
    if args.self_test:
        cmd.append("--self-test")
    else:
        cmd += ["--workload", args.workload, "--seconds", str(args.seconds),
                "--trace", str(args.trace), "--commit", commit()]
        if args.trace:
            os.makedirs(OUT_DIR, exist_ok=True)
            cmd += ["--trace-out",
                    os.path.join(OUT_DIR,
                                 f"trace-{args.workload}-{args.seed}.json")]
    return subprocess.run(cmd, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
