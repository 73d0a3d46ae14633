#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
                             [--smoke]

Configures perfbench/CMakeLists.txt into .bench_build/perfbench at the root
of the checkout (the first run compiles the library; later runs only check
that the build is current), then runs the benchmark binary for one
workload. The binary prints its provenance line, a summary and, as the last
line of stdout, the JSON result object; this script passes them through.

Exits non-zero without printing a result when the checkout cannot be built
(for example when it holds only the benchmark's own files) or when the
binary fails or overruns its time limit.
"""

import argparse
import hashlib
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "perfbench")
WORKLOADS = ("train-small", "train-city", "serve-uncached", "serve-hot")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def log(message):
    print(f"[perfbench] {message}", file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds the benchmark; True on success."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log(f"no library sources under {ROOT}; nothing to benchmark")
        return False
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", BUILD, "--target", "perfbench",
                  "-j", jobs])
    for step in steps:
        try:
            done = subprocess.run(step, stdout=subprocess.PIPE,
                                  stderr=subprocess.STDOUT,
                                  timeout=BUILD_TIMEOUT_S, check=False)
        except (OSError, subprocess.TimeoutExpired) as error:
            log(f"{' '.join(step)}: {error}")
            return False
        if done.returncode != 0:
            sys.stderr.write(done.stdout.decode(errors="replace")[-4000:])
            log(f"{' '.join(step)} failed with code {done.returncode}")
            return False
    return os.path.isfile(BINARY)


def commit_hash():
    """HEAD of the checkout, or "unknown" when it is not a git work tree."""
    try:
        top = subprocess.run(["git", "-C", ROOT, "rev-parse", "--show-toplevel"],
                             capture_output=True, text=True, timeout=10)
        if top.returncode != 0 or \
                os.path.realpath(top.stdout.strip()) != os.path.realpath(ROOT):
            return "unknown"
        head = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
        if head.returncode != 0 or not head.stdout.strip():
            return "unknown"
        return head.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"


def source_digest():
    """SHA-256 over the library sources, build files and the benchmark.

    Identifies the measured code even in a checkout without git metadata.
    """
    digest = hashlib.sha256()
    files = [os.path.join(ROOT, "CMakeLists.txt")]
    for top in ("src", "perfbench"):
        for directory, subdirs, names in os.walk(os.path.join(ROOT, top)):
            subdirs.sort()
            files.extend(os.path.join(directory, n) for n in sorted(names))
    for path in files:
        if not os.path.isfile(path):
            continue
        digest.update(os.path.relpath(path, ROOT).encode() + b"\0")
        with open(path, "rb") as handle:
            digest.update(handle.read())
    return digest.hexdigest()[:16]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--smoke", action="store_true",
                        help="shrink every workload for the smoke test")
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    if not build():
        return 1
    os.makedirs(os.path.dirname(BUILD), exist_ok=True)
    work_dir = tempfile.mkdtemp(prefix="work-", dir=BUILD)
    command = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", str(args.trace),
               "--work-dir", work_dir, "--commit", commit_hash(),
               "--source-digest", source_digest()]
    if args.smoke:
        command.append("--smoke")
    # The library reads STHSL_* variables (SIMD variant, threads, fusion,
    # tracing, run ledger, storage threshold); none may change what is
    # measured.
    env = {k: v for k, v in os.environ.items() if not k.startswith("STHSL_")}
    try:
        done = subprocess.run(command, stdout=subprocess.PIPE, env=env,
                              timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        log(f"{args.workload} overran {RUN_TIMEOUT_S} s")
        return 1
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    output = done.stdout.decode(errors="replace")
    if done.returncode != 0:
        sys.stderr.write(output)
        log(f"benchmark exited with code {done.returncode}")
        return 1
    sys.stdout.write(output)
    sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
