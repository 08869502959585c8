#!/usr/bin/env python3
"""Runs one workload of the WiMi benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. The first run configures and builds the
benchmark (perfbench/CMakeLists.txt: the repo's libraries, the wimi_serve
daemon and the wimi_perfbench binary) in .bench_build/perfbench; later runs
only rebuild what changed. Build output goes to .bench_build/perfbench/build.log.

The wimi_perfbench binary prints a host fingerprint, one line per metric, and as its
last line the JSON result. Exit codes: 0 all answers correct, 1 a
correctness miss, 2 a build, usage or set-up error (no result printed).
"""
import argparse
import hashlib
import os
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("batch_identify", "stream_tail")
HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"no WiMi sources under {ROOT} (expected src/CMakeLists.txt)")
    BUILD.mkdir(parents=True, exist_ok=True)
    log_path = BUILD / "build.log"
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "-j",
                  str(min(4, os.cpu_count() or 1))])
    with open(log_path, "w") as log:
        for step in steps:
            try:
                done = subprocess.run(step, stdout=log, stderr=subprocess.STDOUT,
                                      timeout=BUILD_TIMEOUT_S, check=False)
            except (OSError, subprocess.TimeoutExpired) as error:
                fail(f"build step {' '.join(step)} failed: {error}")
            if done.returncode != 0:
                log.flush()
                tail = log_path.read_text(errors="replace")[-3000:]
                fail(f"build failed (see {log_path}):\n{tail}")
    binary = BUILD / "bin" / "wimi_perfbench"
    if not binary.is_file():
        fail(f"build produced no {binary}")
    return binary


def commit():
    """The checkout's git commit, or 'none' when it is not a git work tree."""
    try:
        top = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel"],
                             capture_output=True, text=True, timeout=10)
        if top.returncode != 0 or Path(top.stdout.strip()).resolve() != ROOT:
            return "none"
        head = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
        return head.stdout.strip() or "none"
    except (OSError, subprocess.TimeoutExpired):
        return "none"


def source_digest():
    """SHA-256 over the sources the benchmark builds, so runs of different
    code are told apart even where there is no git history."""
    digest = hashlib.sha256()
    files = [ROOT / "tools" / "wimi_serve.cpp"]
    for top in (ROOT / "src", HERE):
        files.extend(p for p in top.rglob("*") if p.is_file())
    for path in sorted(files):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()
    if args.seconds <= 0:
        fail("--seconds must be positive")

    binary = build()
    env = {k: v for k, v in os.environ.items() if not k.startswith("WIMI_")}
    env["WIMI_LOG_LEVEL"] = "warn"
    command = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", args.trace,
               "--root", str(ROOT), "--commit", commit(),
               "--source-digest", source_digest()]
    sys.stdout.flush()
    try:
        done = subprocess.run(command, env=env, cwd=ROOT, timeout=RUN_TIMEOUT_S,
                              check=False)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
    return done.returncode


if __name__ == "__main__":
    sys.exit(main())
