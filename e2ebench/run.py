#!/usr/bin/env python3
"""Build and run bench_e2e, the end-to-end FlowQL benchmark.

    python3 e2ebench/run.py --workload dashboard --seed 1 --seconds 20 --trace 0

Run from the repository root. The first run configures and builds the
benchmark (CMake, Release) into .bench_build/ (or $CARGO_TARGET_DIR when
set); later runs rebuild incrementally. The binary's report goes to stdout
and its last line is the result object {"correct", "attempted", "failed",
"metrics"}. With --record FILE the run is also appended to FILE as one JSON
line (provenance included), the input of compare.py.

Exits non-zero, without a result, when the project sources are missing, the
build fails, or the benchmark fails or overruns its time limit.
"""
import argparse
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_LIMIT_S = 170.0
BUILD_LIMIT_S = 700.0


def fail(message, code=2):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(code)


def build_dir():
    return ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"project sources not found under {ROOT / 'src'}")
    if shutil.which("cmake") is None:
        fail("cmake not found")
    out = build_dir()
    deadline = time.monotonic() + BUILD_LIMIT_S
    if not (out / "CMakeCache.txt").is_file():
        configure = ["cmake", "-S", str(HERE), "-B", str(out),
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        step(configure, deadline)
    step(["cmake", "--build", str(out), "--target", "bench_e2e", "-j", "4"],
         deadline)
    return out / "bench_e2e"


def step(command, deadline):
    """Run a build command with its output on stderr."""
    try:
        done = subprocess.run(command, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        fail(f"build step timed out: {' '.join(command)}")
    if done.returncode != 0:
        fail(f"build step failed: {' '.join(command)}")


def revision():
    """The git commit when there is one, else a digest of the sources."""
    if (ROOT / ".git").exists() and shutil.which("git"):
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        if done.returncode == 0:
            return "git:" + done.stdout.strip()[:12]
    digest = hashlib.sha256()
    for top in (ROOT / "src", HERE):
        for path in sorted(top.rglob("*")):
            if path.is_file() and path.suffix in {".cpp", ".hpp", ".txt"}:
                digest.update(str(path.relative_to(ROOT)).encode())
                digest.update(path.read_bytes())
    return "src-sha256:" + digest.hexdigest()[:12]


def run(binary, args, limit_s):
    """Run the benchmark in its own process group; kill the group on
    overrun, so the forked load generator cannot outlive the run."""
    command = [str(binary), "--workload", args.workload, "--seed",
               str(args.seed), "--seconds", str(args.seconds), "--trace",
               str(args.trace), "--revision", revision()]
    proc = subprocess.Popen(command, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=limit_s)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        fail(f"benchmark overran {limit_s:.0f} s", code=3)
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)  # stragglers of the group
        except ProcessLookupError:
            pass
    return proc.returncode, stdout


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["dashboard", "adhoc", "ingest_mixed"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--record", help="append the run to this JSONL file")
    args = parser.parse_args()

    binary = build()
    code, stdout = run(binary, args, RUN_LIMIT_S)
    lines = stdout.rstrip("\n").splitlines()
    if code != 0 or not lines:
        sys.stdout.write(stdout)
        fail(f"benchmark exited with code {code}", code=code or 4)
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        sys.stdout.write(stdout)
        fail("benchmark printed no result line", code=4)
    if args.record:
        provenance = next((json.loads(l.split(":", 1)[1]) for l in lines
                           if l.startswith("provenance:")), {})
        with open(args.record, "a") as out:
            out.write(json.dumps({"workload": args.workload, "seed": args.seed,
                                  "seconds": args.seconds, "trace": args.trace,
                                  "provenance": provenance,
                                  "result": result}) + "\n")
    sys.stdout.write(stdout if stdout.endswith("\n") else stdout + "\n")


if __name__ == "__main__":
    main()
