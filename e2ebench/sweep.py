#!/usr/bin/env python3
"""Run bench_e2e over several seeds and report each metric's spread.

    python3 e2ebench/sweep.py --workloads dashboard adhoc --seeds 1-10 \\
        --out runs.jsonl [--trace 0]

Each run goes through run.py (so it builds first when needed) with the
run length from BENCHMARK.json, and is appended to --out. The report gives,
per workload and metric, the median of the runs and the spread: the
distance between the first and third quartile (statistics.quantiles, n=4)
as a share of the median, next to the metric's bound. compare.py diffs two
such files.
"""
import argparse
import subprocess
import sys
from pathlib import Path

from compare import benchmark_spec, group, load, summary

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def report(runs, trace):
    _, metrics = benchmark_spec()
    table, incorrect = group(runs, trace)
    print(f"{'workload':<14}{'metric':<30}{'n':>3}{'median':>14}{'spread':>9}"
          f"{'bound':>8}")
    for (workload, name), values in sorted(table.items()):
        median, s = summary(values)
        bound = metrics.get(name, {}).get("bound")
        flag = "" if bound is None or s <= bound / 3 else "  > bound/3"
        print(f"{workload:<14}{name:<30}{len(values):>3}{median:>14.4f}"
              f"{s:>9.3f}{'' if bound is None else f'{bound:>8.2f}'}{flag}")
    if incorrect:
        print(f"left out as incorrect: {incorrect} run(s)")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--out", required=True)
    parser.add_argument("--report-only", action="store_true",
                        help="only summarize an existing --out file")
    args = parser.parse_args()
    if not args.report_only:
        spec, _ = benchmark_spec()
        for workload in args.workloads:
            for seed in parse_seeds(args.seeds):
                command = [sys.executable, str(HERE / "run.py"), "--workload",
                           workload, "--seed", str(seed), "--seconds",
                           str(spec["run_seconds"]), "--trace", str(args.trace),
                           "--record", args.out]
                done = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                                      text=True)
                last = done.stdout.strip().splitlines()[-1:] or ["(no output)"]
                print(f"{workload} seed {seed}: exit {done.returncode} {last[0][:160]}",
                      file=sys.stderr)
    report(load(args.out), args.trace)


if __name__ == "__main__":
    main()
