#!/usr/bin/env python3
"""Diff two sets of bench_e2e runs, metric by metric and workload by workload.

    python3 e2ebench/compare.py BASE.jsonl NEW.jsonl [--trace 0|1]

Both files are run records as written by run.py --record (sweep.py writes
them for many seeds). For every workload and end-to-end metric the report
shows each side's median and spread (the distance between the first and
third quartile, statistics.quantiles n=4, as a share of the median), the
change of the median, and a verdict against the metric's bound in
BENCHMARK.json:

  worse        the new median is worse by more than the bound
  better       the new median is better by more than the bound
  same         within the bound (two sets of runs of one commit on a quiet
               host read "same")
  unresolved   a side's own spread exceeds the bound, so the runs cannot
               tell a change of that size from noise -- unless every new
               run is better (or worse) than every base run, which settles
               it either way

With --trace 1 the per-layer metrics are listed the same way, without a
verdict (they have no bound). Runs marked incorrect are left out and
counted. Exits 1 when any pairing is "worse".
"""
import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def benchmark_spec():
    """BENCHMARK.json, and its metrics by name."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return spec, {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}


def load(path):
    with open(path) as f:
        return [json.loads(line) for line in f if line.strip()]


def group(runs, trace):
    table, incorrect = {}, 0
    for run in runs:
        if run["trace"] != trace:
            continue
        if not run["result"].get("correct"):
            incorrect += 1
            continue
        for name, metric in run["result"]["metrics"].items():
            table.setdefault((run["workload"], name), []).append(metric["value"])
    return table, incorrect


def summary(values):
    """The median and the spread: (q3 - q1) / median, statistics.quantiles
    n=4; a single run has spread 0."""
    median = statistics.median(values)
    if len(values) < 2 or median == 0:
        return median, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return median, (q3 - q1) / abs(median)


def verdict(base, new, better, bound):
    (b_med, b_spread), (n_med, n_spread) = summary(base), summary(new)
    sign = 1.0 if better == "higher" else -1.0
    gain = sign * (n_med - b_med) / abs(b_med) if b_med else 0.0
    if bound is None:
        return gain, ""
    if max(b_spread, n_spread) > bound:
        if all(sign * n > sign * b for n in new for b in base):
            return gain, "better"
        if all(sign * n < sign * b for n in new for b in base):
            return gain, "worse"
        return gain, "unresolved"
    if gain < -bound:
        return gain, "worse"
    if gain > bound:
        return gain, "better"
    return gain, "same"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base")
    parser.add_argument("new")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    _, metrics = benchmark_spec()
    base, base_bad = group(load(args.base), args.trace)
    new, new_bad = group(load(args.new), args.trace)
    print(f"{'workload':<14}{'metric':<30}{'base':>14}{'spread':>8}"
          f"{'new':>14}{'spread':>8}{'gain':>9}  verdict")
    regressions = 0
    for key in sorted(set(base) | set(new)):
        workload, name = key
        if key not in base or key not in new:
            print(f"{workload:<14}{name:<30}  only in {'base' if key in base else 'new'}")
            continue
        meta = metrics.get(name, {"better": "lower"})
        gain, word = verdict(base[key], new[key], meta["better"],
                             meta.get("bound"))
        regressions += word == "worse"
        (b_med, b_spread), (n_med, n_spread) = summary(base[key]), summary(new[key])
        print(f"{workload:<14}{name:<30}{b_med:>14.4f}{b_spread:>8.3f}"
              f"{n_med:>14.4f}{n_spread:>8.3f}{100 * gain:>+8.1f}%  {word}")
    if base_bad or new_bad:
        print(f"left out as incorrect: {base_bad} base run(s), {new_bad} new run(s)")
    print("gain: the change of the median, positive = better")
    sys.exit(1 if regressions else 0)


if __name__ == "__main__":
    main()
