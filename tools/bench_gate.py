#!/usr/bin/env python3
"""Benchmark regression gate for the chase/matcher/serve/analyze lanes.

Compares a fresh Google Benchmark JSON report (--benchmark_format=json)
against the committed baseline (BENCH_chase.json, BENCH_spill.json,
BENCH_serve.json or BENCH_analyze.json). Fails (exit 1) when any gated
benchmark — one whose name contains "chase", "matcher", "serve" or
"analyze", case-insensitively — regressed by more than the threshold in
real_time.

A report run with --benchmark_repetitions=N carries a `median` aggregate
per benchmark; the gate compares those. A report without repetitions has
one raw row per benchmark, and that row is compared.

A benchmark family with a "/1" variant takes a lane (threads) argument,
so "/4" is a 4-lane run. A baseline recorded on fewer CPUs than the
widest lane it gates cannot say what that lane costs: the gate fails and
asks for a re-capture. The check is skipped when the baseline gates no
lane, or does not record its CPU count.

Also prints the parallel speedup table for benchmarks that carry a
threads argument (name suffix "/1" vs "/4"), since that is the number
the parallel-rounds work is gated on in CI.

Stdlib only. Tolerant by design: a missing, empty, or malformed baseline
passes with a notice (first run on a new machine has nothing to gate
against); only benchmarks present in BOTH reports are compared.

Usage:
  tools/bench_gate.py --current report.json [--baseline BENCH_chase.json]
                      [--threshold 0.20] [--min-speedup 0]
"""

import argparse
import json
import sys


def load_report(path):
    """Returns (times, num_cpus) for a Google Benchmark JSON file, where
    times is {name: real_time_ns}: the `median` aggregates when the report
    has repetitions, its raw rows otherwise; num_cpus is None when the
    report does not record it. None when the file is unusable."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            report = json.load(fh)
    except (OSError, ValueError) as exc:
        print(f"bench_gate: cannot read {path}: {exc}")
        return None
    raw, medians = {}, {}
    for bench in report.get("benchmarks", []):
        time = bench.get("real_time")
        unit = bench.get("time_unit", "ns")
        scale = {"ns": 1.0, "us": 1e3, "ms": 1e6, "s": 1e9}.get(unit, 1.0)
        if time is None:
            continue
        if bench.get("run_type") == "aggregate":
            if bench.get("aggregate_name") == "median":
                medians[bench.get("run_name")] = float(time) * scale
        elif bench.get("name") is not None:
            raw[bench["name"]] = float(time) * scale
    num_cpus = report.get("context", {}).get("num_cpus")
    return (medians or raw), num_cpus


def lane(name, names):
    """The lane count of `name` when its family has a "/1" variant (so its
    last argument is a thread count), else None."""
    family, _, arg = name.rpartition("/")
    if not family or not arg.isdigit() or family + "/1" not in names:
        return None
    return int(arg)


def gated(name):
    lowered = name.lower()
    return ("chase" in lowered or "matcher" in lowered
            or "serve" in lowered or "analyze" in lowered)


def speedup_table(current):
    """Pairs .../1 with .../4 rows and prints the 4-lane speedup."""
    rows = []
    for name, t1 in sorted(current.items()):
        if not name.endswith("/1"):
            continue
        t4 = current.get(name[:-2] + "/4")
        if t4 and t4 > 0:
            rows.append((name[:-2], t1 / t4))
    if rows:
        print("\nparallel speedup (threads=4 vs threads=1, real time):")
        for base, ratio in rows:
            print(f"  {base:<40} {ratio:5.2f}x")
    return rows


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--current", required=True,
                        help="fresh benchmark JSON report")
    parser.add_argument("--baseline", default="BENCH_chase.json",
                        help="committed baseline JSON (default: %(default)s)")
    parser.add_argument("--threshold", type=float, default=0.20,
                        help="max allowed relative slowdown (default: 20%%)")
    parser.add_argument("--min-speedup", type=float, default=0.0,
                        help="required threads=4 speedup on gated "
                             "benchmarks; 0 disables (default)")
    args = parser.parse_args()

    loaded = load_report(args.current)
    if loaded is None or not loaded[0]:
        print("bench_gate: FAIL — current report is missing or empty")
        return 1
    current = loaded[0]

    rows = speedup_table(current)

    failures = []
    if args.min_speedup > 0:
        gated_rows = [(b, r) for b, r in rows if gated(b)]
        if not gated_rows:
            failures.append("no threaded chase/matcher benchmarks found "
                            "to check --min-speedup against")
        for base, ratio in gated_rows:
            if ratio < args.min_speedup:
                failures.append(
                    f"{base}: threads=4 speedup {ratio:.2f}x is below the "
                    f"required {args.min_speedup:.2f}x")

    loaded = load_report(args.baseline)
    if loaded is None or not loaded[0]:
        print("bench_gate: no usable baseline — skipping regression "
              "comparison (this is expected on the first run)")
    else:
        baseline, baseline_cpus = loaded
        lanes = [lane(name, current) for name in current
                 if gated(name) and name in baseline]
        widest = max((n for n in lanes if n is not None), default=None)
        if widest is not None and baseline_cpus is None:
            print(f"bench_gate: {args.baseline} records no CPU count — "
                  f"cannot check it against the /{widest} lane")
        elif widest is not None and baseline_cpus < widest:
            failures.append(
                f"{args.baseline} was recorded on {baseline_cpus} CPU(s), "
                f"below the widest lane it gates (/{widest}); re-capture it "
                f"on at least {widest} CPUs")
        compared = 0
        print(f"\nregression check vs {args.baseline} "
              f"(threshold {args.threshold:.0%}):")
        for name in sorted(current):
            if not gated(name) or name not in baseline:
                continue
            compared += 1
            before, after = baseline[name], current[name]
            change = (after - before) / before if before > 0 else 0.0
            marker = "REGRESSED" if change > args.threshold else "ok"
            print(f"  {name:<40} {before/1e6:9.2f}ms -> {after/1e6:9.2f}ms "
                  f"({change:+7.1%})  {marker}")
            if change > args.threshold:
                failures.append(
                    f"{name}: {change:+.1%} slower than baseline "
                    f"(threshold {args.threshold:.0%})")
        if compared == 0:
            print("  (no overlapping chase/matcher benchmarks to compare)")

    if failures:
        print("\nbench_gate: FAIL")
        for failure in failures:
            print(f"  - {failure}")
        return 1
    print("\nbench_gate: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
