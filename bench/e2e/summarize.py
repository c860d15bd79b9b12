#!/usr/bin/env python3
"""Summarizes psmr_bench --json runs (standard library only).

    summarize.py RUN.json...
        Median and quartiles per workload x metric. Traced runs
        (psmr_bench --trace) also get the per-layer table, with
        trace.overhead_frac taken against the untraced median.

    summarize.py --base RUN.json... --new RUN.json...
        Compares two sides with the bounds in BENCHMARK.json. Runs are
        paired in seed order. A metric is a "gain" when the new side wins at
        least 9/10 of the pairs and the medians differ by more than the base
        side's spread (its interquartile range); "regressed" when the new
        median is worse than the base median by more than the bound;
        "unresolved" when either side's spread exceeds the bound (unless
        every new run beats every base run); otherwise "unchanged".
"""
import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent.parent


def load(paths):
    """Returns [(seed, traced, {workload: {"metrics", "untraced"}})]."""
    runs = []
    for path in paths:
        doc = json.loads(Path(path).read_text())
        workloads = {}
        for name, w in doc["workloads"].items():
            workloads[name] = {
                "metrics": {k: v["value"] for k, v in w["metrics"].items()},
                "untraced": {k: v["value"]
                             for k, v in w.get("untraced_metrics", {}).items()},
            }
        runs.append((doc["seed"], doc["trace"], workloads))
    runs.sort(key=lambda r: r[0])
    return runs


def values(runs, workload, metric, key="metrics"):
    return [w[workload][key][metric] for _, _, w in runs
            if workload in w and metric in w[workload][key]]


def quartiles(vals):
    if len(vals) < 2:
        return vals[0], vals[0], vals[0]
    q1, q2, q3 = statistics.quantiles(vals, n=4)
    return q1, statistics.median(vals), q3


def spread(vals):
    q1, med, q3 = quartiles(vals)
    return (q3 - q1) / abs(med) if med else 0.0


def workload_names(runs):
    names = []
    for _, _, w in runs:
        names += [n for n in w if n not in names]
    return names


def print_table(runs, metric_names, title):
    print(f"\n{title} ({len(runs)} runs)")
    print(f"{'workload':<15} {'metric':<30} {'q1':>12} {'median':>12} "
          f"{'q3':>12} {'iqr/med':>8}")
    for workload in workload_names(runs):
        for metric in metric_names:
            vals = values(runs, workload, metric)
            if not vals:
                continue
            q1, med, q3 = quartiles(vals)
            print(f"{workload:<15} {metric:<30} {q1:12.5g} {med:12.5g} "
                  f"{q3:12.5g} {spread(vals):8.3f}")


def summarize(runs, spec):
    e2e = [m["name"] for m in spec["end_to_end"]]
    layer = [m["name"] for m in spec["per_layer"]]
    plain = [r for r in runs if not r[1]]
    traced = [r for r in runs if r[1]]
    if plain:
        print_table(plain, e2e, "end-to-end metrics")
    if not traced:
        return
    names = workload_names(traced)
    print(f"\nper-layer metrics, medians of {len(traced)} traced runs "
          "(- = 0: layer not used, or nothing recorded)")
    print(f"{'metric':<30}" + "".join(f" {n:>14}" for n in names))
    for metric in layer + ["trace.stage_sum_frac"]:
        if metric == "trace.overhead_frac":
            # Traced CPU per operation against the untraced median: the
            # separate untraced runs given, else each trace's own pair.
            row = []
            for workload in names:
                base = (values(plain, workload, "cpu_us_per_op") or
                        values(traced, workload, "cpu_us_per_op", "untraced"))
                cost = values(traced, workload, "cpu_us_per_op")
                row.append(statistics.median(cost) / statistics.median(base)
                           - 1.0 if base and cost else 0.0)
        else:
            row = [statistics.median(values(traced, w, metric) or [0.0])
                   for w in names]
        print(f"{metric:<30}" + "".join(
            f" {v:>14.5g}" if v else f" {'-':>14}" for v in row))


def compare(base, new, spec):
    print(f"\nbase {len(base)} runs, new {len(new)} runs")
    print(f"{'workload':<15} {'metric':<18} {'base med':>11} {'new med':>11} "
          f"{'change':>8} {'wins':>6} {'spread':>13} {'bound':>6}  verdict")
    for workload in workload_names(base):
        for m in spec["end_to_end"]:
            name, bound = m["name"], m["bound"]
            sign = 1.0 if m["better"] == "higher" else -1.0
            b, n = values(base, workload, name), values(new, workload, name)
            if not b or not n:
                continue
            pairs = list(zip(b, n))
            wins = sum(1 for x, y in pairs if sign * (y - x) > 0)
            b_q1, b_med, b_q3 = quartiles(b)
            n_med = statistics.median(n)
            change = (n_med - b_med) / abs(b_med) if b_med else 0.0
            worse = -sign * change
            all_better = all(sign * (y - x) > 0 for x in b for y in n)
            if wins >= 0.9 * len(pairs) and abs(n_med - b_med) > b_q3 - b_q1:
                verdict = "gain"
            elif max(spread(b), spread(n)) > bound and not all_better:
                verdict = "unresolved"
            elif worse > bound:
                verdict = "regressed"
            else:
                verdict = "unchanged"
            print(f"{workload:<15} {name:<18} {b_med:11.5g} {n_med:11.5g} "
                  f"{change:+8.3f} {wins:>3}/{len(pairs):<2} "
                  f"{spread(b):6.3f}/{spread(n):<6.3f} {bound:6.2f}  {verdict}")


def main():
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter, epilog=__doc__)
    parser.add_argument("runs", nargs="*", help="psmr_bench --json files")
    parser.add_argument("--base", nargs="+", help="base side (the parent)")
    parser.add_argument("--new", nargs="+", help="new side (the change)")
    parser.add_argument("--benchmark", default=str(ROOT / "BENCHMARK.json"))
    args = parser.parse_args()
    spec = json.loads(Path(args.benchmark).read_text())
    if args.base or args.new:
        if not (args.base and args.new):
            parser.error("--base and --new go together")
        compare(load(args.base), load(args.new), spec)
    elif args.runs:
        summarize(load(args.runs), spec)
    else:
        parser.error("no runs given")


if __name__ == "__main__":
    sys.exit(main())
