#!/usr/bin/env python3
"""Compare benchmark JSON outputs against committed baselines.

The CI bench job runs every harness (Google Benchmark microbenchmarks and
the plain JSON harnesses alike), then calls this script to diff the fresh
JSONs against ``bench/baselines/*.json``. A wall-clock regression beyond
the threshold (default 25%) fails the job; improvements and informational
counters are reported in the trajectory table but never fail.

Metric extraction is direction-aware:

* Google Benchmark files (a top-level ``benchmarks`` array): one
  lower-is-better metric per benchmark entry, its ``real_time`` converted
  to seconds.
* Plain harness files (``bench_reference_cache``, ``bench_reference_tier``):
  numeric leaves flattened to dotted paths. ``*_seconds``/``*seconds`` are
  lower-is-better, ``*_speedup`` higher-is-better, everything else
  (solve/matrix counts, rates) is informational.

Noise guards: timings where baseline and current are both under
``--min-seconds`` (default 10 ms) are reported but not gated, and speedup
ratios are clamped at 50x before comparison — a cache-hit ratio of 3000x
vs 1500x is measurement noise on a sub-millisecond denominator, not a
regression. A baseline with no gated metric at all (every timing under the
noise floor and no speedup) is an error: such a bench could never fail.

Usage:
    bench_compare.py [--baselines DIR] [--threshold 0.25] [--update] FILE...

``--update`` copies the current files over the baselines (seeding or
intentional re-baselining after a reviewed perf change) instead of
comparing.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import shutil
import sys

SPEEDUP_CLAMP = 50.0

TIME_UNIT_SECONDS = {"ns": 1e-9, "us": 1e-6, "ms": 1e-3, "s": 1.0}


def load_metrics(path: pathlib.Path):
    """Return {metric_name: (value, direction)} for one benchmark JSON.

    direction is "lower" (gated, lower is better), "higher" (gated, higher
    is better) or "info" (reported only).
    """
    with open(path) as f:
        data = json.load(f)
    metrics = {}
    if isinstance(data, dict) and isinstance(data.get("benchmarks"), list):
        for entry in data["benchmarks"]:
            name = entry.get("name")
            if not name or entry.get("run_type") == "aggregate":
                continue
            unit = TIME_UNIT_SECONDS.get(entry.get("time_unit", "ns"), 1e-9)
            if isinstance(entry.get("real_time"), (int, float)):
                metrics[name] = (entry["real_time"] * unit, "lower")
        return metrics

    def walk(prefix, node):
        if isinstance(node, dict):
            for key, value in node.items():
                walk(f"{prefix}.{key}" if prefix else key, value)
        elif isinstance(node, (int, float)) and not isinstance(node, bool):
            leaf = prefix.rsplit(".", 1)[-1]
            if leaf.endswith("seconds"):
                metrics[prefix] = (float(node), "lower")
            elif leaf.endswith("speedup"):
                metrics[prefix] = (float(node), "higher")
            else:
                metrics[prefix] = (float(node), "info")

    walk("", data)
    return metrics


def has_gated_metric(metrics, min_seconds):
    """Can any metric of this baseline fail the gate?"""
    return any(direction == "higher" or (direction == "lower" and value >= min_seconds)
               for value, direction in metrics.values())


def compare_file(current_path, baseline_path, threshold, min_seconds, rows):
    """Append trajectory rows for one file pair; return the regression count."""
    current = load_metrics(current_path)
    baseline = load_metrics(baseline_path)
    regressions = 0
    for name in sorted(set(current) | set(baseline)):
        if name not in baseline:
            rows.append((current_path.name, name, None, current[name][0], "new"))
            continue
        if name not in current:
            rows.append((current_path.name, name, baseline[name][0], None, "removed"))
            continue
        base_value, direction = baseline[name]
        cur_value = current[name][0]
        status = "info"
        if direction == "lower":
            if base_value < min_seconds and cur_value < min_seconds:
                status = "noise"
            elif cur_value > base_value * (1.0 + threshold):
                status = "REGRESSED"
                regressions += 1
            elif cur_value < base_value * (1.0 - threshold):
                status = "improved"
            else:
                status = "ok"
        elif direction == "higher":
            base_clamped = min(base_value, SPEEDUP_CLAMP)
            cur_clamped = min(cur_value, SPEEDUP_CLAMP)
            if cur_clamped < base_clamped * (1.0 - threshold):
                status = "REGRESSED"
                regressions += 1
            elif cur_clamped > base_clamped * (1.0 + threshold):
                status = "improved"
            else:
                status = "ok"
        rows.append((current_path.name, name, base_value, cur_value, status))
    return regressions


def format_value(value):
    if value is None:
        return "-"
    if value == int(value) and abs(value) < 1e6:
        return str(int(value))
    return f"{value:.6g}"


def print_table(rows):
    header = ("file", "metric", "baseline", "current", "delta", "status")
    table = [header]
    for file_name, metric, base, cur, status in rows:
        if base not in (None, 0) and cur is not None:
            delta = f"{(cur - base) / base * 100.0:+.1f}%"
        else:
            delta = "-"
        table.append((file_name, metric, format_value(base), format_value(cur), delta, status))
    widths = [max(len(row[i]) for row in table) for i in range(len(header))]
    for i, row in enumerate(table):
        print("  ".join(cell.ljust(widths[j]) for j, cell in enumerate(row)).rstrip())
        if i == 0:
            print("  ".join("-" * w for w in widths))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("files", nargs="+", type=pathlib.Path,
                        help="freshly produced benchmark JSON files")
    parser.add_argument("--baselines", type=pathlib.Path,
                        default=pathlib.Path("bench/baselines"),
                        help="directory of committed baseline JSONs (default: bench/baselines)")
    parser.add_argument("--threshold", type=float, default=0.25,
                        help="relative regression threshold (default: 0.25 = 25%%)")
    parser.add_argument("--min-seconds", type=float, default=0.01,
                        help="noise floor: timings under this are not gated (default: 0.01)")
    parser.add_argument("--update", action="store_true",
                        help="copy the current files over the baselines instead of comparing")
    args = parser.parse_args()

    if args.update:
        args.baselines.mkdir(parents=True, exist_ok=True)
        for path in args.files:
            shutil.copy(path, args.baselines / path.name)
            print(f"baseline updated: {args.baselines / path.name}")
        return 0

    rows = []
    regressions = 0
    missing = []
    ungateable = []
    for path in args.files:
        baseline_path = args.baselines / path.name
        if not baseline_path.exists():
            missing.append(baseline_path)
            continue
        if not has_gated_metric(load_metrics(baseline_path), args.min_seconds):
            ungateable.append(baseline_path)
        regressions += compare_file(path, baseline_path, args.threshold, args.min_seconds, rows)

    if rows:
        print_table(rows)
    for baseline_path in missing:
        print(f"error: no baseline {baseline_path} (seed it with --update)", file=sys.stderr)
    for baseline_path in ungateable:
        print(f"error: baseline {baseline_path} has no gated metric (every timing is under "
              f"--min-seconds {args.min_seconds:g} and it has no speedup), so it can never "
              f"fail", file=sys.stderr)
    if regressions:
        print(f"\nFAIL: {regressions} metric(s) regressed beyond "
              f"{args.threshold * 100:.0f}% of baseline", file=sys.stderr)
    if regressions or missing or ungateable:
        return 1
    print(f"\nOK: no metric regressed beyond {args.threshold * 100:.0f}% of baseline")
    return 0


if __name__ == "__main__":
    sys.exit(main())
