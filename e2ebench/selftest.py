#!/usr/bin/env python3
"""Smoke-scale self-test of the benchmark.

    python3 e2ebench/selftest.py

Run from the repository root. For every workload, runs run.py at smoke
scale with --trace 0 and --trace 1 and checks that
  * the last stdout line has exactly correct/attempted/failed/metrics,
    correct is true and nothing failed;
  * every metric BENCHMARK.json names is emitted with its unit, and no
    other (end-to-end metrics untraced, per-layer metrics traced);
  * the traced pass's spans are well formed: every parent exists and comes
    first, every child lies within its parent, a unit's spans share its id;
and that run.py refuses to measure with MFLA_FAILPOINTS set. Exits 0 when
everything holds.
"""

import csv
import json
import os
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
failures = []


def check(ok, message):
    if not ok:
        failures.append(message)
        print("FAIL: " + message, file=sys.stderr)


def run(workload, trace, env=None):
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload, "--seed", "1",
           "--seconds", "1", "--trace", str(trace), "--scale", "smoke"]
    return subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, env=env,
                          timeout=900)


def check_metrics(label, metrics, expected):
    names = {m["name"]: m["unit"] for m in expected}
    check(set(metrics) == set(names),
          f"{label}: metric names differ: missing {sorted(set(names) - set(metrics))}, "
          f"extra {sorted(set(metrics) - set(names))}")
    for name, unit in names.items():
        got = metrics.get(name)
        if got is None:
            continue
        check(got.get("unit") == unit, f"{label}: {name} has unit {got.get('unit')}, not {unit}")
        check(isinstance(got.get("value"), (int, float)), f"{label}: {name} has no number")


def check_spans(label, path):
    with open(path, newline="") as f:
        rows = list(csv.DictReader(f, delimiter="\t"))
    check(len(rows) > 1, f"{label}: no spans in {path}")
    spans = {}
    for row in rows:
        sid, parent = int(row["id"]), int(row["parent"])
        start, end = int(row["start_ns"]), int(row["end_ns"])
        run_id = int(row["run"])
        check(start <= end, f"{label}: span {sid} ends before it starts")
        if parent < 0:
            check(row["name"] == "pass", f"{label}: root span {sid} is {row['name']}")
        elif parent not in spans:
            check(False, f"{label}: span {sid} names missing parent {parent}")
        else:
            p = spans[parent]
            check(p["start"] <= start and end <= p["end"],
                  f"{label}: span {sid} ({row['name']}) lies outside parent {parent}")
            check(p["run"] < 0 or p["run"] == run_id,
                  f"{label}: span {sid} left its parent's unit {p['run']}")
        spans[sid] = {"start": start, "end": end, "run": run_id}


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    for w in bench["workloads"]:
        name = w["name"]
        for trace, expected in ((0, bench["end_to_end"]), (1, bench["per_layer"])):
            label = f"{name} trace={trace}"
            done = run(name, trace)
            lines = done.stdout.strip().splitlines()
            check(done.returncode == 0 and lines, f"{label}: exit {done.returncode}")
            if not lines:
                continue
            out = json.loads(lines[-1])
            check(set(out) == {"correct", "attempted", "failed", "metrics"},
                  f"{label}: result keys {sorted(out)}")
            check(out.get("correct") is True, f"{label}: not correct: {lines[:-1]}")
            check(out.get("attempted", 0) >= 1 and out.get("failed") == 0,
                  f"{label}: attempted {out.get('attempted')} failed {out.get('failed')}")
            check_metrics(label, out.get("metrics", {}), expected)
            if trace == 1:
                check_spans(label, ROOT / ".bench_work" / name / "spans.tsv")

    env = dict(os.environ, MFLA_FAILPOINTS="journal.append=error(enospc)@1")
    done = run(bench["workloads"][0]["name"], 0, env=env)
    check(done.returncode != 0 and not done.stdout.strip(),
          "run.py measured with MFLA_FAILPOINTS set")

    print(f"selftest: {'FAILED' if failures else 'ok'} ({len(failures)} failures)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
