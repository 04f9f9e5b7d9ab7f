#!/usr/bin/env python3
"""Build and run the repository benchmark (see e2ebench/README.md).

    python3 e2ebench/run.py --workload sweep_cold --seed 1 --seconds 25 --trace 0

Run from the repository root. Builds e2ebench (CMake, Release) into
.bench_build (or $CARGO_TARGET_DIR), repeats the workload's set-up in fresh
processes, runs the workload once, checks the output digest against
golden.json when the seed has one, and prints one JSON line last:
{"correct", "attempted", "failed", "metrics"}. A line before it carries the
details (provenance, digest, error rate, problems). Exits 0 only when every
check passed.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
WORKLOADS = ("sweep_cold", "sweep_warm_1t", "solver_large_lut8")
# setup_s is the median over this many fresh processes (the measured run
# is one of them), so lazily built tables are paid in every sample.
SETUP_SAMPLES = 7
RUN_LIMIT_S = 170.0


def die(message, code):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(code)


def build(root):
    source_root = BENCH_DIR.parent
    if not (source_root / "CMakeLists.txt").is_file() or not (source_root / "src").is_dir():
        die(f"no mfla sources next to {BENCH_DIR.name}/", 2)
    build_dir = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not build_dir.is_absolute():
        build_dir = root / build_dir
    jobs = str(os.cpu_count() or 1)
    steps = []
    if not (build_dir / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(build_dir),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(build_dir), "--target", "e2ebench", "-j", jobs])
    for cmd in steps:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            die(f"build step failed: {' '.join(cmd)}", 2)
    return build_dir / "e2ebench"


def run_bench(cmd, deadline):
    left = deadline - time.monotonic()
    if left <= 0:
        die("out of time before " + " ".join(cmd[1:3]), 1)
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr, text=True,
                              timeout=left)
    except subprocess.TimeoutExpired:
        die("timed out: " + " ".join(cmd), 1)
    lines = done.stdout.strip().splitlines()
    if not lines:
        die(f"no output (exit {done.returncode}): " + " ".join(cmd), 1)
    return done.returncode, json.loads(lines[-1])


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", choices=("full", "smoke"), default="full")
    args = ap.parse_args()

    if "MFLA_FAILPOINTS" in os.environ:
        die("refusing to measure with MFLA_FAILPOINTS set", 3)
    root = Path.cwd()
    exe = build(root)
    deadline = time.monotonic() + RUN_LIMIT_S

    workdir = root / ".bench_work" / args.workload
    base = [str(exe), "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
            "--scale", args.scale, "--workdir", str(workdir)]

    setup_samples = []
    if args.trace == 0:
        for _ in range(SETUP_SAMPLES - 1):
            code, out = run_bench(base + ["--setup-only"], deadline)
            if code != 0:
                die(f"set-up failed (exit {code})", 1)
            setup_samples.append(out["setup_s"])
    code, out = run_bench(base, deadline)
    if "metrics" not in out:
        die(f"benchmark printed no metrics (exit {code})", 1)

    problems = list(out.get("problems", []))
    attempted, failed = out["attempted"], out["failed"]
    golden = json.loads((BENCH_DIR / "golden.json").read_text())
    expected = golden.get(args.workload, {}).get(args.scale, {}).get(str(args.seed))
    if expected is None:
        golden_state = "none for this seed"
    elif expected == out["digest"]:
        golden_state = "match"
    else:
        golden_state = "MISMATCH"
        failed = attempted
        problems.append(f"output digest {out['digest']} != golden {expected}")

    metrics = out["metrics"]
    if args.trace == 0:
        setup_samples.append(out["setup_s"])
        metrics["setup_s"]["value"] = statistics.median(setup_samples)
    correct = bool(out["correct"]) and code == 0 and golden_state != "MISMATCH"

    detail = {k: out[k] for k in ("workload", "seed", "scale", "trace", "passes", "pass_walls",
                                  "digest", "provenance") if k in out}
    detail.update(golden=golden_state, setup_samples=setup_samples, problems=problems,
                  error_rate=failed / attempted if attempted else 0.0)
    print(json.dumps({"detail": detail}))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
