#!/usr/bin/env python3
"""Compare a fresh bench_micro_cache run against the committed baseline.

Usage:
    check_bench_regression.py BASELINE.json CURRENT.json [--tolerance 0.20]

Both files are google-benchmark ``--benchmark_format=json`` documents.  The
check fails (exit 1) when any benchmark present in both files is more than
``tolerance`` slower than the baseline, after normalizing for machine speed.
It also fails (exit 2) when a baseline benchmark is MISSING from the current
run: a silently dropped benchmark would otherwise turn the gate off for
exactly the code path it was guarding.  A renamed or retired benchmark must
be accompanied by a regenerated baseline.  Benchmarks in the current run but
not in the baseline are listed as "ungated" (they pass until the baseline is
regenerated with them); they never change the exit code.

Normalization: absolute nanoseconds are not comparable across CI runners and
developer machines, so every cpu_time is divided by the host's
``BM_Rng/xorshift`` time (a pure-ALU serial loop that scales with single-core
speed) before the ratio is taken.  This keeps the gate meaningful on any
x86-64 host while still catching real regressions in the cache hot path.
"""

import argparse
import json
import sys

CALIBRATION = "BM_Rng/xorshift"


def load_times(path: str) -> dict[str, float]:
    with open(path) as f:
        doc = json.load(f)
    times = {}
    for bench in doc.get("benchmarks", []):
        # Skip aggregate rows (mean/median/stddev) from repetition runs.
        if bench.get("run_type") == "aggregate":
            continue
        name = bench["name"]
        # Keep the fastest sample per name: robust to scheduler noise.
        t = float(bench["cpu_time"])
        if name not in times or t < times[name]:
            times[name] = t
    return times


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("baseline")
    parser.add_argument("current")
    parser.add_argument("--tolerance", type=float, default=0.20,
                        help="allowed slowdown fraction (default 0.20)")
    args = parser.parse_args()

    base = load_times(args.baseline)
    cur = load_times(args.current)

    if CALIBRATION not in base or CALIBRATION not in cur:
        print(f"error: calibration benchmark {CALIBRATION!r} missing",
              file=sys.stderr)
        return 2

    missing = sorted(set(base) - set(cur) - {CALIBRATION})
    if missing:
        print(f"error: {len(missing)} baseline benchmark(s) missing from "
              f"the current run: {', '.join(missing)}\n"
              "every baseline entry must be produced by the current binary; "
              "if a benchmark was renamed or retired on purpose, regenerate "
              "the committed baseline in the same change.", file=sys.stderr)
        return 2

    scale = base[CALIBRATION] / cur[CALIBRATION]
    common = sorted(set(base) & set(cur) - {CALIBRATION})
    if not common:
        print("error: no common benchmarks to compare", file=sys.stderr)
        return 2

    print(f"calibration: baseline {base[CALIBRATION]:.2f}ns, "
          f"current {cur[CALIBRATION]:.2f}ns "
          f"(machine-speed scale {scale:.3f})")
    failed = []
    for name in common:
        normalized = cur[name] * scale
        ratio = normalized / base[name]
        flag = ""
        if ratio > 1.0 + args.tolerance:
            failed.append(name)
            flag = "  <-- REGRESSION"
        print(f"{name:45s} base {base[name]:9.2f}ns  "
              f"now {cur[name]:9.2f}ns  norm-ratio {ratio:5.2f}{flag}")

    ungated = sorted(set(cur) - set(base))
    if ungated:
        print(f"\n{len(ungated)} benchmark(s) not in the baseline, "
              f"ungated: {', '.join(ungated)}")

    if failed:
        print(f"\n{len(failed)} benchmark(s) regressed beyond "
              f"{args.tolerance:.0%}: {', '.join(failed)}", file=sys.stderr)
        return 1
    print(f"\nall {len(common)} benchmarks within {args.tolerance:.0%} "
          "of the committed baseline")
    return 0


if __name__ == "__main__":
    sys.exit(main())
