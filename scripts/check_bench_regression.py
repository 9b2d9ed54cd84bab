#!/usr/bin/env python3
"""Bench-regression guard for the scheduler smoke benchmark.

Diffs a freshly produced BENCH_scheduler.json against the checked-in
bench/baseline.json, per (scenario, backend) pair. A pair is gated on
simulated seconds per wall second (sim_seconds_per_sec) when its baseline
row has that rate, else on events/sec: a simulation leg's events/sec falls
when the engine removes events, however much faster it runs, so only the
legs that simulate nothing (scheduler churn, spec sweep) keep it. A pair
that falls more than --tolerance below its baseline fails the check; a
pair more than --tolerance above it is reported as a candidate for a
baseline refresh (run with --update, or copy the fresh file over
bench/baseline.json, and commit the diff).

Only the Python standard library is used.
"""

import argparse
import json
import shutil
import sys


RATES = (("sim_seconds_per_sec", "sim-s/s"), ("events_per_sec", "ev/s"))


def load_results(path):
    """{(scenario, backend): {rate name: value}} for every row."""
    with open(path, encoding="utf-8") as f:
        doc = json.load(f)
    results = {}
    for entry in doc.get("results", []):
        key = (entry["scenario"], entry["backend"])
        results[key] = {name: float(entry[name]) for name, _ in RATES if name in entry}
    if not results:
        sys.exit(f"error: {path} contains no results")
    return results


def gated_rate(row):
    """The (name, unit) a baseline row is gated on: its first rate in RATES."""
    return next((name, unit) for name, unit in RATES if name in row)


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("fresh", help="freshly produced BENCH_scheduler.json")
    parser.add_argument("baseline", help="checked-in baseline (bench/baseline.json)")
    parser.add_argument(
        "--tolerance",
        type=float,
        default=0.25,
        help="allowed fractional slowdown per pair (default 0.25 = -25%%)",
    )
    parser.add_argument(
        "--update",
        action="store_true",
        help="copy the fresh file over the baseline instead of checking",
    )
    args = parser.parse_args()

    if args.update:
        shutil.copyfile(args.fresh, args.baseline)
        print(f"updated {args.baseline} from {args.fresh}")
        return 0

    fresh = load_results(args.fresh)
    baseline = load_results(args.baseline)

    failures = 0
    improvements = 0
    width = max(len(f"{s} / {b}") for s, b in baseline)
    for key in sorted(baseline):
        scenario, backend = key
        label = f"{scenario} / {backend}"
        rate, unit = gated_rate(baseline[key])
        base = baseline[key][rate]
        if rate not in fresh.get(key, {}):
            print(f"{label:<{width}}  FAIL   {rate} missing from fresh results")
            failures += 1
            continue
        now = fresh[key][rate]
        ratio = now / base
        if ratio < 1.0 - args.tolerance:
            print(
                f"{label:<{width}}  FAIL   {now:>12,.1f} {unit} vs baseline "
                f"{base:>12,.1f} ({ratio - 1.0:+.1%}, tolerance -{args.tolerance:.0%})"
            )
            failures += 1
        else:
            note = ""
            if ratio > 1.0 + args.tolerance:
                note = "  (faster than baseline; consider --update)"
                improvements += 1
            print(
                f"{label:<{width}}  OK     {now:>12,.1f} {unit} vs baseline "
                f"{base:>12,.1f} ({ratio - 1.0:+.1%}){note}"
            )

    for key in sorted(set(fresh) - set(baseline)):
        print(f"{key[0]} / {key[1]}: not in baseline (new scenario?); add it via --update")

    if failures:
        print(
            f"\n{failures} benchmark pair(s) regressed beyond -{args.tolerance:.0%}. "
            "If intentional, refresh bench/baseline.json and commit the diff."
        )
        return 1
    print(f"\nall {len(baseline)} benchmark pairs within -{args.tolerance:.0%} of baseline.")
    if improvements:
        print(f"({improvements} pair(s) ran >{args.tolerance:.0%} faster; baseline is stale.)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
