#!/usr/bin/env python3
"""Bench regression check against the last committed record.

`bench/history/` holds one directory per merged PR (date-prefixed labels
keep the names chronological), each containing the `BENCH_*.json` files
that PR's bench run produced (see `bench/bench_report.h` for the
schema). This script compares a fresh set of results against the newest
history entry and fails (exit 1) on large regressions:

  * timing records: `ns_per_op` grew by more than --timing-threshold x
    (default 4.0 — generous, because CI machines differ from the
    machines that recorded the history);
  * counter gauges: `value` grew by more than --gauge-threshold x
    (default 1.5 — counters like `reelset_reels_4reel` or
    `verisc_machines_built_during_dispatch` are deterministic, so even
    a small growth is a real regression); a counter whose baseline is
    0 must stay 0, so any positive fresh value fails;
  * gauges with "rss" in the name use the timing threshold instead,
    since peak RSS scales with the machine's worker count;
  * gauges with "speedup" in the name (the SIMD kernel wins, e.g.
    `crc32_kernel_speedup`) regress by *shrinking*, so the comparison
    is inverted for them and uses the timing threshold
    (machine-dependent ratio).

Records present on only one side are reported but never fail (benches
gain and lose records across PRs); shrinking values are improvements. A
missing or empty history directory passes — the first record has no
baseline. `--save LABEL` copies the results into `bench/history/LABEL/`
so the next PR can commit them.

Two extra knobs serve the opt-in perf gate (`ULE_PERF_TESTS` in CMake,
ctest label `perf`), which runs on the machine that recorded the
history and can therefore afford a much tighter threshold than CI:
`--run CMD [ARGS...]` executes the bench inside the results directory
first, and `--only SUB[,SUB...]` restricts the comparison to records
whose name contains one of the substrings.

Run from anywhere: default paths resolve relative to the repository
root (the parent of this script's directory). Stdlib only.
"""

import argparse
import json
import shutil
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent


def load_records(path: Path) -> dict:
    """name -> record dict, for one BENCH_*.json file."""
    with path.open(encoding="utf-8") as f:
        return {r["name"]: r for r in json.load(f)}


def latest_history_entry(history: Path):
    if not history.is_dir():
        return None
    entries = sorted(d for d in history.iterdir() if d.is_dir())
    return entries[-1] if entries else None


def compare_file(current: Path, baseline: Path, timing_threshold: float,
                 gauge_threshold: float, only=None) -> list:
    errors = []
    cur = load_records(current)
    base = load_records(baseline)
    for name in sorted(cur.keys() | base.keys()):
        if only and not any(sub in name for sub in only):
            continue
        if name not in base:
            print(f"  new record (no baseline): {name}")
            continue
        if name not in cur:
            print(f"  record dropped from bench: {name}")
            continue
        c, b = cur[name], base[name]
        if "ns_per_op" in b:
            old, new = b.get("ns_per_op", 0.0), c.get("ns_per_op", 0.0)
            threshold = timing_threshold
            what = "ns_per_op"
        else:
            old, new = b.get("value", 0.0), c.get("value", 0.0)
            what = "value"
            if "speedup" in name:
                # A speedup gauge regresses by shrinking: invert so the
                # growth check below fires when the win evaporates.
                old, new = new, old
                threshold = timing_threshold
                what = "value (speedup, inverted)"
            elif "rss" in name:
                threshold = timing_threshold
            else:
                threshold = gauge_threshold
                if old == 0 and new > 0:
                    # No ratio bounds growth from zero: a zero counter
                    # baseline means "must stay zero".
                    errors.append(
                        f"{current.name}: {name}: value 0 -> {new:.1f} "
                        "(a zero counter baseline must stay zero)")
                    continue
        if old <= 0:
            continue
        ratio = new / old
        if ratio > threshold:
            errors.append(
                f"{current.name}: {name}: {what} {old:.1f} -> {new:.1f} "
                f"({ratio:.2f}x > {threshold:.2f}x allowed)")
        elif ratio > 1.0:
            print(f"  {name}: {what} grew {ratio:.2f}x (within threshold)")
    return errors


def main() -> int:
    parser = argparse.ArgumentParser(
        description="Compare BENCH_*.json results against bench/history/.")
    parser.add_argument("--results", type=Path, default=Path("."),
                        help="directory holding the fresh BENCH_*.json files")
    parser.add_argument("--history", type=Path,
                        default=REPO / "bench" / "history",
                        help="committed history root (default bench/history)")
    parser.add_argument("--timing-threshold", type=float, default=4.0,
                        help="allowed growth factor for timings / RSS gauges")
    parser.add_argument("--gauge-threshold", type=float, default=1.5,
                        help="allowed growth factor for counter gauges")
    parser.add_argument("--save", metavar="LABEL",
                        help="also copy the results to bench/history/LABEL/")
    parser.add_argument("--only", metavar="SUB[,SUB...]",
                        help="compare only records whose name contains one "
                             "of these substrings")
    parser.add_argument("--run", nargs=argparse.REMAINDER, metavar="CMD",
                        help="first run CMD (and all following args) inside "
                             "the results directory to produce the results")
    args = parser.parse_args()

    if args.run:
        args.results.mkdir(parents=True, exist_ok=True)
        print(f"running: {' '.join(args.run)} (in {args.results})")
        proc = subprocess.run(args.run, cwd=args.results)
        if proc.returncode != 0:
            print(f"error: bench command failed ({proc.returncode})",
                  file=sys.stderr)
            return 1

    results = sorted(args.results.glob("BENCH_*.json"))
    if not results:
        print(f"error: no BENCH_*.json under {args.results}", file=sys.stderr)
        return 1

    errors = []
    baseline_dir = latest_history_entry(args.history)
    if baseline_dir is None:
        print(f"no history under {args.history}: nothing to compare "
              "(first record)")
    else:
        print(f"baseline: {baseline_dir}")
        for current in results:
            baseline = baseline_dir / current.name
            if not baseline.exists():
                print(f"  no baseline file for {current.name}")
                continue
            only = args.only.split(",") if args.only else None
            errors.extend(compare_file(current, baseline,
                                       args.timing_threshold,
                                       args.gauge_threshold, only))

    if args.save:
        dest = args.history / args.save
        dest.mkdir(parents=True, exist_ok=True)
        for current in results:
            shutil.copy(current, dest / current.name)
        print(f"saved {len(results)} file(s) to {dest}")

    for e in errors:
        print(f"error: {e}", file=sys.stderr)
    if not errors:
        print(f"bench regression check OK "
              f"({', '.join(r.name for r in results)})")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
