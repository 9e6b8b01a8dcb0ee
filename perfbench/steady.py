#!/usr/bin/env python3
"""Steadiness tool for the archival benchmark.

Runs a workload K times, each with its own seed, and prints every
metric's median, quartiles and run-to-run spread (interquartile range as
a share of the median, as statistics.quantiles(values, n=4) gives the
quartiles), next to the bound BENCHMARK.json fixes for it:

    python3 perfbench/steady.py run --workload tpch_archive_session \
        --seeds 1-10 --out .bench_out/a1.json

Compares two saved sets of runs metric by metric: the change of the
second median against the first, in the metric's "worse" direction,
against its bound:

    python3 perfbench/steady.py compare .bench_out/a1.json .bench_out/a2.json

Run from the root of a checkout. Each run goes through perfbench/run.py,
so the first one builds the program.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    metrics.update({m["name"]: m for m in spec["per_layer"]})
    return spec, metrics


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def one_run(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        sys.stderr.write(out.stderr[-2000:])
        raise SystemExit(f"run failed: workload {workload} seed {seed}")
    context = next((json.loads(l)["context"] for l in lines
                    if l.startswith('{"context"')), {})
    return {"seed": seed, "context": context, "result": json.loads(lines[-1])}


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3, (q3 - q1) / q2 if q2 else float("inf")


def summarize(record, metrics):
    runs = record["runs"]
    names = list(runs[0]["result"]["metrics"])
    failed = sum(r["result"]["failed"] for r in runs)
    attempted = sum(r["result"]["attempted"] for r in runs)
    correct = all(r["result"]["correct"] for r in runs)
    print(f"{record['workload']}: {len(runs)} runs, trace {record['trace']}, "
          f"correct {correct}, failed {failed}/{attempted}")
    print(f"  {'metric':32} {'median':>12} {'q1':>12} {'q3':>12} "
          f"{'spread':>7} {'bound':>6}")
    for name in names:
        values = [r["result"]["metrics"][name]["value"] for r in runs]
        q1, q2, q3, s = spread(values)
        bound = metrics.get(name, {}).get("bound")
        flag = ""
        if bound is not None:
            flag = "  OVER" if s > bound else ("  >1/3" if s > bound / 3
                                               else "")
        print(f"  {name:32} {q2:12.6g} {q1:12.6g} {q3:12.6g} {s:7.2%} "
              f"{'' if bound is None else f'{bound:.0%}':>6}{flag}")


def cmd_run(args):
    _, metrics = load_spec()
    runs = [one_run(args.workload, seed, args.seconds, args.trace)
            for seed in parse_seeds(args.seeds)]
    record = {"workload": args.workload, "trace": args.trace,
              "seconds": args.seconds, "runs": runs}
    if args.out:
        os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
        with open(args.out, "w") as f:
            json.dump(record, f, indent=1)
    summarize(record, metrics)


def cmd_compare(args):
    _, metrics = load_spec()
    with open(args.first) as f:
        first = json.load(f)
    with open(args.second) as f:
        second = json.load(f)
    if first["workload"] != second["workload"]:
        raise SystemExit("the two sets ran different workloads")
    contexts = {(r["context"].get("kernels"), r["context"].get("threads"),
                 r["context"].get("build_type"), r["context"].get("nproc"))
                for r in first["runs"] + second["runs"]}
    if len(contexts) > 1:
        print("warning: the runs differ in kernels/threads/build/nproc")
    print(f"{first['workload']}: {args.first} -> {args.second}")
    worse_than_bound = False
    for name in first["runs"][0]["result"]["metrics"]:
        a = statistics.median(r["result"]["metrics"][name]["value"]
                              for r in first["runs"])
        b = statistics.median(r["result"]["metrics"][name]["value"]
                              for r in second["runs"])
        spec = metrics.get(name, {})
        sign = -1 if spec.get("better") == "higher" else 1
        worse = sign * (b - a) / a if a else 0.0
        bound = spec.get("bound")
        flag = ""
        if bound is not None and worse > bound:
            flag = "  WORSE THAN BOUND"
            worse_than_bound = True
        print(f"  {name:32} {a:12.6g} {b:12.6g} worse by {worse:+7.2%}"
              f"{'' if bound is None else f' (bound {bound:.0%})'}{flag}")
    return 1 if worse_than_bound else 0


def main():
    parser = argparse.ArgumentParser(
        description="Run-to-run spread of the archival benchmark.")
    sub = parser.add_subparsers(dest="cmd", required=True)
    run = sub.add_parser("run", help="run a workload over several seeds")
    run.add_argument("--workload", required=True)
    run.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,5,9")
    run.add_argument("--seconds", type=int, default=None,
                     help="default: BENCHMARK.json run_seconds")
    run.add_argument("--trace", type=int, choices=(0, 1), default=0)
    run.add_argument("--out", help="save the runs as JSON")
    cmp_ = sub.add_parser("compare", help="compare two saved sets of runs")
    cmp_.add_argument("first")
    cmp_.add_argument("second")
    args = parser.parse_args()
    if args.cmd == "run":
        if args.seconds is None:
            args.seconds = load_spec()[0]["run_seconds"]
        cmd_run(args)
        return 0
    return cmd_compare(args)


if __name__ == "__main__":
    sys.exit(main())
