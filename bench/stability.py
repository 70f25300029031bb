"""Stability command: is each end-to-end metric steadier than its bound?

    python3 bench/stability.py --runs 10 --out .bench_out/set-a.json
    python3 bench/stability.py --runs 10 --out .bench_out/set-b.json
    python3 bench/stability.py --compare .bench_out/set-a.json .bench_out/set-b.json

Runs ``run.py`` once per seed (seeds 1..runs) on each workload, one
run at a time, and prints every end-to-end metric's median, quartiles
and spread — the quartile distance as a share of the median — next to
its bound from ``BENCHMARK.json``.  ``--compare`` checks two such sets
the way a regression gate would: no median worse than the first set's
by more than its bound, and the same share of failed operations.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def manifest() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def collect(workloads: list[str], runs: int, seconds: float, first_seed: int) -> dict:
    results: dict[str, list[dict]] = {w: [] for w in workloads}
    for workload in workloads:
        for seed in range(first_seed, first_seed + runs):
            out = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, timeout=600, check=True,
            )
            last = json.loads(out.stdout.strip().splitlines()[-1])
            results[workload].append(last)
            values = {k: round(v["value"], 4) for k, v in last["metrics"].items()}
            print(f"{workload} seed={seed} correct={last['correct']} "
                  f"failed={last['failed']}/{last['attempted']} {values}", flush=True)
    return results


def summarize(results: dict) -> None:
    spec = manifest()
    for workload, runs in results.items():
        print(f"\n{workload}: {len(runs)} runs, "
              f"all correct={all(r['correct'] for r in runs)}, "
              f"failed share={sorted({r['failed'] / r['attempted'] for r in runs})}")
        print(f"  {'metric':24s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>8s} {'bound':>6s}")
        for metric in spec["end_to_end"]:
            values = [r["metrics"][metric["name"]]["value"] for r in runs]
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            flag = "ok" if spread <= metric["bound"] / 3 else (
                "within bound" if spread <= metric["bound"] else "TOO WIDE")
            print(f"  {metric['name']:24s} {med:12.4f} {q1:12.4f} {q3:12.4f} "
                  f"{spread:8.3f} {metric['bound']:6.2f}  {flag}")


def compare(first: dict, second: dict) -> bool:
    spec = manifest()
    ok = True
    for workload in first:
        a, b = first[workload], second[workload]
        share_a = {r["failed"] / r["attempted"] for r in a}
        share_b = {r["failed"] / r["attempted"] for r in b}
        print(f"\n{workload}: failed share {sorted(share_a)} vs {sorted(share_b)}")
        ok &= share_a == share_b
        for metric in spec["end_to_end"]:
            name = metric["name"]
            ma = statistics.median(r["metrics"][name]["value"] for r in a)
            mb = statistics.median(r["metrics"][name]["value"] for r in b)
            change = (mb - ma) / ma
            worse = change if metric["better"] == "lower" else -change
            verdict = "ok" if worse <= metric["bound"] else "WORSE THAN BOUND"
            ok &= worse <= metric["bound"]
            print(f"  {name:24s} {ma:12.4f} -> {mb:12.4f} ({change:+.3f}, bound {metric['bound']:.2f}) {verdict}")
    return ok


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in manifest()["workloads"]))
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=manifest()["run_seconds"])
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--out")
    parser.add_argument("--compare", nargs=2, metavar="SET")
    args = parser.parse_args()
    if args.compare:
        sets = []
        for path in args.compare:
            with open(path) as f:
                sets.append(json.load(f))
        return 0 if compare(*sets) else 1
    results = collect(args.workloads.split(","), args.runs, args.seconds, args.first_seed)
    if args.out:
        os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
        with open(args.out, "w") as f:
            json.dump(results, f)
    summarize(results)
    return 0


if __name__ == "__main__":
    sys.exit(main())
