"""Steadiness of the end-to-end metrics across runs.

Usage::

    python3 perfbench/steady.py --workload imdb --runs 10 [--sets 2] [--first-seed 1]

Runs ``run.py`` ``runs`` times per set, one seed each, one after another,
and prints for every end-to-end metric of ``BENCHMARK.json`` the median,
the quartiles and their distance as a share of the median, against the
metric's bound. With two sets it also prints whether the second set's
median is worse than the first's by more than the bound, and whether the
share of failed operations is the same in both.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=False,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise SystemExit(f"seed {seed}: checks failed\n{proc.stderr}")
    return result


def summarize(values: list[float]) -> tuple[float, float, float, float]:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, choices=(1, 2), default=1)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args()
    if args.runs < 2:
        parser.error("--runs must be at least 2")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = spec["end_to_end"]

    sets = []
    for k in range(args.sets):
        results = []
        for i in range(args.runs):
            seed = args.first_seed + k * args.runs + i
            results.append(run_once(args.workload, seed, spec["run_seconds"]))
            print(f"set {k + 1} seed {seed}: " + " ".join(
                f"{m['name']}={results[-1]['metrics'][m['name']]['value']:.5g}" for m in metrics),
                flush=True)
        sets.append(results)

    steady = True
    for k, results in enumerate(sets):
        share = sum(r["failed"] for r in results) / sum(r["attempted"] for r in results)
        print(f"\nset {k + 1}: failed share {share:.6g}")
        print(f"{'metric':24} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}")
        for m in metrics:
            med, q1, q3, spread = summarize([r["metrics"][m["name"]]["value"] for r in results])
            flag = "" if spread <= m["bound"] / 3 else ("  over bound/3" if spread <= m["bound"] else "  OVER BOUND")
            if spread > m["bound"] and m["name"] != "setup_s":
                steady = False
            print(f"{m['name']:24} {med:12.5g} {q1:12.5g} {q3:12.5g} {spread:8.3f} {m['bound']:6.2f}{flag}")
    if len(sets) == 2:
        print("\nsecond set against first (worse-direction change of the median):")
        shares = [sum(r["failed"] for r in s) / sum(r["attempted"] for r in s) for s in sets]
        if shares[0] != shares[1]:
            steady = False
            print(f"failed share differs: {shares[0]} vs {shares[1]}")
        for m in metrics:
            first, second = (summarize([r["metrics"][m["name"]]["value"] for r in s])[0] for s in sets)
            worse = (second - first) / first if m["better"] == "lower" else (first - second) / first
            ok = worse <= m["bound"]
            steady &= ok
            print(f"{m['name']:24} {first:12.5g} {second:12.5g} {worse:+8.3f} {'ok' if ok else 'WORSE THAN BOUND'}")
    print("\nsteady" if steady else "\nNOT steady")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
