"""Host end-to-end benchmark of the LSTM inference program.

Usage::

    python3 perfbench/run.py --workload mr|imdb|mt --seed N --seconds S --trace 0|1

Runs one workload's phases (setup, batch, sweep, stream, memory) in this
process, checks every output, prints one summary line per phase and, as
the last line, a JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer
metrics of the traced run with ``--trace 1``. See README.md.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

import env  # noqa: F401  (BLAS pinning and import path; before numpy)

from phases import Phases
from selftest import run_selftests
from spans import Tracer
from workloads import SHARES, WORKLOADS

UNITS = {
    "setup_s": "s",
    "baseline_seq_s": "seq/s",
    "inter_seq_s": "seq/s",
    "intra_seq_s": "seq/s",
    "combined_seq_s": "seq/s",
    "sweep_seq_s": "seq/s",
    "stream_p50_ms": "ms",
    "stream_p95_ms": "ms",
    "stream_tok_s": "tok/s",
    "peak_rss_mb": "MB",
    "sim_combined_speedup": "x",
}


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("ms_per_seq"):
        return "ms/seq"
    if name.endswith("us_per_seq"):
        return "us/seq"
    if name.endswith("mb_per_seq"):
        return "MB/seq"
    if name.endswith("kernels_per_seq"):
        return "kernels/seq"
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_pct"):
        return "%"
    if "hit_rate" in name:
        return "ratio"
    return "count"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    wl = WORKLOADS[args.workload]
    tracer = Tracer() if args.trace else None
    ph = Phases(wl, args.seed, tracer)
    started = time.perf_counter()
    run_selftests(ph.tally("selftest"))
    batch_s, sweep_s, open_s, closed_s = (args.seconds * share / wl.cycles for share in SHARES)
    phases = [("setup", ph.setup)] + [
        ("batch", lambda: ph.batch(batch_s)),
        ("sweep", lambda: ph.sweep(sweep_s)),
        ("stream", lambda: ph.stream(open_s, closed_s)),
    ] * wl.cycles
    walls = dict.fromkeys(("setup", "batch", "sweep", "stream"), 0.0)
    for name, phase in phases:
        t0 = time.perf_counter()
        phase()
        walls[name] += time.perf_counter() - t0
    ph.finish()
    ph.e2e["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    tallies = list(ph.tallies.values())
    failures = [line for t in tallies for line in t.check_failures]
    for t in tallies:
        wall = f", wall {walls[t.name]:.1f} s" if t.name in walls else ""
        print(f"phase {t.name}: attempted {t.attempted} failed {t.failed}{wall}")
    print("agreement at set {}: {}".format(
        wl.set_index, ", ".join(f"{m} {a:.4f}" for m, a in ph.agreement.items())))
    print(f"stream: {ph.stream_summary}")
    for name, value in ph.e2e.items():
        print(f"{name} = {value:.6g} {UNITS[name]}")
    print(f"run wall {time.perf_counter() - started:.1f} s")
    for line in failures:
        print("CHECK FAILED", line, file=sys.stderr)

    if tracer is not None:
        out_dir = Path(__file__).resolve().parent / "out"
        out_dir.mkdir(exist_ok=True)
        spans_path = out_dir / f"spans-{args.workload}-{args.seed}.jsonl"
        tracer.write_jsonl(spans_path)
        print(f"{len(tracer.spans)} spans written to {spans_path}")
        metrics = {name: {"value": v, "unit": layer_unit(name)} for name, v in ph.layer.items()}
    else:
        metrics = {name: {"value": v, "unit": UNITS[name]} for name, v in ph.e2e.items()}
    result = {
        "correct": not failures,
        "attempted": sum(t.attempted for t in tallies),
        "failed": sum(t.failed for t in tallies),
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
