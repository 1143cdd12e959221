"""The benchmark's phases: setup, batch, sweep and stream.

Every phase drives the program through public calls only and checks what
comes back. With a :class:`~spans.Tracer` the same phases also collect the
per-layer numbers; without one they add nothing to the timed calls.
"""

from __future__ import annotations

import contextlib
import statistics
import sys
import time
from collections import defaultdict

import numpy as np
from repro import ExecutionMode, LSTMExecutor, OptimizedLSTM, TimingSimulator
from repro.errors import ReproError
from repro.runtime.streaming import StreamingServer

import checks
import oracle
from checks import Tally
from streamload import Session, closed_loop, open_loop
from workloads import CHUNK_LEN, MAX_BATCH, SESSION_TOKENS, Workload

MODES = (
    ExecutionMode.BASELINE,
    ExecutionMode.INTER,
    ExecutionMode.INTRA,
    ExecutionMode.COMBINED,
)
APPROX = MODES[1:]
#: Every run is single-threaded, numpy backend, fp64 weights.
RUN_KW = {"threads": 1, "backend": "numpy", "precision": "fp64"}
#: Large enough that no submission is shed at the workloads' rates.
QUEUE_LIMIT = 4096
#: Streamed sessions per loop whose logits are re-computed whole.
VERIFY_SESSIONS = 8
#: Calls the traced run times, by span name.
TRACE_TARGETS = {
    "run": (OptimizedLSTM, "run"),
    "executor": (LSTMExecutor, "run_batch"),
    "trace": (LSTMExecutor, "kernel_trace"),
    "sim": (TimingSimulator, "run_trace"),
    "tick": (StreamingServer, "tick"),
}


def median(values) -> float:
    return float(statistics.median(values))


def fresh_tokens(rng: np.random.Generator, app: OptimizedLSTM, n: int, length: int | None = None):
    """``n`` fresh sequences, tokens uniform over the vocabulary."""
    length = app.network.config.seq_length if length is None else length
    return rng.integers(0, app.network.vocab_size, size=(n, length))


def set_for(mode: ExecutionMode, wl: Workload) -> int | None:
    return None if mode is ExecutionMode.BASELINE else wl.set_index


class Phases:
    """Runs the phases of one workload and gathers metrics and counts.

    ``batch``, ``sweep`` and ``stream`` may each be called several times
    (one call per cycle); they accumulate, and :meth:`finish` turns the
    accumulated samples into metrics and the run-wide checks.
    """

    def __init__(self, wl: Workload, seed: int, tracer=None) -> None:
        self.wl = wl
        self.tracer = tracer
        self.tallies: dict[str, Tally] = {}
        self.e2e: dict[str, float] = {}
        self.layer: dict[str, float] = {}
        self.app: OptimizedLSTM | None = None
        self._rngs = {phase: np.random.default_rng([seed, i])
                      for i, phase in enumerate(("setup", "batch", "sweep", "stream"))}
        # whole units run, host time spent and budget granted, per phase
        self.units: dict[str, int] = defaultdict(int)
        self.spent: dict[str, float] = defaultdict(float)
        self.credit: dict[str, float] = defaultdict(float)
        # batch
        self.rates = defaultdict(list)
        self.flips = defaultdict(lambda: [0, 0])
        self.sim_time = defaultdict(float)
        self.layers = defaultdict(lambda: defaultdict(float))
        self.plan_delta = {"batch": [0, 0], "sweep": [0, 0]}
        # sweep
        self.sweep_rates: list[float] = []
        # stream
        self.server: StreamingServer | None = None
        self.session_count = 0
        self.tok_s: list[float] = []
        self.open_parts: list = []
        self.closed_parts: list = []

    # ----------------------------------------------------------- helpers

    def tally(self, name: str) -> Tally:
        return self.tallies.setdefault(name, Tally(name))

    def span(self, name: str):
        return self.tracer.span(name) if self.tracer else contextlib.nullcontext()

    def wrapped(self, on: bool = True):
        if self.tracer is None or not on:
            return contextlib.nullcontext()
        return self.tracer.wrapped(TRACE_TARGETS)

    def run(self, tally: Tally, tokens, mode: ExecutionMode, threshold_index, **kw):
        """One ``OptimizedLSTM.run`` counted as an operation; ``None`` if it raised."""
        try:
            out = self.app.run(tokens, mode=mode, threshold_index=threshold_index, **RUN_KW, **kw)
        except ReproError as exc:
            tally.op(False)
            print(f"operation failed: {tally.name}/{mode.value}: {exc!r}", file=sys.stderr)
            return None
        tally.op(True)
        return out

    def _plan_counts(self) -> tuple[int, int]:
        stats = self.app.plan_cache.stats
        return stats.relevance_hits, stats.relevance_misses

    def _add_plan_delta(self, phase: str, before: tuple[int, int]) -> None:
        after = self._plan_counts()
        self.plan_delta[phase][0] += after[0] - before[0]
        self.plan_delta[phase][1] += after[1] - before[1]

    def check_round(self, tally: Tally, tokens, outs: dict) -> None:
        """Checks on one batch run through every mode at the workload's set."""
        app, batch = self.app, tokens.shape[0]
        for mode, out in outs.items():
            tally.check(f"{mode.value}/complete", checks.batch_complete(
                out.logits, batch, out.result.plans if out.result else None))
            tally.check(f"{mode.value}/finite", checks.all_finite(out.logits))
        if ExecutionMode.BASELINE in outs:
            tally.check("baseline/oracle", checks.logits_close(
                oracle.lstm_logits(app.network, tokens), outs[ExecutionMode.BASELINE].logits))
        combined = outs.get(ExecutionMode.COMBINED)
        if combined is not None:
            tally.check("combined/mts", checks.tissues_within_mts(
                combined.result.plans, app.calibration.mts))
            if ExecutionMode.BASELINE in outs:
                tally.check("combined/weight_bytes", checks.weight_bytes_not_above(
                    weight_bytes(combined), weight_bytes(outs[ExecutionMode.BASELINE])))

    # ------------------------------------------------------------- setup

    def setup(self) -> None:
        """Build, calibrate and warm the model ``setups`` times; keep the last."""
        wl, tally, rng = self.wl, self.tally("setup"), self._rngs["setup"]
        if self.tracer is not None:
            self.tracer.request = "setup"
        zoo, cal, warm, total = [], [], [], []
        for _ in range(wl.setups):
            t0 = time.perf_counter()
            with self.span("setup.zoo"):
                self.app = OptimizedLSTM.from_app(wl.app, seed=0)
            t1 = time.perf_counter()
            with self.span("setup.calibrate"):
                self.app.calibrate()
            t2 = time.perf_counter()
            tokens = fresh_tokens(rng, self.app, wl.batch)
            outs = {}
            with self.span("setup.warm"):
                for mode in MODES:
                    out = self.run(tally, tokens, mode, set_for(mode, wl),
                                   keep_traces=True, keep_result=True)
                    if out is not None:
                        outs[mode] = out
            t3 = time.perf_counter()
            zoo.append(t1 - t0)
            cal.append(t2 - t1)
            warm.append(t3 - t2)
            total.append(t3 - t0)
        self.e2e["setup_s"] = median(total)
        self.layer.update({
            "setup.zoo_s": median(zoo),
            "setup.calibrate_s": median(cal),
            "setup.warm_s": median(warm),
        })
        self.check_round(tally, tokens, outs)
        # With both thresholds at 0 every approximate mode is exact.
        tokens = fresh_tokens(rng, self.app, max(1, wl.batch // 4))
        expected = oracle.lstm_logits(self.app.network, tokens)
        for mode in APPROX:
            out = self.run(tally, tokens, mode, 0)
            if out is not None:
                tally.check(f"{mode.value}/set0_oracle", checks.logits_close(expected, out.logits))

    # ------------------------------------------------------------- batch

    def _units(self, phase: str, budget_s: float, unit, min_units: int = 1) -> None:
        """Run whole units of ``phase`` within its budget, carried across cycles.

        Each call adds ``budget_s`` to the phase's credit and starts another
        unit only if the phase's mean unit time says it ends within the
        credit; a unit longer than one cycle's share thus runs in a later
        cycle instead of overrunning every cycle.
        """
        self.credit[phase] += budget_s
        while True:
            done = self.units[phase]
            if done >= min_units and self.spent[phase] * (done + 1) / done > self.credit[phase]:
                return
            if self.tracer is not None:
                self.tracer.request = f"{phase}{done}"
            t0 = time.perf_counter()
            unit()
            self.spent[phase] += time.perf_counter() - t0
            self.units[phase] += 1

    def batch(self, budget_s: float) -> None:
        """Rounds of one fresh batch through ``OptimizedLSTM.run`` in every mode."""
        # The traced run needs a traced and an untraced round.
        self._units("batch", budget_s, self._batch_round, 2 if self.tracer else 1)

    def _batch_round(self) -> None:
        wl, app, tally, rng = self.wl, self.app, self.tally("batch"), self._rngs["batch"]
        plan_before = self._plan_counts()
        tokens = fresh_tokens(rng, app, wl.batch)
        # The traced run alternates traced and untraced rounds; the
        # difference in run wall per sequence is the tracing overhead.
        traced = self.tracer is not None and self.units["batch"] % 2 == 0
        outs = {}
        for mode in MODES:
            acc = self.layers[(mode, traced)]
            prog_before = app.program_cache.stats.as_dict()
            if traced:
                totals_before = dict(self.tracer.total_s)
                self._hook_into(acc, mode)
            with self.wrapped(traced):
                t0 = time.perf_counter()
                out = self.run(tally, tokens, mode, set_for(mode, wl),
                               keep_traces=True, keep_result=True)
                wall = time.perf_counter() - t0
            if out is None:
                continue
            outs[mode] = out
            self.rates[mode].append(wl.batch / wall)
            self.sim_time[mode] += float(out.times.sum())
            acc["seqs"] += wl.batch
            acc["batches"] += 1
            acc["wall_s"] += wall
            prog_after = app.program_cache.stats.as_dict()
            for key in ("program_hits", "program_misses", "program_evictions"):
                acc[key] += prog_after[key] - prog_before[key]
            if traced:
                for name in ("run", "executor", "trace", "sim"):
                    acc[f"{name}_s"] += self.tracer.total_s[name] - totals_before.get(name, 0.0)
        if self.tracer is not None:
            self.tracer.hooks.clear()
        self._add_plan_delta("batch", plan_before)
        self.check_round(tally, tokens, outs)
        base = outs.get(ExecutionMode.BASELINE)
        for mode in APPROX:
            if base is not None and mode in outs:
                self.flips[mode][0] += int(np.sum(outs[mode].predictions != base.predictions))
                self.flips[mode][1] += int(base.predictions.size)

    def _hook_into(self, acc, mode: ExecutionMode) -> None:
        """Point the traced calls' return values at ``acc``."""

        def on_executor(result):
            acc["plan_s"] += result.timings.get("plan_wall_s", 0.0)
            acc["compile_s"] += result.timings.get("compile_wall_s", 0.0)
            if mode is ExecutionMode.COMBINED:
                acc["groups"] += distinct_schedules(result.plans)

        def on_trace(kernels):
            acc["kernels"] += len(kernels)

        def on_sim(summary):
            acc["tx1_s"] += summary.total_time
            acc["weight_bytes"] += summary.total_weight_bytes_moved

        self.tracer.hooks.update(executor=on_executor, trace=on_trace, sim=on_sim)

    # ------------------------------------------------------------- sweep

    def sweep(self, budget_s: float) -> None:
        """Units of fresh sequences scored in COMBINED under every threshold set."""
        with self.wrapped():
            self._units("sweep", budget_s, self._sweep_unit)

    def _sweep_unit(self) -> None:
        wl, app, tally, rng = self.wl, self.app, self.tally("sweep"), self._rngs["sweep"]
        n_sets = len(app.calibration.schedule())
        tokens = fresh_tokens(rng, app, wl.sweep_batch)
        outs = []
        plan_before = self._plan_counts()
        t0 = time.perf_counter()
        for index in range(n_sets):
            outs.append(self.run(tally, tokens, ExecutionMode.COMBINED, index))
        wall = time.perf_counter() - t0
        self._add_plan_delta("sweep", plan_before)
        if all(out is not None for out in outs):
            self.sweep_rates.append(n_sets * wl.sweep_batch / wall)
        for index, out in enumerate(outs):
            if out is not None:
                tally.check(f"set{index}/complete",
                            checks.batch_complete(out.logits, wl.sweep_batch))
                tally.check(f"set{index}/finite", checks.all_finite(out.logits))
        base = self.run(tally, tokens, ExecutionMode.BASELINE, None)
        if base is not None and outs[0] is not None:
            tally.check("set0/baseline", checks.logits_equal(base.logits, outs[0].logits))

    # ------------------------------------------------------------ stream

    def stream(self, open_s: float, closed_s: float) -> None:
        """INTRA streaming: a closed-loop slice for capacity, an open-loop slice for latency."""
        wl, app, tally, rng = self.wl, self.app, self.tally("stream"), self._rngs["stream"]
        if self.server is None:
            self.stream_config = app.execution_config(
                ExecutionMode.INTRA, threshold_index=wl.set_index, **RUN_KW)
            self.server = StreamingServer(
                app.network, self.stream_config, max_batch=MAX_BATCH,
                chunk_len=CHUNK_LEN, queue_limit=QUEUE_LIMIT,
            )
            # Compile the stepwise programs of every tick batch size first,
            # so the loops time steady serving rather than first-use lowering.
            for size in range(1, MAX_BATCH + 1):
                for j in range(size):
                    self.server.submit(f"warm{size}.{j}", fresh_tokens(rng, app, 1, CHUNK_LEN)[0])
                self.server.drain()

        def new_session(prefix: str) -> Session:
            self.session_count += 1
            return Session(f"{prefix}{self.session_count}",
                           fresh_tokens(rng, app, 1, SESSION_TOKENS)[0])

        if self.tracer is not None:
            self.tracer.request = f"stream{len(self.open_parts)}"
        with self.wrapped():
            closed = closed_loop(self.server, lambda: new_session("c"), 2 * MAX_BATCH,
                                 closed_s, CHUNK_LEN, tally)
            opened, sessions = open_loop(
                self.server, lambda: new_session("o"), wl.stream_rate, wl.stream_gap_s,
                open_s, CHUNK_LEN, tally)
        for name, stats in (("closed", closed), ("open", opened)):
            tally.check(f"{name}/log", checks.stream_log_ok(stats.offered, stats.served))
            tally.check(f"{name}/tokens", checks.tokens_conserved(
                stats.tokens_offered, stats.tokens_served))
        if not self.open_parts:
            self._verify_sessions(tally, closed.whole_sessions[:VERIFY_SESSIONS]
                                  + sessions[:VERIFY_SESSIONS])
        self.tok_s.append(closed.tokens_served / closed.wall_s)
        self.open_parts.append(opened)
        self.closed_parts.append(closed)

    def _verify_sessions(self, tally: Tally, sample: list[Session]) -> None:
        """Streamed logits equal the same sequences run whole in the same mode."""
        executor = LSTMExecutor(self.app.network, self.stream_config)
        whole = executor.run_batch(np.stack([s.tokens for s in sample])).logits
        per_ts = self.app.network.per_timestep_head
        for session, expected in zip(sample, whole):
            streamed = np.concatenate(session.parts) if per_ts else session.parts[-1]
            tally.check(f"session/{session.sid}", checks.logits_equal(expected, streamed))

    # ------------------------------------------------------------ finish

    def finish(self) -> None:
        """Run-wide checks, then the metrics from the accumulated samples."""
        tally = self.tally("batch")
        for mode in APPROX:
            tally.check(f"{mode.value}/agreement", checks.agreement_within_budget(*self.flips[mode]))
        self.agreement = {m.value: 1 - f[0] / f[1] for m, f in self.flips.items() if f[1]}
        for mode in MODES:
            self.e2e[f"{mode.value}_seq_s"] = median(self.rates[mode])
        self.e2e["sim_combined_speedup"] = (
            self.sim_time[ExecutionMode.BASELINE] / self.sim_time[ExecutionMode.COMBINED]
        )
        self.e2e["sweep_seq_s"] = median(self.sweep_rates)
        opened = [x for part in self.open_parts for x in part.latencies_s]
        latencies = np.asarray(opened) * 1e3
        self.e2e["stream_p50_ms"] = float(np.percentile(latencies, 50))
        self.e2e["stream_p95_ms"] = float(np.percentile(latencies, 95))
        self.e2e["stream_tok_s"] = median(self.tok_s)
        lateness = np.asarray([x for p in self.open_parts for x in p.lateness_s]) * 1e3
        ticks = [x for p in self.open_parts for x in p.tick_s]
        clock = sum(p.clock_s for p in self.open_parts)
        self.stream_summary = (
            f"{len(latencies)} open-loop submissions timed; server busy "
            f"{100 * sum(ticks) / clock:.0f} % of {clock:.1f} s; "
            f"{100 * np.mean(lateness > 0.1):.0f} % admitted over 0.1 ms late, "
            f"p99 lateness {np.percentile(lateness, 99):.2f} ms")
        if self.tracer is not None:
            self._layer_metrics(ticks, lateness)

    def _layer_metrics(self, ticks, lateness) -> None:
        out = self.layer
        traced_wall = untraced_wall = traced_seqs = untraced_seqs = 0.0
        for mode in MODES:
            m = mode.value
            acc = self.layers[(mode, True)]
            plain = self.layers[(mode, False)]
            seqs = acc["seqs"]
            per_seq = 1e3 / seqs
            out[f"executor.{m}.ms_per_seq"] = acc["executor_s"] * per_seq
            out[f"trace.{m}.ms_per_seq"] = acc["trace_s"] * per_seq
            out[f"trace.{m}.kernels_per_seq"] = acc["kernels"] / seqs
            out[f"sim.{m}.ms_per_seq"] = acc["sim_s"] * per_seq
            out[f"sim.{m}.tx1_us_per_seq"] = acc["tx1_s"] * 1e6 / seqs
            out[f"sim.{m}.weight_mb_per_seq"] = acc["weight_bytes"] / 1e6 / seqs
            other = acc["run_s"] - acc["executor_s"] - acc["trace_s"] - acc["sim_s"]
            out[f"pipeline.{m}.other_ms_per_seq"] = other * per_seq
            out[f"pipeline.{m}.run_ms_per_seq"] = acc["run_s"] * per_seq
            self.tally("trace").check(f"{m}/reconcile", reconcile(acc))
            traced_wall += acc["wall_s"]
            traced_seqs += seqs
            untraced_wall += plain["wall_s"]
            untraced_seqs += plain["seqs"]
        for m in ("inter", "combined"):
            acc = self.layers[(ExecutionMode(m), True)]
            out[f"executor.{m}.plan_ms_per_seq"] = acc["plan_s"] * 1e3 / acc["seqs"]
        comb = self.layers[(ExecutionMode.COMBINED, True)]
        out["executor.combined.compile_ms_per_seq"] = comb["compile_s"] * 1e3 / comb["seqs"]
        out["executor.combined.groups_per_batch"] = comb["groups"] / comb["batches"]
        requests = comb["program_hits"] + comb["program_misses"]
        out["program.combined.hit_rate"] = comb["program_hits"] / requests if requests else 0.0
        out["program.combined.evictions_per_batch"] = comb["program_evictions"] / comb["batches"]
        for phase, (hits, misses) in self.plan_delta.items():
            out[f"plan.relevance_hit_rate.{phase}"] = hits / (hits + misses) if hits + misses else 0.0
        out["plan.entries"] = float(len(self.app.plan_cache))
        out["trace.overhead_pct"] = 100.0 * (
            (traced_wall / traced_seqs) / (untraced_wall / untraced_seqs) - 1.0
        )
        opened = self.open_parts
        out.update({
            "stream.tick_ms": median(ticks) * 1e3,
            "stream.exec_ms": median([x for p in opened for x in p.exec_s]) * 1e3,
            "stream.batch_mean": float(np.mean([x for p in self.closed_parts for x in p.batch])),
            "stream.queue_wait_ms": float(np.mean([x for p in opened for x in p.queue_wait_s])) * 1e3,
            "stream.generator_late_ms": float(np.mean(lateness)),
        })


def weight_bytes(outcome) -> float:
    """Modelled off-chip weight bytes per sequence of one run."""
    return float(np.mean([t.total_weight_bytes_moved for t in outcome.traces]))


def distinct_schedules(plans) -> float:
    """Distinct (breakpoints, tissue) schedules per layer, averaged over layers."""
    per_layer = defaultdict(set)
    for plan in plans:
        for rec in plan.layers:
            per_layer[rec.layer_index].add(
                (tuple(rec.breakpoints), tuple(tuple(t.cells) for t in rec.tissues)))
    return float(np.mean([len(s) for s in per_layer.values()]))


def reconcile(acc) -> str | None:
    """Executor, trace, simulation and other time add up to the run wall."""
    parts = acc["executor_s"] + acc["trace_s"] + acc["sim_s"]
    if parts > acc["run_s"]:
        return f"layer spans {parts:.6f}s exceed the run wall {acc['run_s']:.6f}s"
    if acc["run_s"] > acc["wall_s"]:
        return f"run span {acc['run_s']:.6f}s exceeds the timed call {acc['wall_s']:.6f}s"
    return None
