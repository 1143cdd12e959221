"""The three workloads: Table II geometries with their traffic settings.

Each workload runs the same phases (setup, batch, sweep, stream, memory)
at its own geometry; README.md says why each was chosen and which layers
it stresses.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    """Traffic settings of one workload.

    Attributes:
        app: Table II application (``OptimizedLSTM.from_app`` name).
        batch: Sequences per ``OptimizedLSTM.run`` call in the batch phase.
        set_index: Threshold set of ``calibration.schedule()`` the
            approximate modes run at (the largest whose measured loss on
            fresh traffic stays within the 2 % budget).
        setups: Times the run builds, calibrates and warms the model; the
            median is ``setup_s``.
        sweep_batch: Fresh sequences scored under every threshold set per
            sweep unit.
        stream_rate: Open-loop session arrivals per second.
        stream_gap_s: Gap between one session's consecutive submissions.
        cycles: Times the batch, sweep and stream phases take turns, each
            with its share of ``--seconds`` divided by ``cycles``; spreading
            every phase over the whole run keeps a slow stretch of the
            shared host from landing on one metric alone.
    """

    app: str
    batch: int
    set_index: int
    setups: int
    sweep_batch: int
    stream_rate: float
    stream_gap_s: float
    cycles: int


#: Streamed sessions: tokens per session, tokens per submission, tick batch.
SESSION_TOKENS = 16
CHUNK_LEN = 4
MAX_BATCH = 8
#: Shares of ``--seconds`` given to the batch, sweep, open-loop and
#: closed-loop phases. The batch phase gets most: at IMDB and MT one round
#: of four modes takes 5-7 s, so the per-mode medians need that share to
#: see more than one round.
SHARES = (0.65, 0.1, 0.15, 0.1)

WORKLOADS: dict[str, Workload] = {
    "mr": Workload(
        app="MR", batch=32, set_index=1, setups=3, sweep_batch=4,
        stream_rate=60.0, stream_gap_s=0.010, cycles=8,
    ),
    "imdb": Workload(
        app="IMDB", batch=8, set_index=1, setups=1, sweep_batch=1,
        stream_rate=7.0, stream_gap_s=0.100, cycles=3,
    ),
    "mt": Workload(
        app="MT", batch=4, set_index=0, setups=1, sweep_batch=1,
        stream_rate=2.5, stream_gap_s=0.300, cycles=6,
    ),
}
