"""Open- and closed-loop load generators for ``StreamingServer`` on the host clock.

Both generators submit one chunk per submission and charge the whole
``StreamingServer.tick`` call (gather, step, scatter, head, tickets), not
only its ``exec_wall_s``. The open loop times every submission from the
moment it was *due*, so a submission that fell due while a tick was
running carries that wait in its latency; how late the generator admitted it
is reported apart as generator lateness.
"""

from __future__ import annotations

import heapq
import time
from dataclasses import dataclass, field

import numpy as np
from repro.errors import BackpressureError

from checks import Tally


@dataclass
class Session:
    """One streamed sequence: its id, tokens and what came back."""

    sid: str
    tokens: np.ndarray
    parts: list[np.ndarray] = field(default_factory=list)


@dataclass
class LoopStats:
    latencies_s: list[float] = field(default_factory=list)
    lateness_s: list[float] = field(default_factory=list)
    tick_s: list[float] = field(default_factory=list)
    exec_s: list[float] = field(default_factory=list)
    batch: list[int] = field(default_factory=list)
    queue_wait_s: list[float] = field(default_factory=list)
    tokens_offered: int = 0
    tokens_served: int = 0
    wall_s: float = 0.0
    #: Clock time covered, idle time skipped by the open loop included.
    clock_s: float = 0.0
    offered: dict[str, list[int]] = field(default_factory=dict)
    served: list[tuple[str, int, int]] = field(default_factory=list)
    #: Sessions whose every submission was made and served, in creation order.
    whole_sessions: list[Session] = field(default_factory=list)


class _LoadLoop:
    """Shared submit / tick / resolve bookkeeping of both loops."""

    def __init__(self, server, tally: Tally, chunk_len: int) -> None:
        self.server = server
        self.tally = tally
        self.chunk_len = chunk_len
        self.stats = LoopStats()
        self.t0 = time.perf_counter()
        self.skipped = 0.0
        self.served_before = server.stats.tokens_served
        # session id -> [(ticket, submission index, due time)] not yet resolved
        self.pending: dict[str, list] = {}
        self.sessions: dict[str, Session] = {}

    def now(self) -> float:
        return time.perf_counter() - self.t0 + self.skipped

    def skip_to(self, at: float) -> None:
        """Advance the clock over idle time without waiting it out."""
        self.skipped += max(0.0, at - self.now())

    def submit(self, session: Session, index: int, due: float) -> bool:
        chunk = session.tokens[index * self.chunk_len:(index + 1) * self.chunk_len]
        now = self.now()
        try:
            ticket = self.server.submit(session.sid, chunk, now=now)
        except BackpressureError:
            self.tally.op(False)  # shed: counts as failed
            return False
        self.tally.op(True)
        self.stats.lateness_s.append(now - due)
        self.stats.tokens_offered += int(chunk.shape[0])
        self.stats.offered.setdefault(session.sid, []).append(int(chunk.shape[0]))
        self.pending.setdefault(session.sid, []).append((ticket, index, due))
        self.sessions[session.sid] = session
        return True

    def tick(self) -> list[tuple[Session, int]]:
        """One whole tick; returns the (session, submission index) it finished."""
        start = self.now()
        report = self.server.tick(now=start)
        end = self.now()
        st = self.stats
        st.tick_s.append(end - start)
        st.exec_s.append(report.exec_wall_s)
        st.batch.append(report.batch)
        if report.batch:
            st.queue_wait_s.append(report.queue_wait_s / report.batch)
        finished = []
        for result in report.completed:
            waiting = self.pending[result.session_id]
            pos = next(i for i, item in enumerate(waiting) if item[0].result is result)
            _, index, due = waiting.pop(pos)
            st.latencies_s.append(end - due)
            st.served.append((result.session_id, index, result.n_tokens))
            session = self.sessions[result.session_id]
            session.parts.append(result.logits)
            finished.append((session, index))
        return finished

    def finish(self) -> LoopStats:
        self.stats.wall_s = time.perf_counter() - self.t0
        self.stats.clock_s = self.now()
        self.stats.tokens_served = self.server.stats.tokens_served - self.served_before
        return self.stats


def open_loop(server, new_session, rate: float, gap_s: float, budget_s: float,
              chunk_len: int, tally: Tally) -> tuple[LoopStats, list[Session]]:
    """Sessions arrive every ``1/rate`` s; each submits a chunk every ``gap_s``.

    Arrivals are generated until ``budget_s`` of host time has been spent,
    then the queue drains. When the server is idle the clock jumps to the
    next due time instead of sleeping: idle time changes no latency, and
    skipping it spends the budget on serving (and keeps sleep wake-up jitter
    out of the figures). Every tick, submit and bookkeeping step is charged
    at its measured host time.
    """
    gen = _LoadLoop(server, tally, chunk_len)
    due: list[tuple[float, int, int]] = []  # (due time, session index, submission)
    sessions: list[Session] = []
    started = time.perf_counter()
    while True:
        if time.perf_counter() - started < budget_s:
            # Keep every submission due before the next arrival queued.
            while not due or len(sessions) / rate <= due[0][0]:
                at = len(sessions) / rate
                sessions.append(new_session())
                for j in range(-(-sessions[-1].tokens.shape[0] // chunk_len)):
                    heapq.heappush(due, (at + j * gap_s, len(sessions) - 1, j))
        elif not due and not server.queue_depth:
            break
        now = gen.now()
        while due and due[0][0] <= now:
            at, i, j = heapq.heappop(due)
            gen.submit(sessions[i], j, at)
        if server.queue_depth:
            gen.tick()
        elif due:
            gen.skip_to(due[0][0])
    return gen.finish(), sessions


def closed_loop(server, new_session, clients: int, budget_s: float,
                chunk_len: int, tally: Tally) -> LoopStats:
    """``clients`` sessions always busy: a served chunk triggers the next.

    ``new_session()`` returns a fresh :class:`Session` whenever a client
    finishes one. Submissions stop after ``budget_s``; work in flight is
    then drained and counted.
    """
    gen = _LoadLoop(server, tally, chunk_len)
    created = [new_session() for _ in range(clients)]
    for session in created:
        gen.submit(session, 0, gen.now())
    while server.queue_depth:
        for session, index in gen.tick():
            if gen.now() >= budget_s:
                continue
            if (index + 1) * chunk_len < session.tokens.shape[0]:
                gen.submit(session, index + 1, gen.now())
            else:
                created.append(new_session())
                gen.submit(created[-1], 0, gen.now())
    stats = gen.finish()
    n_sub = -(-created[0].tokens.shape[0] // chunk_len)
    stats.whole_sessions = [s for s in created if len(s.parts) == n_sub]
    return stats
