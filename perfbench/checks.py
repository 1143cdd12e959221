"""Output checks shared by every phase.

Each check returns ``None`` when the output is right and a one-line reason
when it is wrong; :class:`Tally` counts them as operations. ``selftest.py``
feeds every check a deliberately wrong output and requires a rejection.
"""

from __future__ import annotations

import math
from collections import defaultdict

import numpy as np

#: Logit tolerance against the textbook oracle. The exact path runs one
#: GEMV per row where the oracle runs one GEMM per step, so the two agree
#: to rounding, not to the bit (measured max |delta| below 1e-13).
ORACLE_TOL = 1e-9
#: The paper's accuracy-loss budget (2 %, "imperceptible").
LOSS_BUDGET = 0.02
#: Significance of the agreement test: a mode whose true loss is at the
#: budget fails a run with at most this probability.
AGREEMENT_ALPHA = 1e-4


class Tally:
    """Attempted / failed counts of one phase, plus failed-check reasons."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.attempted = 0
        self.failed = 0
        self.check_failures: list[str] = []

    def op(self, ok: bool) -> None:
        """Count one operation (a batch, sweep point or submission)."""
        self.attempted += 1
        self.failed += 0 if ok else 1

    def check(self, name: str, reason: str | None) -> bool:
        """Count one check; a failing check also fails the run's ``correct``."""
        self.op(reason is None)
        if reason is not None:
            self.check_failures.append(f"{self.name}/{name}: {reason}")
        return reason is None


def batch_complete(logits: np.ndarray, batch: int, plans=None) -> str | None:
    """Every sequence of the batch came back (one logit row and one plan each)."""
    if logits.shape[0] != batch:
        return f"{logits.shape[0]} logit rows for a batch of {batch}"
    if plans is not None and len(plans) != batch:
        return f"{len(plans)} plans for a batch of {batch}"
    return None


def logits_close(expected: np.ndarray, got: np.ndarray, tol: float = ORACLE_TOL) -> str | None:
    """Same shape and every logit within ``tol`` (absolute and relative)."""
    if expected.shape != got.shape:
        return f"shape {got.shape}, expected {expected.shape}"
    if not np.all(np.isfinite(got)):
        return "non-finite logit"
    err = np.abs(got - expected)
    bad = err > tol * (1.0 + np.abs(expected))
    if np.any(bad):
        return f"{int(bad.sum())} logits off, max |delta| {float(err.max()):.3g}"
    return None


def logits_equal(expected: np.ndarray, got: np.ndarray) -> str | None:
    """Bit-identical logits."""
    if expected.shape != got.shape:
        return f"shape {got.shape}, expected {expected.shape}"
    if not np.array_equal(expected, got):
        diff = np.abs(got - expected)
        return f"{int(np.sum(diff != 0))} logits differ, max |delta| {float(np.nanmax(diff)):.3g}"
    return None


def all_finite(logits: np.ndarray) -> str | None:
    """No NaN or infinity."""
    if not np.all(np.isfinite(logits)):
        return f"{int(np.sum(~np.isfinite(logits)))} non-finite logits"
    return None


def binomial_tail(n: int, p: float, d: int) -> float:
    """``P(X >= d)`` for ``X ~ Binomial(n, p)``."""
    if d <= 0:
        return 1.0
    log_p, log_q = math.log(p), math.log1p(-p)
    total = 0.0
    for k in range(d, n + 1):
        total += math.exp(
            math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)
            + k * log_p + (n - k) * log_q
        )
    return total


def agreement_within_budget(disagree: int, total: int) -> str | None:
    """The approximate mode's loss is not shown to exceed the 2 % budget.

    A run sees tens (IMDB) to hundreds (MR, MT) of predictions, so a raw
    "agreement >= 98 % in this run" cut would fail correct runs by sampling
    alone (8 IMDB sequences: one flip is 12.5 %). The check rejects when
    ``disagree`` flips out of ``total`` would occur with probability below
    ``AGREEMENT_ALPHA`` for a mode whose true loss equals the budget.
    """
    if total <= 0:
        return "no predictions"
    tail = binomial_tail(total, LOSS_BUDGET, disagree)
    if tail < AGREEMENT_ALPHA:
        return (
            f"agreement {1 - disagree / total:.4f} ({disagree}/{total} flips) "
            f"exceeds the {LOSS_BUDGET:.0%} loss budget (p={tail:.2g})"
        )
    return None


def tissues_within_mts(plans, mts: int) -> str | None:
    """No executed tissue fuses more cells than the calibrated MTS."""
    for seq, plan in enumerate(plans):
        for rec in plan.layers:
            for tissue in rec.tissues:
                if len(tissue.cells) > mts:
                    return (
                        f"sequence {seq} layer {rec.layer_index}: tissue of "
                        f"{len(tissue.cells)} cells over MTS {mts}"
                    )
    return None


def weight_bytes_not_above(combined: float, baseline: float) -> str | None:
    """COMBINED models no more off-chip weight bytes per sequence than BASELINE."""
    if combined > baseline:
        return f"combined {combined:.0f} B/seq > baseline {baseline:.0f} B/seq"
    return None


def stream_log_ok(offered: dict[str, list[int]], served: list[tuple[str, int, int]]) -> str | None:
    """Every submission served once, in order within its session.

    Args:
        offered: Session id -> token count of each submission, in order.
        served: ``(session id, submission index, tokens)`` in completion order.
    """
    next_index: dict[str, int] = defaultdict(int)
    for session, index, n_tokens in served:
        sizes = offered.get(session)
        if sizes is None:
            return f"served unknown session {session!r}"
        if index != next_index[session]:
            return f"session {session!r}: served submission {index}, expected {next_index[session]}"
        if n_tokens != sizes[index]:
            return f"session {session!r} submission {index}: {n_tokens} tokens, offered {sizes[index]}"
        next_index[session] = index + 1
    for session, sizes in offered.items():
        if next_index[session] != len(sizes):
            return f"session {session!r}: {next_index[session]} of {len(sizes)} submissions served"
    return None


def tokens_conserved(offered: int, served: int) -> str | None:
    """The server's own count of tokens served equals the tokens offered."""
    if offered != served:
        return f"server served {served} tokens, {offered} offered"
    return None
