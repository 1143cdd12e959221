"""Self-tests of the checks: each must reject a deliberately wrong output.

Every benchmark run calls :func:`run_selftests` first and counts each case
as a check, so a check that stopped rejecting anything fails the run.
Standalone: ``python3 perfbench/selftest.py`` (exit 1 on a failure).
"""

from __future__ import annotations

import sys

import env  # noqa: F401  (BLAS pinning and import path; before numpy)
import numpy as np

import checks


def _plan(cells_per_tissue: list[int]):
    from repro.core.plan import LayerPlanRecord, SequencePlan, TissueRecord

    tissues, t = [], 0
    for size in cells_per_tissue:
        tissues.append(TissueRecord(cells=[(j, t) for j in range(size)]))
        t += 1
    record = LayerPlanRecord(layer_index=0, hidden_size=4, input_size=4,
                             seq_length=sum(cells_per_tissue), tissues=tissues)
    return SequencePlan(layers=[record])


def cases():
    """``(name, reason for the right output, reason for the wrong one)``."""
    rng = np.random.default_rng(0)
    logits = rng.normal(size=(4, 3))
    perturbed = logits.copy()
    perturbed[2, 1] += 1e-6
    with_nan = logits.copy()
    with_nan[0, 0] = np.nan
    offered = {"a": [4, 4, 2], "b": [4]}
    in_order = [("a", 0, 4), ("b", 0, 4), ("a", 1, 4), ("a", 2, 2)]
    twice = [("a", 0, 4), ("a", 0, 4), ("b", 0, 4), ("a", 1, 4), ("a", 2, 2)]
    swapped = [("a", 1, 4), ("a", 0, 4), ("b", 0, 4), ("a", 2, 2)]
    missing = [("a", 0, 4), ("a", 1, 4), ("a", 2, 2)]
    return [
        ("perturbed_logit/oracle",
         checks.logits_close(logits, logits + 1e-14), checks.logits_close(logits, perturbed)),
        ("perturbed_logit/equal",
         checks.logits_equal(logits, logits.copy()), checks.logits_equal(logits, perturbed)),
        ("non_finite", checks.all_finite(logits), checks.all_finite(with_nan)),
        ("chunk_twice",
         checks.stream_log_ok(offered, in_order), checks.stream_log_ok(offered, twice)),
        ("chunk_out_of_order",
         checks.stream_log_ok(offered, in_order), checks.stream_log_ok(offered, swapped)),
        ("submission_lost",
         checks.stream_log_ok(offered, in_order), checks.stream_log_ok(offered, missing)),
        ("tokens_duplicated", checks.tokens_conserved(14, 14), checks.tokens_conserved(14, 18)),
        ("tissue_over_mts",
         checks.tissues_within_mts([_plan([3, 2])], 3),
         checks.tissues_within_mts([_plan([3, 2]), _plan([4, 1])], 3)),
        ("sequence_dropped/batch",
         checks.batch_complete(logits, 4), checks.batch_complete(logits[:-1], 4)),
        ("sequence_dropped/oracle",
         checks.logits_close(logits, logits), checks.logits_close(logits, logits[:-1])),
        ("agreement_budget",
         checks.agreement_within_budget(3, 400), checks.agreement_within_budget(40, 400)),
        ("weight_bytes",
         checks.weight_bytes_not_above(1.0e6, 2.0e6), checks.weight_bytes_not_above(2.1e6, 2.0e6)),
    ]


def run_selftests(tally: checks.Tally) -> None:
    for name, right, wrong in cases():
        if right is not None:
            reason = f"rejected a right output: {right}"
        elif wrong is None:
            reason = "accepted a deliberately wrong output"
        else:
            reason = None
        tally.check(name, reason)


if __name__ == "__main__":
    tally = checks.Tally("selftest")
    run_selftests(tally)
    for line in tally.check_failures:
        print("FAIL", line)
    print(f"selftest: {tally.attempted - tally.failed}/{tally.attempted} checks behave")
    sys.exit(1 if tally.failed else 0)
