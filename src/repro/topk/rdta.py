"""RDTA: distributed threshold algorithm for *randomly* distributed
objects (Section 6, "Random Data Distribution").

Because placement is independent of relevance, each PE holds at most
``k_hat = O(k/p + log p)`` of the global top-k with high probability
(balls-into-bins [30]).  Each PE therefore runs sequential TA locally to
produce ``k_hat`` candidates and a local threshold; the global threshold
is the max of the local ones, and if at least ``k`` candidates score
above it, the top-k among the candidates is found with the unsorted
selection algorithm.  Otherwise ``k_hat`` doubles and the scan resumes
-- PEs whose local threshold is already below the current k-th best
relevance may sit out the extra scanning.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..machine import DistArray, Machine
from ..selection.unsorted import select_topk_largest
from .index import LocalIndex
from .scoring import ScoringFunction
from .threshold import ta_topk

__all__ = ["rdta_topk", "RDTAResult"]


@dataclass(frozen=True)
class RDTAResult:
    """Output of RDTA.

    ``items`` is the exact global top-k (id, relevance), best first;
    ``rounds`` counts threshold-verification rounds (each one local-TA
    pass + O(1) collectives); ``k_hat_final`` is the per-PE candidate
    budget that sufficed.
    """

    items: tuple[tuple[int, float], ...]
    rounds: int
    k_hat_final: int


def rdta_topk(
    machine: Machine,
    indexes: list[LocalIndex],
    scorer: ScoringFunction,
    k: int,
    *,
    slack: float = 2.0,
    max_rounds: int = 30,
) -> RDTAResult:
    """Global top-k for randomly distributed objects.

    Parameters
    ----------
    indexes:
        One :class:`LocalIndex` per PE (objects placed independently of
        relevance -- RDTA's correctness requirement; for adversarial
        placement use :func:`repro.topk.dta.dta_topk`).
    slack:
        Multiplier on the balls-into-bins bound ``k/p + log p`` for the
        initial per-PE candidate budget.
    """
    p = machine.p
    if len(indexes) != p:
        raise ValueError(f"need one index per PE (p={p}, got {len(indexes)})")
    n_total = int(machine.allreduce([ix.n for ix in indexes], op="sum")[0])
    if not 1 <= k <= n_total:
        raise ValueError(f"k must satisfy 1 <= k <= {n_total}, got {k}")

    k_hat = max(1, int(np.ceil(slack * (k / p + np.log2(p + 1)))))
    rounds = 0
    while True:
        rounds += 1
        # local TA pass on every PE: k_hat candidates + local threshold
        local_results = []
        for i in range(p):
            res = ta_topk(indexes[i], scorer, min(k_hat, max(indexes[i].n, 1)))
            # scanning cost: K rows in m lists plus random accesses
            machine.charge_ops_one(
                i,
                max(1.0, res.scan_depth * indexes[i].m * scorer.ops_per_eval),
            )
            local_results.append(res)

        # global threshold: max over local TA thresholds; a PE that ran
        # out of objects cannot hide better ones (its threshold is -inf)
        local_thr = [
            r.threshold if ix.n > len(r.items) else float("-inf")
            for r, ix in zip(local_results, indexes)
        ]
        global_thr = float(machine.allreduce(local_thr, op="max")[0])

        above = [
            sum(1 for (_, rel) in r.items if rel >= global_thr) for r in local_results
        ]
        n_above = int(machine.allreduce(above, op="sum")[0])
        if n_above >= k or k_hat >= n_total:
            # verify: the k best candidates all dominate the threshold,
            # so no unscanned object can displace them
            cand_scores = DistArray(
                machine,
                [
                    np.array([rel for (_, rel) in r.items], dtype=np.float64)
                    for r in local_results
                ],
            )
            sel, thr = select_topk_largest(machine, cand_scores, k)
            items = _materialize(machine, local_results, sel, thr, k)
            return RDTAResult(tuple(items), rounds, k_hat)
        if rounds >= max_rounds:
            raise RuntimeError(
                "RDTA failed to verify a threshold; data placement is "
                "likely adversarial -- use dta_topk instead"
            )
        k_hat *= 2


def _materialize(machine, local_results, sel, thr, k):
    """Collect the winning (id, relevance) pairs on all PEs."""
    del sel  # the threshold suffices; the selected array stays distributed
    per_pe = []
    for r in local_results:
        mine = [(oid, rel) for (oid, rel) in r.items if rel > thr]
        ties = [(oid, rel) for (oid, rel) in r.items if rel == thr]
        per_pe.append((mine, ties))
    # grant threshold ties in PE order to hit exactly k
    # fused: strict-winner total and tie prefix share one schedule
    quota, tie_before = machine.tie_grant_prefix(
        [len(m_) for m_, _ in per_pe], [len(t) for _, t in per_pe], k
    )
    out_per_pe = []
    for i, (mine, ties) in enumerate(per_pe):
        grant = int(min(max(quota - tie_before[i], 0), len(ties)))
        out_per_pe.append(mine + ties[:grant])
    gathered = machine.allgather(out_per_pe)[0]
    items = [item for piece in gathered for item in piece]
    items.sort(key=lambda t: (-t[1], t[0]))
    return items[:k]
