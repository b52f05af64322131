"""DTA: distributed threshold algorithm for *arbitrary* data
distribution (Section 6, Algorithm 3).

DTA guesses the sequential TA's scan depth ``K`` by exponential search.
Per round:

1. For every criterion ``c``, the flexible selection algorithm
   (``amsSelect``, Section 4.3) finds the globally ``~K``-th largest
   list score ``x_c`` and thereby the global list prefix
   ``L'_c = {o : score_c(o) >= x_c}`` (its local part on every PE).
2. The threshold ``tmin = t(x_1, .., x_m)`` bounds every object outside
   all prefixes (monotonicity).
3. The number of *hits* (prefix objects with relevance >= tmin) is
   estimated by sampling ``y = O(log K)`` prefix entries per list and
   PE.  An object sampled from list ``c`` that also appears in an
   earlier list's prefix is *rejected* (counted in ``R``) to kill
   duplicate bias; ``l_c = |L'_c| (1 - R/y) (H/y)`` is then a truthful
   per-(PE, list) hit estimate, and one reduction sums them.
4. If the estimate reaches ``2k``, at least ``k`` hits exist whp and the
   search stops; otherwise ``K`` doubles.

Expected time ``O(m^2 log^2 K + beta m log K + alpha log p log K)``
(Theorem 6).  :func:`dta_topk` materializes the hits and runs exact
distributed selection on their relevances, verifying (and if needed
growing ``K``) until the output provably contains the true top-k.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..machine import DistArray, Machine
from ..selection.accessors import ArraySeq
from ..selection.flexible import ams_select
from ..selection.unsorted import select_topk_largest
from .index import LocalIndex
from .scoring import ScoringFunction

__all__ = ["dta_prefixes", "dta_topk", "DTAPrefixes", "DTAResult"]


@dataclass(frozen=True)
class DTAPrefixes:
    """Round-1 output of DTA (Algorithm 3's return value).

    Attributes
    ----------
    tmin:
        The threshold ``t(x_1, ..., x_m)``.
    xs:
        Per-criterion minimum selected score.
    prefix_sizes:
        ``prefix_sizes[i][c]`` -- local length of ``L'_c`` on PE ``i``.
    scanned:
        Final guess ``K`` (approximates TA's scan depth).
    rounds:
        Exponential-search rounds executed.
    hit_estimate:
        The sampling-based estimate of the number of hits.
    """

    tmin: float
    xs: tuple[float, ...]
    prefix_sizes: tuple[tuple[int, ...], ...]
    scanned: int
    rounds: int
    hit_estimate: float


@dataclass(frozen=True)
class DTAResult:
    """Final output of :func:`dta_topk`."""

    items: tuple[tuple[int, float], ...]
    prefixes: DTAPrefixes
    exact: bool


def dta_prefixes(
    machine: Machine,
    indexes: list[LocalIndex],
    scorer: ScoringFunction,
    k: int,
    *,
    k_start: int | None = None,
    y_samples: int | None = None,
    hit_target_factor: float = 2.0,
    max_rounds: int = 40,
    probes: int = 1,
) -> DTAPrefixes:
    """Run Algorithm 3's exponential search and return the prefixes.

    ``probes > 1`` enables the Section 6 refinement ("we can further
    reduce the latency of DTA by trying several values of K in each
    iteration"): each round evaluates the geometric ladder
    ``K, 2K, ..., 2^(probes-1) K`` and keeps the smallest sufficient
    one, dividing the expected round count by ``probes`` at the price of
    proportionally more (cheap, prefix-only) work per round.
    """
    p = machine.p
    if len(indexes) != p:
        raise ValueError(f"need one index per PE (p={p}, got {len(indexes)})")
    if probes < 1:
        raise ValueError(f"probes must be >= 1, got {probes}")
    m = indexes[0].m
    if any(ix.m != m for ix in indexes):
        raise ValueError("all PEs must index the same criteria")
    n_total = int(machine.allreduce([ix.n for ix in indexes], op="sum")[0])
    if not 1 <= k <= n_total:
        raise ValueError(f"k must satisfy 1 <= k <= {n_total}, got {k}")

    K = k_start if k_start is not None else max(1, int(np.ceil(k / (m * p))))
    rounds = 0
    while True:
        rounds += 1
        best = None
        for j in range(probes):
            K_probe = min(K * (2**j), n_total) if K * (2**j) <= n_total else n_total
            xs, cuts = _select_prefixes(machine, indexes, K_probe, n_total)
            tmin = scorer(np.asarray(xs))
            y = (
                y_samples
                if y_samples is not None
                else max(16, int(8 * np.log2(K_probe + 2)))
            )
            estimate = _estimate_hits(machine, indexes, scorer, xs, cuts, tmin, y)
            best = (K_probe, xs, cuts, tmin, estimate)
            if estimate >= hit_target_factor * k or K_probe >= n_total:
                break
        K_used, xs, cuts, tmin, estimate = best
        if (
            estimate >= hit_target_factor * k
            or K_used >= n_total
            or rounds >= max_rounds
        ):
            return DTAPrefixes(
                tmin=float(tmin),
                xs=tuple(xs),
                prefix_sizes=tuple(tuple(row) for row in cuts),
                scanned=K_used,
                rounds=rounds,
                hit_estimate=float(estimate),
            )
        K = K_used * 2


def _select_prefixes(machine, indexes, K, n_total):
    """amsSelect per criterion: threshold ``x_c`` and per-PE prefix cuts."""
    p = machine.p
    m = indexes[0].m
    xs = []
    cuts = [[0] * m for _ in range(p)]
    k_lo = min(K, n_total)
    k_hi = min(2 * K, n_total)
    for c in range(m):
        # descending list scores, negated to match amsSelect's ascending
        # "k smallest" convention
        seqs = [ArraySeq(-indexes[i].scores_desc(c)) for i in range(p)]
        res = ams_select(machine, seqs, k_lo, k_hi)
        xs.append(-float(res.value))
        for i in range(p):
            cuts[i][c] = int(res.cuts[i])
    return xs, cuts


def _estimate_hits(machine, indexes, scorer, xs, cuts, tmin, y):
    """Sampling-based truthful estimator of the global hit count."""
    p = machine.p
    m = indexes[0].m
    per_pe_estimate = []
    addr = machine.draw_addr()  # counter-addressed estimator draws
    gens = [addr.local(i) for i in range(p)]
    for i in range(p):
        ix = indexes[i]
        prefix_rows = [set(map(int, ix.prefix_rows(c, cuts[i][c]))) for c in range(m)]
        total = 0.0
        ops = 0.0
        for c in range(m):
            size = cuts[i][c]
            if size == 0:
                continue
            rows = ix.prefix_rows(c, size)
            picks = gens[i].integers(0, size, size=y)
            rejected = 0
            hits = 0
            for t in picks:
                row = int(rows[t])
                if any(row in prefix_rows[j] for j in range(c)):
                    rejected += 1  # counted by an earlier list
                elif scorer(ix.scores[row]) >= tmin:
                    hits += 1
            ops += y * (c + scorer.ops_per_eval)
            total += size * (1.0 - rejected / y) * (hits / y)
        machine.charge_ops_one(i, max(1.0, ops))
        per_pe_estimate.append(total)
    return float(machine.allreduce(per_pe_estimate, op="sum")[0])


def dta_topk(
    machine: Machine,
    indexes: list[LocalIndex],
    scorer: ScoringFunction,
    k: int,
    *,
    max_growth: int = 20,
    **prefix_kwargs,
) -> DTAResult:
    """Exact global top-k under arbitrary data distribution.

    Runs :func:`dta_prefixes`, materializes the hits (prefix objects
    with relevance above the threshold -- local work only, the phase the
    paper notes may be imbalanced), and selects the top-k among them
    with the unsorted selection algorithm.  If the materialized hits
    cannot yet certify the top-k (fewer than ``k`` strict hits), the
    scan depth is doubled and the prefixes recomputed -- the same
    exponential search, now driven by exact counts.
    """
    pre = dta_prefixes(machine, indexes, scorer, k, **prefix_kwargs)
    n_total = int(machine.allreduce([ix.n for ix in indexes], op="sum")[0])
    growth = 0
    while True:
        hits_per_pe = _materialize_hits(machine, indexes, scorer, pre)
        n_hits = int(machine.allreduce([len(h) for h in hits_per_pe], op="sum")[0])
        if n_hits >= k or pre.scanned >= n_total or growth >= max_growth:
            break
        growth += 1
        pre = dta_prefixes(
            machine, indexes, scorer, k,
            k_start=pre.scanned * 2, **prefix_kwargs,
        )

    exact = n_hits >= k
    k_eff = min(k, n_hits)
    rel_chunks = DistArray(
        machine,
        [np.array([rel for (_, rel) in h], dtype=np.float64) for h in hits_per_pe],
    )
    if k_eff == 0:
        return DTAResult((), pre, False)
    sel, thr = select_topk_largest(machine, rel_chunks, k_eff)
    items = _collect_winners(machine, hits_per_pe, thr, k_eff)
    return DTAResult(tuple(items), pre, exact)


def _materialize_hits(machine, indexes, scorer, pre: DTAPrefixes):
    """Per-PE scan of the prefix union: objects with ``t(o) >= tmin``.

    This is the single local-computation phase whose imbalance the paper
    accepts (worst case: all hits on one PE); its cost is charged to the
    owning PEs and therefore shows up in the modeled makespan.
    """
    p = machine.p
    m = indexes[0].m
    out = []
    for i in range(p):
        ix = indexes[i]
        rows: set[int] = set()
        for c in range(m):
            rows.update(map(int, ix.prefix_rows(c, pre.prefix_sizes[i][c])))
        hits = []
        for row in rows:
            rel = scorer(ix.scores[row])
            if rel >= pre.tmin:
                hits.append((int(ix.ids[row]), float(rel)))
        machine.charge_ops_one(i, max(1.0, len(rows) * scorer.ops_per_eval))
        out.append(hits)
    return out


def _collect_winners(machine, hits_per_pe, thr, k):
    """Exact-k extraction with PE-ordered tie granting, then allgather."""
    strict = [[(o, r) for (o, r) in h if r > thr] for h in hits_per_pe]
    ties = [[(o, r) for (o, r) in h if r == thr] for h in hits_per_pe]
    # fused: strict-winner total and tie prefix share one schedule
    quota, tie_before = machine.tie_grant_prefix(
        [len(s) for s in strict], [len(t) for t in ties], k
    )
    winners_per_pe = []
    for i in range(machine.p):
        grant = int(min(max(quota - tie_before[i], 0), len(ties[i])))
        winners_per_pe.append(strict[i] + ties[i][:grant])
    gathered = machine.allgather(winners_per_pe)[0]
    items = [item for piece in gathered for item in piece]
    items.sort(key=lambda t: (-t[1], t[0]))
    return items[:k]
