"""Multisequence selection from locally sorted input (Appendix A, Alg. 9).

Each PE holds a locally *sorted* sequence; we must find the globally
k-th smallest element.  The algorithm is distributed quickselect:

1. pick a global element uniformly at random as pivot ``v`` (the same
   random rank is drawn on every PE from the synchronized stream; a
   prefix sum over window sizes locates its owner, which shares ``v``),
2. every PE finds its split position by *binary search* (sortedness
   replaces the linear partition of unsorted quickselect),
3. a sum-reduction of the split positions decides the recursion side.

Expected ``O((alpha log p + log min(n/p, k)) * log min(kp, n))``, i.e.
``O(alpha log^2 kp)`` (Theorem 16).  The search can be restricted to the
first ``k`` elements of every local sequence.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..common.ordering import TOP
from ..common.validation import check_rank
from ..machine import Machine
from .accessors import SortedSequence, as_sorted_seq

__all__ = ["ms_select", "ms_select_with_cuts", "MsSelectStats"]


@dataclass(frozen=True)
class MsSelectStats:
    """Diagnostics of one msSelect run (latency is rounds-dominated)."""

    value: object
    rounds: int
    comm_rounds: int


def ms_select(
    machine: Machine,
    seqs,
    k: int,
    *,
    base_case: int = 64,
    max_rounds: int = 200,
    return_stats: bool = False,
):
    """Globally k-th smallest element of ``p`` locally sorted sequences.

    Parameters
    ----------
    seqs:
        One :class:`SortedSequence` (or ascending ``np.ndarray``) per PE.
    k:
        Target rank, 1-based.
    base_case:
        Remaining window size below which PE 0 finishes sequentially.
    """
    seqs = [as_sorted_seq(s) for s in seqs]
    if len(seqs) != machine.p:
        raise ValueError(f"need one sequence per PE (p={machine.p}, got {len(seqs)})")
    n = int(machine.allreduce([len(s) for s in seqs], op="sum")[0])
    k = check_rank(k, n)

    # windows of global candidate ranks per PE; restrict to first k
    lo = [0] * machine.p
    hi = [min(len(s), k) for s in seqs]
    rounds = 0
    comm_rounds = 1  # the size all-reduce above
    # replicated pivot draws from one counter-addressed stream per call
    shared = machine.draw_addr().shared()

    while True:
        sizes = [hi[i] - lo[i] for i in range(machine.p)]
        total = sum(sizes)  # driver-side mirror of the tracked windows
        if total <= max(base_case, 1) or rounds >= max_rounds:
            value = _sorted_base_case(machine, seqs, lo, hi, k)
            comm_rounds += 2
            if return_stats:
                return MsSelectStats(value, rounds, comm_rounds)
            return value

        # ------------------------------------------------------------
        # Pivot: the g-th element of the remaining windows, g uniform.
        # The draw is replicated (counter-addressed shared stream); the
        # prefix sum over window sizes identifies the owner PE, which
        # broadcasts v.
        # ------------------------------------------------------------
        g = int(shared.integers(total))
        offsets = machine.exscan(sizes, op="sum")
        candidates = []
        for i in range(machine.p):
            if offsets[i] <= g < offsets[i] + sizes[i]:
                v_local = seqs[i].item(lo[i] + (g - offsets[i]))
                machine.charge_ops_one(i, np.log2(max(sizes[i], 2)))
                candidates.append(v_local)
            else:
                candidates.append(TOP)
        v = machine.allreduce(candidates, op="min")[0]
        comm_rounds += 2

        # ------------------------------------------------------------
        # Binary-search split of every window at v: j = #(< v), e = #(== v)
        # ------------------------------------------------------------
        j = np.zeros(machine.p, dtype=np.int64)
        e = np.zeros(machine.p, dtype=np.int64)
        for i in range(machine.p):
            le = int(min(max(seqs[i].count_le(v), lo[i]), hi[i])) - lo[i]
            # count strictly-below via <=-count of the predecessor probe:
            # for floats we can search with side='left' semantics through
            # count_le on a slightly smaller probe; do it exactly instead:
            lt = _count_lt(seqs[i], v, lo[i], hi[i])
            j[i] = lt
            e[i] = le - lt
            machine.charge_ops_one(i, np.log2(max(sizes[i], 2)))
        counts = machine.allreduce(
            [np.array([j[i], e[i]], dtype=np.int64) for i in range(machine.p)], op="sum"
        )[0]
        n_lt, n_eq = int(counts[0]), int(counts[1])
        comm_rounds += 1

        if n_lt >= k:
            hi = [lo[i] + int(j[i]) for i in range(machine.p)]
        elif n_lt + n_eq >= k:
            if return_stats:
                return MsSelectStats(v, rounds + 1, comm_rounds)
            return v
        else:
            lo = [lo[i] + int(j[i] + e[i]) for i in range(machine.p)]
            k -= n_lt + n_eq
        rounds += 1


def _count_lt(seq: SortedSequence, v, lo: int, hi: int) -> int:
    """Elements strictly below ``v`` inside window ``[lo, hi)``."""
    arr = getattr(seq, "arr", None)
    if arr is not None:
        return int(min(max(np.searchsorted(arr, v, side="left"), lo), hi)) - lo
    # generic adapter: binary search on item() for the left boundary
    a, b = lo, hi
    while a < b:
        m = (a + b) // 2
        if seq.item(m) < v:
            a = m + 1
        else:
            b = m
    return a - lo


def _sorted_base_case(machine: Machine, seqs, lo, hi, k: int):
    """Gather the residual windows on PE 0 and finish sequentially.

    Implemented over Python lists so it also works for tuple-valued keys
    (the bulk priority queue selects over ``(score, uid)`` pairs).
    """
    windows = []
    for i in range(machine.p):
        w = [seqs[i].item(x) for x in range(lo[i], hi[i])]
        windows.append(w)
        machine.charge_ops_one(i, max(1, hi[i] - lo[i]))
    gathered = machine.gather(windows, root=0)[0]
    rest = sorted(x for w in gathered for x in w)
    machine.charge_ops_one(0, len(rest) * np.log2(max(len(rest), 2)))
    value = rest[min(k, len(rest)) - 1]
    value = value.item() if hasattr(value, "item") else value
    return machine.broadcast(value, root=0)[0]


# ----------------------------------------------------------------------
# SPMD generator form (resident execution inside backend workers)
# ----------------------------------------------------------------------
#
# The bulk priority queues keep their search trees resident in the
# execution backend; their rank selection therefore runs *where the
# trees live* as one generator SPMD step (``Backend.run_spmd``).  The
# generators below mirror the driver algorithms above collective for
# collective, but each rank sees only its own sequence; embedded
# collectives are ``yield``ed, randomness comes from counter-addressed
# streams the calling kernel derives in place
# (:mod:`repro.machine.ctrrng` -- no state crosses the wire), and every
# charge the driver version would have made is appended to ``log`` for
# :meth:`Machine.replay_charges`.

def ms_select_gen(rank, p, seq, k, shared_rng, log, *, base_case=64, max_rounds=200):
    """SPMD generator: globally k-th smallest over per-rank sorted views.

    ``seq`` is this rank's :class:`SortedSequence`-style view;
    ``shared_rng`` a replicated generator the caller derives from a
    counter draw address (``addr.shared(...)`` -- every rank constructs
    the identical stream).  Yields SPMD collectives and returns
    ``(value, rounds)``.
    """
    from ..machine.metrics import payload_words

    totals = yield ("allreduce", len(seq), "sum")
    log.append(("allreduce", 1))
    n = int(totals)
    k = check_rank(k, n)

    lo, hi = 0, min(len(seq), k)
    rounds = 0
    while True:
        size = hi - lo
        total, offset = yield ("allreduce_exscan", size, "sum", 0)
        log.append(("allreduce_exscan", 1))
        if total <= max(base_case, 1) or rounds >= max_rounds:
            window = [seq.item(x) for x in range(lo, hi)]
            log.append(("ops", max(1, size)))
            gathered = yield ("allgather", window)
            log.append(("allgather", payload_words(window)))
            rest = sorted(x for w in gathered for x in w)
            log.append(("ops", len(rest) * np.log2(max(len(rest), 2))))
            value = rest[min(k, len(rest)) - 1]
            value = value.item() if hasattr(value, "item") else value
            return value, rounds

        # pivot: the g-th element of the remaining windows, g replicated
        g = int(shared_rng.integers(total))
        if offset <= g < offset + size:
            candidate = seq.item(lo + (g - offset))
            log.append(("ops", np.log2(max(size, 2))))
        else:
            candidate = TOP
            log.append(("ops", 0.0))
        v = yield ("allreduce", candidate, "min")
        log.append(("allreduce", payload_words(candidate)))

        le = int(min(max(seq.count_le(v), lo), hi)) - lo
        lt = _count_lt(seq, v, lo, hi)
        log.append(("ops", np.log2(max(size, 2))))
        counts = yield (
            "allreduce", np.array([lt, le - lt], dtype=np.int64), "sum"
        )
        log.append(("allreduce", 2))
        n_lt, n_eq = int(counts[0]), int(counts[1])

        if n_lt >= k:
            hi = lo + lt
        elif n_lt + n_eq >= k:
            return v, rounds + 1
        else:
            lo = lo + lt + (le - lt)
            k -= n_lt + n_eq
        rounds += 1


def ms_select_with_cuts_gen(rank, p, seq, k, shared_rng, log, **kwargs):
    """SPMD generator: k-th smallest plus this rank's exact cut.

    Mirrors :func:`ms_select_with_cuts` -- the tie quota is granted in
    PE order through one fused in-worker ``allreduce_exscan``.  Returns
    ``(value, cut, rounds)`` with ``sum(cut) == k`` across ranks.
    """
    value, rounds = yield from ms_select_gen(
        rank, p, seq, k, shared_rng, log, **kwargs
    )
    n_le = seq.count_le(value)
    n_lt = _count_lt(seq, value, 0, len(seq))
    eq = n_le - n_lt
    log.append(("ops", np.log2(max(len(seq), 2))))
    totals, prefix = yield (
        "allreduce_exscan",
        np.array([n_lt, eq], dtype=np.int64),
        "sum",
        np.zeros(2, dtype=np.int64),
    )
    log.append(("allreduce_exscan", 2))
    quota = k - int(totals[0])
    keep_eq = int(min(max(quota - int(prefix[1]), 0), eq))
    return value, n_lt + keep_eq, rounds


def ms_select_with_cuts(
    machine: Machine, seqs, k: int, **kwargs
) -> tuple[object, list[int]]:
    """k-th smallest plus exact per-PE selection counts.

    Returns ``(value, cuts)`` where ``cuts[i]`` is the number of elements
    PE ``i`` contributes to the global k smallest; ``sum(cuts) == k``
    exactly (duplicate thresshold elements are granted in PE order via a
    prefix sum, as in Section 4's output convention).
    """
    seqs = [as_sorted_seq(s) for s in seqs]
    value = ms_select(machine, seqs, k, **kwargs)
    lt = []
    eq = []
    for i in range(machine.p):
        n_le = seqs[i].count_le(value)
        n_lt = _count_lt(seqs[i], value, 0, len(seqs[i]))
        lt.append(n_lt)
        eq.append(n_le - n_lt)
        machine.charge_ops_one(i, np.log2(max(len(seqs[i]), 2)))
    # fused: strict-below total and tie prefix share one schedule
    quota, eq_before = machine.tie_grant_prefix(lt, eq, k)
    cuts = []
    for i in range(machine.p):
        keep_eq = int(min(max(quota - eq_before[i], 0), eq[i]))
        cuts.append(lt[i] + keep_eq)
    return value, cuts
