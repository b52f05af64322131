"""Distributed selection from unsorted input (Section 4.1, Algorithm 1).

The communication-efficient Floyd-Rivest variant: in every level of
recursion each PE draws a *Bernoulli* sample of its local slice with
probability ``sqrt(p) / n`` (no random data redistribution is needed --
Theorem 1's key observation), the union of samples (expected size
``sqrt(p)``) is shared and sorted, the two pivots around the target rank
are picked, and every PE partitions its slice into

    ``a < lo_pivot <= b <= hi_pivot < c``.

A two-word all-reduction yields the global part sizes and the recursion
continues in the part containing rank ``k``.  Only the local part
*sizes* are needed before that reduction, so every PE counts against
the pivots first and copies out just the surviving part afterwards.

Execution is resident-chunk SPMD: the slices stay pinned in the
backend's workers for the whole recursion.  Sampling draws *where the
data lives* from the counter-addressed rng (:mod:`repro.machine.ctrrng`
-- only a tiny draw address crosses the wire, never index sets or
generator state), the sample union rides an in-worker allgather, and
the count against the pivots runs in the same SPMD step with its
two-word result fused into the same round trip as an in-worker
all-reduction, followed by the copy of the one surviving part -- per
level, exactly one backend round trip and zero chunk movement.

Expected running time ``O(n/p + beta * min(sqrt(p) log_p n, n/p)
+ alpha * log n)`` (Theorem 1); for constant alpha/beta this is
``O(n/p + log p)`` (Corollary 2).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..common.validation import check_rank
from ..machine import DistArray, Machine

__all__ = ["select_kth", "select_topk_smallest", "select_topk_largest", "SelectionStats"]


@dataclass(frozen=True)
class SelectionStats:
    """Diagnostics of one distributed selection run."""

    value: float
    rounds: int
    sample_total: int
    base_case_size: int


# ----------------------------------------------------------------------
# Resident worker callbacks (module-level so real backends can ship them)
# ----------------------------------------------------------------------

def _selection_round_kernel(
    rank: int, chunk: np.ndarray, addr, level: int, rho: float, k: int, n: int
):
    """One full recursion level, executed where the chunk lives.

    SPMD generator: draw the Bernoulli(rho) sample *in the kernel* from
    the counter-addressed stream (``addr.local(rank, draw=level)`` --
    the same bits on every backend, with nothing but the tiny address on
    the wire), share it (in-worker allgather), pick the Floyd-Rivest
    pivots from the replicated union, count the local slice against them
    and combine the two-word part counts (in-worker allreduce) -- a
    single backend round trip per level; the slice itself never moves.
    The replicated totals decide which part holds rank ``k``, so only
    that part is copied out.

    Returns the surviving part chunk plus the small value tuple
    ``(sample_words, sample_total, lo_pivot, hi_pivot, na, nb,
    n_lo, n_mid)`` the driver re-plays the cost model from
    (``sample_total == 0`` flags an empty-sample level: the chunk comes
    back whole and no pivots exist; a rank inside a run of pivot
    duplicates returns an empty chunk, since the pivot is the answer).
    """
    from ..common.sampling import bernoulli_sample_indices
    from ..kernels import count3, take3
    from ..machine.metrics import payload_words
    from .sequential import fr_pivots

    idx = bernoulli_sample_indices(addr.local(rank, draw=level), int(chunk.size), rho)
    sample = chunk.copy() if idx is None else chunk[idx]
    gathered = yield ("allgather", sample)
    sample_words = payload_words(sample)
    nonempty = [s for s in gathered if s.size]
    if not nonempty:
        return chunk, (sample_words, 0, None, None, 0, 0, chunk.size, 0)
    union = np.sort(np.concatenate(nonempty))
    lo_p, hi_p = fr_pivots(union, k, n)

    n_lo, n_mid = count3(chunk, lo_p, hi_p)
    counts = np.array([n_lo, n_mid], dtype=np.int64)
    totals = yield ("allreduce", counts, "sum")
    na, nb = int(totals[0]), int(totals[1])
    vals = (sample_words, int(union.size), lo_p, hi_p, na, nb, n_lo, n_mid)
    if na >= k:
        return take3(chunk, lo_p, hi_p, 0, n_lo), vals
    if na + nb < k:
        return take3(chunk, lo_p, hi_p, 2, chunk.size - n_lo - n_mid), vals
    if lo_p == hi_p:
        return chunk[:0], vals
    return take3(chunk, lo_p, hi_p, 1, n_mid), vals


def _topk_cut_kernel(rank: int, chunk: np.ndarray, threshold, k: int):
    """Count + tie-grant + cut as ONE SPMD step (one backend round trip).

    The below/equal counts ride a fused in-worker ``allreduce_exscan``
    (exactly :meth:`Machine.tie_grant_prefix`'s schedule); each PE then
    grants its tie quota and cuts locally, so the selected elements
    never leave the worker.  Returns the cut chunk plus the small
    ``(below, equal, selected)`` count triple the driver re-plays the
    cost model from.
    """
    from ..kernels import topk_count, topk_cut

    n_below, n_eq = topk_count(chunk, threshold)
    counts = np.array([n_below, n_eq], dtype=np.int64)
    totals, prefix = yield (
        "allreduce_exscan", counts, "sum", np.zeros(2, dtype=np.int64)
    )
    quota = k - int(totals[0])
    keep_eq = min(max(quota - int(prefix[1]), 0), n_eq)
    sel = topk_cut(chunk, threshold, keep_eq)
    return sel, (n_below, n_eq, sel.size)


def select_kth(
    machine: Machine,
    data: DistArray,
    k: int,
    *,
    sample_factor: float = 1.0,
    base_case: int | None = None,
    max_rounds: int = 64,
    return_stats: bool = False,
):
    """The globally k-th smallest element (1-based rank) of ``data``.

    Parameters
    ----------
    machine:
        The machine ``data`` lives on.
    data:
        Distributed input; chunks need not be sorted or balanced.
    k:
        Target rank, ``1 <= k <= len(data)``.
    sample_factor:
        Multiplies the ``sqrt(p)/n`` Bernoulli rate (ablation knob).
    base_case:
        Remaining-size threshold below which the problem is gathered to
        PE 0 and finished sequentially.  Defaults to
        ``max(64, 4 * sqrt(p))``.
    max_rounds:
        Safety bound on recursion depth; reaching it triggers the exact
        gather fallback (cannot affect correctness, only cost).
    return_stats:
        If true, return :class:`SelectionStats` instead of the bare value.

    Returns
    -------
    The k-th smallest value (a Python scalar), or stats including it.
    """
    p = machine.p
    n0 = data.global_size
    k = check_rank(k, n0)
    if base_case is None:
        base_case = int(max(64, 4 * np.sqrt(p)))

    cur = data
    sizes = data.sizes()
    rounds = 0
    sample_total = 0
    # one draw address for the whole recursion; each level subdivides it
    # via its ``draw=level`` slot, so the number of levels (which varies
    # with the data) never perturbs any later caller's draws
    addr = machine.draw_addr()
    # One all-reduction establishes the global size; afterwards every PE
    # updates n locally from the part counts it already received, so the
    # recursion pays a single collective per level instead of two.
    n = int(machine.allreduce(list(sizes), op="sum")[0])
    while True:
        if n <= base_case or rounds >= max_rounds:
            value = _gather_base_case(machine, cur, k)
            if return_stats:
                return SelectionStats(value, rounds, sample_total, n)
            return value

        # Bernoulli sampling at rate sqrt(p)/n on every PE (Theorem 1).
        # The index draws happen where the data lives, addressed by
        # counter (:mod:`repro.machine.ctrrng`) -- the whole level
        # (sampling, the sample-union allgather (expected O(sqrt(p))
        # words per PE, O(alpha log p) startups; the "fast inefficient
        # sorting" of Section 2 sorts the replicated union locally),
        # pivot picking, the count against the pivots, the two-word count
        # all-reduction and the copy of the surviving part) runs inside
        # the workers as ONE SPMD step.
        rho = min(1.0, sample_factor * np.sqrt(p) / n)
        machine.charge_ops([max(1.0, rho * s) for s in sizes])
        (part_ref,), vals = machine.backend.run_spmd(
            _selection_round_kernel,
            [cur._ensure_ref()],
            n_out=1,
            args=[(addr, rounds, rho, k, n)] * p,
        )
        # re-play the model from the small returned values, in the same
        # order a step-by-step driver would have charged it
        machine._meter_allgather(words=[v[0] for v in vals])
        s_total = int(vals[0][1])
        if s_total == 0:
            cur = DistArray(machine, ref=part_ref, sizes=sizes, dtype=cur.dtype)
            rounds += 1
            continue
        machine.charge_ops(s_total * np.log2(max(s_total, 2)))
        sample_total += s_total
        machine.charge_ops(sizes.astype(np.float64))
        raw_counts = [
            np.array([v[6], v[7]], dtype=np.int64) for v in vals
        ]
        machine._meter_allreduce(raw_counts)
        n_lo = np.array([int(v[6]) for v in vals], dtype=np.int64)
        n_mid = np.array([int(v[7]) for v in vals], dtype=np.int64)
        lo_p, hi_p = vals[0][2], vals[0][3]
        na, nb = int(vals[0][4]), int(vals[0][5])

        if na >= k:
            cur = DistArray(machine, ref=part_ref, sizes=n_lo, dtype=cur.dtype)
            sizes = n_lo
            n = na
        elif na + nb < k:
            cur = DistArray(
                machine, ref=part_ref, sizes=sizes - n_lo - n_mid, dtype=cur.dtype
            )
            sizes = sizes - n_lo - n_mid
            k -= na + nb
            n = n - na - nb
        else:
            if lo_p == hi_p:
                # rank k falls inside a run of duplicates of the pivot
                value = lo_p.item() if hasattr(lo_p, "item") else lo_p
                if return_stats:
                    return SelectionStats(value, rounds + 1, sample_total, 0)
                return value
            cur = DistArray(machine, ref=part_ref, sizes=n_mid, dtype=cur.dtype)
            sizes = n_mid
            k -= na
            n = nb
        rounds += 1


def _gather_base_case(machine: Machine, data: DistArray, k: int):
    """Gather the residual problem to PE 0, solve it, broadcast the result."""
    gathered = machine.gather(data.chunks, root=0)[0]
    rest = np.concatenate([c for c in gathered if c.size])
    rest_sorted = np.sort(rest)
    machine.charge_ops_one(0, rest.size * np.log2(max(rest.size, 2)))
    value = rest_sorted[min(k, rest.size) - 1].item()
    return machine.broadcast(value, root=0)[0]


def select_topk_smallest(
    machine: Machine, data: DistArray, k: int, **kwargs
) -> tuple[DistArray, float]:
    """Extract the k globally smallest elements, exactly.

    Runs :func:`select_kth` to find the threshold, then finishes in a
    single SPMD step per Section 4's output convention: every PE counts
    its below/equal elements, the two-word counts ride one fused
    in-worker ``allreduce_exscan`` (total below + tie prefix), and each
    PE grants its remaining quota of threshold-equal duplicates in PE
    order and cuts locally -- so the output size is exactly ``k``
    regardless of ties, at the price of ONE backend round trip (the
    former count + tie-grant + cut sequence paid three).

    Returns ``(selected, threshold)``; ``selected`` stays distributed --
    possibly unevenly, which Section 9's redistribution can fix.
    """
    n = data.global_size
    k = check_rank(k, n)
    threshold = select_kth(machine, data, k, **kwargs)
    p = machine.p
    refs, vals = machine.backend.run_spmd(
        _topk_cut_kernel,
        [data._ensure_ref()],
        n_out=1,
        args=[(threshold, k)] * p,
    )
    # re-play the model: the local counting pass, then the fused
    # two-word collective (same charges the step-by-step driver made)
    machine.charge_ops(data.sizes().astype(np.float64))
    machine._meter_allreduce_exscan(2)
    out = DistArray(
        machine, ref=refs[0], sizes=[v[2] for v in vals], dtype=data.dtype
    )
    return out, threshold


def select_topk_largest(
    machine: Machine, data: DistArray, k: int, **kwargs
) -> tuple[DistArray, float]:
    """Extract the k globally largest elements, exactly (dual of
    :func:`select_topk_smallest` via negation -- performed where the
    chunks live)."""
    sel, thr = select_topk_smallest(machine, data.negate(), k, **kwargs)
    return sel.negate(), -thr
