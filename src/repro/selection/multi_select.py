"""Distributed multiselection: many ranks in one pass.

A natural library extension of Section 4.1 (the sequential analogue is
classic multiselection, cf. the multisequence selection literature the
paper cites [35, 38]): given ranks ``k_1 < ... < k_m``, find all m order
statistics.  Running Algorithm 1 independently m times costs
``O(m n/p)`` local work; sharing the partitioning between ranks brings
it down to ``O(n/p log m)`` -- each recursion level splits both the data
*and* the rank set, so every element takes part in at most
``O(log m + log_p n)`` partitioning rounds.

Execution is resident-chunk SPMD with *cross-level pipelining*: every
PE keeps a list of segment records pinned in the backend, and one level
of the shared recursion is TWO pipelined worker commands:

* the **sample-extract half** draws each split segment's Bernoulli
  sample where the data lives (counter-addressed randomness,
  :mod:`repro.machine.ctrrng` -- the driver ships a tiny draw address,
  never index arrays or generator state) and fuses every segment's
  sample (plus finishing segments' residual content) into one
  in-worker allgather;
* the **partition-count half** fuses all split segments' two-word part
  counts (taken against the pivots in the sample half, before any
  copy) into one in-worker all-reduction and -- because the reduced
  counts are replicated -- derives the *next* level's segment records
  entirely worker-side, copying out only the parts that still hold
  target ranks.

Since the next level's inputs exist in the workers as soon as the count
half runs, the driver does not need any level's results to issue the
next one: it issues levels ahead (up to the machine's
``pipeline_depth``), and consecutive recursion levels overlap in the
pipe (``max_inflight > 1`` across levels).  Only small per-level values
(sample word counts, finished values, charge metadata) return to the
driver, which settles them in issue order to keep the modeled cost
bit-identical at every depth; levels issued past the recursion's actual
end see an empty segment list and charge nothing.

:func:`quantiles` exposes the everyday use case (percentiles /
histogram boundaries of a distributed vector).
"""

from __future__ import annotations

import numpy as np

from ..common.sampling import bernoulli_sample_indices
from ..kernels import count3, take3
from ..machine import DistArray, Machine
from .sequential import fr_pivots

__all__ = ["multi_select", "quantiles"]


# ----------------------------------------------------------------------
# Resident worker kernels (module-level so real backends can ship them)
# ----------------------------------------------------------------------
#
# Resident segment record, one list entry per active segment:
#     (arr, ranks, offset, n)
# where ``arr`` is this PE's slice, ``ranks`` the target ranks relative
# to the segment, ``offset`` the segment's global rank offset and ``n``
# its global size (replicated -- every PE derives the identical record
# list from the all-reduced part counts, which is what lets the driver
# issue the next level before this one settles).


def _wrap_ms_state(rank: int, chunk: np.ndarray, ks: tuple, n_total: int):
    """Initial resident state: one root segment per PE."""
    return [(np.asarray(chunk), ks, 0, n_total)], None


def _ms_sample_kernel(rank: int, segs: list, p: int, addr, level: int,
                      base_case: int, force: bool):
    """Sample-extract half of one recursion level.

    Draws each split segment's Bernoulli sample indices in place with
    the counter-addressed generator ``addr.local(rank, draw=level)``
    (the whole multiselection owns one draw sequence; the level index
    subdivides it, so speculative levels never perturb the machine's
    address stream).  All samples -- and finishing segments' full
    residual content -- ride ONE in-worker allgather; pivots are computed
    replicated, each split segment's slice is counted against them, and
    the slice, counts and pivots are handed to the count half through
    resident state (no part is copied yet).

    Returns per-PE ``(sample_words, finishes, meta)`` where
    ``finishes`` is the replicated list of resolved ``(global_rank,
    value)`` pairs and ``meta`` carries one charge record per segment:
    ``("finish", rest_size)`` / ``("empty", local_size, rho)`` /
    ``("split", union_size, local_size, rho)``.
    """
    if not segs:
        # speculatively issued past the recursion's end: a pure no-op
        # (replicated decision -- every rank skips the collective)
        return [], (0, [], [])
    gen = addr.local(rank, draw=level)
    plans: list[tuple] = []
    samples: list[np.ndarray] = []
    for arr, ranks, offset, n in segs:
        if n <= base_case or force:
            plans.append(("finish", None))
            samples.append(arr)  # residual content is small by now
        else:
            rho = min(1.0, np.sqrt(p) / n)
            idx = bernoulli_sample_indices(gen, int(arr.size), rho)
            plans.append(("split", rho))
            samples.append(arr.copy() if idx is None else arr[idx])
    sample_words = int(sum(s.size for s in samples))
    gathered = yield ("allgather", samples)

    inter: list = []
    finishes: list[tuple] = []
    meta: list[tuple] = []
    for s, (arr, ranks, offset, n) in enumerate(segs):
        contrib = [g[s] for g in gathered if g[s].size]
        kind, rho = plans[s]
        if kind == "finish":
            rest = np.sort(np.concatenate(contrib)) if contrib else arr[:0]
            for k in ranks:
                finishes.append(
                    (offset + k, rest[min(k, rest.size) - 1].item())
                )
            inter.append(None)
            meta.append(("finish", int(rest.size)))
            continue
        if not contrib:  # empty sample union: retry the segment
            inter.append(("retry", arr, ranks, offset, n))
            meta.append(("empty", int(arr.size), float(rho)))
            continue
        mid_rank = ranks[len(ranks) // 2]
        union = np.sort(np.concatenate(contrib))
        lo_p, hi_p = fr_pivots(union, mid_rank, n)
        inter.append(
            ("split", arr, count3(arr, lo_p, hi_p), lo_p, hi_p, ranks, offset, n)
        )
        meta.append(("split", int(union.size), int(arr.size), float(rho)))
    return inter, (sample_words, finishes, meta)


def _ms_count_kernel(rank: int, inter: list):
    """Partition-count half of one recursion level.

    All split segments' two-word part counts share one in-worker
    all-reduction; the replicated totals let every rank derive the next
    level's segment records identically, so the new resident state is
    ready for the (already pipelined) next sample command without a
    driver round trip.  Only parts that keep at least one target rank
    are copied out of the slice (a pivot-duplicate mid part never is).
    Returns per-PE ``(remaining, found)``: the replicated number of
    surviving segments and the ``(global_rank, value)`` pairs resolved
    by an exact pivot hit.
    """
    counts_vec: list[int] = []
    for entry in inter:
        if entry is not None and entry[0] == "split":
            counts_vec.extend(entry[2])
    totals = None
    if counts_vec:  # replicated decision: all ranks agree
        totals = yield (
            "allreduce", np.asarray(counts_vec, dtype=np.int64), "sum"
        )

    new_segs: list = []
    found: list[tuple] = []
    ci = 0
    for entry in inter:
        if entry is None:  # finished at the sample half
            continue
        if entry[0] == "retry":
            _, arr, ranks, offset, n = entry
            new_segs.append((arr, ranks, offset, n))
            continue
        _, arr, (n_lo, n_mid), lo_p, hi_p, ranks, offset, n = entry
        na, nb = int(totals[2 * ci]), int(totals[2 * ci + 1])
        ci += 1
        lo_ranks = tuple(k for k in ranks if k <= na)
        mid_ranks = tuple(k - na for k in ranks if na < k <= na + nb)
        hi_ranks = tuple(k - na - nb for k in ranks if k > na + nb)
        if lo_ranks:
            new_segs.append(
                (take3(arr, lo_p, hi_p, 0, n_lo), lo_ranks, offset, na)
            )
        if mid_ranks:
            if lo_p == hi_p:
                v = lo_p.item() if hasattr(lo_p, "item") else lo_p
                for k in mid_ranks:
                    found.append((offset + na + k, v))
            else:
                new_segs.append(
                    (take3(arr, lo_p, hi_p, 1, n_mid), mid_ranks, offset + na, nb)
                )
        if hi_ranks:
            n_hi = arr.size - n_lo - n_mid
            new_segs.append(
                (take3(arr, lo_p, hi_p, 2, n_hi), hi_ranks,
                 offset + na + nb, n - na - nb)
            )
    return new_segs, (len(new_segs), found)


def multi_select(
    machine: Machine,
    data: DistArray,
    ks,
    *,
    base_case: int | None = None,
    max_depth: int = 80,
) -> list:
    """Values of all requested order statistics (1-based ranks).

    Returns results in the order of the *sorted, deduplicated* ranks --
    use :func:`quantiles` for a friendlier interface.  Cost: shared
    recursion over disjoint segments; each *level* pays one fused
    Bernoulli-sample allgather and one fused part-count all-reduction
    covering every active segment, executed as two pipelined resident
    SPMD commands (the slices never leave the backend, and consecutive
    levels overlap in the pipe).
    """
    n = data.global_size
    ks_sorted = sorted(set(int(k) for k in ks))
    if not ks_sorted:
        return []
    if ks_sorted[0] < 1 or ks_sorted[-1] > n:
        raise ValueError(f"ranks must lie in 1..{n}, got {ks_sorted[0]}..{ks_sorted[-1]}")
    p = machine.p
    if base_case is None:
        base_case = int(max(64, 4 * np.sqrt(p)))

    out: dict[int, object] = {}
    # The root size falls out of the driver-tracked sizes (the one-word
    # all-reduction the algorithm needs is charged through the meter).
    machine._meter_allreduce(words=1)
    n_total = int(data.sizes().sum())
    # One draw sequence for the whole multiselection; levels subdivide
    # it by draw index, so the machine's address stream advances the
    # same way at every pipeline depth (speculatively issued levels
    # would otherwise burn depth-dependent sequence numbers).
    addr = machine.draw_addr()
    seg_refs, wrap = machine.backend.submit_map_resident(
        _wrap_ms_state,
        [data._ensure_ref()],
        n_out=1,
        args=[(tuple(ks_sorted), n_total)] * p,
    )
    seg_ref = seg_refs[0]

    # Staggered cross-level issue: the count half derives level L+1's
    # resident state worker-side, so level L+1's SAMPLE command depends
    # on nothing the driver has to see -- it is issued speculatively,
    # one level ahead, before level L settles (the workers run it back
    # to back with level L's count, which is the cross-level overlap).
    # The count half of L+1 is held back until level L's settled result
    # confirms the recursion is still alive, so a whole run wastes at
    # most ONE no-op command (the dangling speculative sample after the
    # final level).  Waits stay in submit order (the PendingValues
    # contract).
    def _issue_sample(lvl: int):
        inter_refs, p_samp = machine.backend.submit_spmd(
            _ms_sample_kernel,
            [seg_ref],
            n_out=1,
            args=[(p, addr, lvl, base_case, lvl >= max_depth)] * p,
        )
        return inter_refs[0], p_samp

    def _issue_count(inter_ref):
        out_refs, p_cnt = machine.backend.submit_spmd(
            _ms_count_kernel, [inter_ref], n_out=1
        )
        return out_refs[0], p_cnt

    level = 1
    with machine.backend.coalesced():
        inter_ref, p_samp = _issue_sample(level)
        seg_ref, p_cnt = _issue_count(inter_ref)
    if wrap is not None:
        wrap.wait()  # settle in submit order (carries no values)
        wrap = None
    next_inter, next_samp = (
        _issue_sample(level + 1) if level < max_depth else (None, None)
    )
    while True:
        svals = p_samp.wait()
        cvals = p_cnt.wait()
        # re-play the model from the small returned values, in issue
        # order (levels past the recursion's end are empty: no charges)
        _, finishes, meta0 = svals[0]
        if meta0:
            machine._meter_allgather(words=[v[0] for v in svals])
        n_split = 0
        for s, m in enumerate(meta0):
            if m[0] == "finish":
                rest_size = m[1]
                machine.charge_ops(
                    max(1, rest_size) * np.log2(max(rest_size, 2))
                )
                continue
            rho = m[-1]
            machine.charge_ops(
                [max(1.0, rho * svals[i][2][s][-2]) for i in range(p)]
            )
            if m[0] == "split":
                usize = m[1]
                n_split += 1
                machine.charge_ops(usize * np.log2(max(usize, 2)))
                machine.charge_ops(
                    np.array(
                        [svals[i][2][s][-2] for i in range(p)],
                        dtype=np.float64,
                    )
                )
        if n_split:
            machine._meter_allreduce(words=2 * n_split)
        remaining, found = cvals[0]
        for grank, v in finishes:
            out[grank] = v
        for grank, v in found:
            out[grank] = v
        if remaining == 0:
            # the dangling speculative sample saw empty state: a no-op
            # that returns no values and charges nothing
            if next_samp is not None:
                next_samp.wait()
            break
        level += 1
        inter_ref, p_samp = next_inter, next_samp
        # the two submits of a steady-state level ride one command frame
        with machine.backend.coalesced():
            seg_ref, p_cnt = _issue_count(inter_ref)
            next_inter, next_samp = (
                _issue_sample(level + 1) if level < max_depth else (None, None)
            )

    return [out[k] for k in ks_sorted]


def quantiles(machine: Machine, data: DistArray, qs) -> list:
    """Distributed quantiles (e.g. ``qs=[0.25, 0.5, 0.75]``).

    Uses the nearest-rank definition: quantile q is the element of rank
    ``ceil(q * n)`` (rank 1 for q = 0).  Returns values in the order of
    the given ``qs``.
    """
    n = data.global_size
    if n == 0:
        raise ValueError("quantiles of an empty array")
    qs = list(qs)
    if any(not 0.0 <= q <= 1.0 for q in qs):
        raise ValueError(f"quantiles must lie in [0, 1], got {qs}")
    ranks = [max(1, int(np.ceil(q * n))) for q in qs]
    ordered = multi_select(machine, data, ranks)
    by_rank = dict(zip(sorted(set(ranks)), ordered))
    return [by_rank[r] for r in ranks]
