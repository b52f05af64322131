"""Selection partition kernels: the per-PE hot loops of Section 3/4.

Every selection round splits a PE's slice against a pivot pair into
the parts below / between / above the pivots, but the count all-
reduction that follows keeps only the part (``select_kth``) or parts
(``multi_select``) that still hold target ranks.  The split is therefore
two kernels: ``count3`` sizes the parts before the reduction and
``take3`` copies out one order-preserving part after it, so the parts
that are dropped are never materialized.  ``topk_count`` and
``topk_cut`` are the collapsed count + tie-grant extraction of the
one-step top-k cut.  The python references are numpy mask pipelines;
the native twins do the same work in one or two typed passes.
"""

from __future__ import annotations

import numpy as np

from .registry import jit, kernel

__all__ = ["count3", "take3", "topk_count", "topk_cut"]


@kernel("count3")
def count3(arr, lo, hi):
    """``(n_lo, n_mid)``: the number of elements ``< lo`` and in
    ``[lo, hi]`` (requires ``lo <= hi``; the rest lie ``> hi``)."""
    n_lo = int(np.count_nonzero(arr < lo))
    return n_lo, int(np.count_nonzero(arr <= hi)) - n_lo


@jit
def _count3_core(arr, lo, hi):
    n_lo = 0
    n_mid = 0
    for i in range(arr.size):
        x = arr[i]
        if x < lo:
            n_lo += 1
        elif x <= hi:
            n_mid += 1
    return n_lo, n_mid


@count3.native
def _count3_native(arr, lo, hi):
    n_lo, n_mid = _count3_core(arr, lo, hi)
    return int(n_lo), int(n_mid)


@kernel("take3")
def take3(arr, lo, hi, part, size):
    """Part ``part`` of the pivot split, order-preserving: 0 -> elements
    ``< lo``, 1 -> in ``[lo, hi]``, 2 -> ``> hi``.

    ``size`` is the part's length as :func:`count3` gave it; the native
    twin sizes its output with it instead of counting again.
    """
    if part == 0:
        return arr[arr < lo]
    if part == 1:
        return arr[(arr >= lo) & (arr <= hi)]
    return arr[~(arr <= hi)]


@jit
def _take3_core(arr, lo, hi, part, out):
    j = 0
    for t in range(arr.size):
        x = arr[t]
        if x < lo:
            c = 0
        elif x <= hi:
            c = 1
        else:
            c = 2
        if c == part:
            out[j] = x
            j += 1


@take3.native
def _take3_native(arr, lo, hi, part, size):
    out = np.empty(int(size), dtype=arr.dtype)
    _take3_core(arr, lo, hi, part, out)
    return out


@kernel("topk_count")
def topk_count(arr, threshold):
    """``(count below, count equal)`` against the top-k threshold."""
    return int((arr < threshold).sum()), int((arr == threshold).sum())


@jit
def _topk_count_core(arr, threshold):
    n_below = 0
    n_eq = 0
    for i in range(arr.size):
        x = arr[i]
        if x < threshold:
            n_below += 1
        elif x == threshold:
            n_eq += 1
    return n_below, n_eq


@topk_count.native
def _topk_count_native(arr, threshold):
    n_below, n_eq = _topk_count_core(arr, threshold)
    return int(n_below), int(n_eq)


@kernel("topk_cut")
def topk_cut(arr, threshold, keep_eq):
    """Elements ``< threshold`` plus the first ``keep_eq`` ties, in the
    order the reference concatenation produces (all strict, then ties)."""
    below = arr < threshold
    return np.concatenate([arr[below], arr[arr == threshold][:keep_eq]])


@jit
def _topk_cut_core(arr, threshold, keep_eq, out, n_below):
    i = 0
    j = 0
    for t in range(arr.size):
        x = arr[t]
        if x < threshold:
            out[i] = x
            i += 1
        elif x == threshold and j < keep_eq:
            out[n_below + j] = x
            j += 1


@topk_cut.native
def _topk_cut_native(arr, threshold, keep_eq, n_below=None, n_eq=None):
    if n_below is None or n_eq is None:
        n_below, n_eq = _topk_count_core(arr, threshold)
    take = min(int(keep_eq), int(n_eq))
    out = np.empty(int(n_below) + take, dtype=arr.dtype)
    _topk_cut_core(arr, threshold, take, out, int(n_below))
    return out
