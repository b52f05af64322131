"""Regression pins for the count-first selection rounds.

Every selection round counts each slice against the pivot pair, all-
reduces the counts and only then copies out the part(s) the totals
keep.  The split changes how much each PE copies, never what is drawn,
communicated or charged, so the modeled makespan of a fixed workload
must stay exactly where the three-part partition left it.  The pinned
values were recorded with that earlier implementation.
"""

import numpy as np
import pytest

from repro.kernels import use_mode
from repro.machine import DistArray, Machine
from repro.selection import multi_select, select_kth, select_topk_largest
from repro.selection.unsorted import _selection_round_kernel

P = 8
N_PER_PE = 1 << 14
SEED = 2024


def build():
    """``sim`` at p=8 with 2^14 int64 keys per PE."""
    rng = np.random.default_rng(SEED)
    m = Machine(p=P, seed=SEED, backend="sim")
    chunks = [rng.integers(0, 1 << 40, N_PER_PE, dtype=np.int64) for _ in range(P)]
    return m, DistArray(m, chunks)


@pytest.fixture(params=["python", "native"])
def kernel_mode(request):
    with use_mode(request.param):
        yield request.param


class TestMakespanPins:
    def test_multi_select(self, kernel_mode):
        m, d = build()
        n = d.global_size
        ks = [1, n // 7, n // 3, n // 2, 5 * n // 6, n]
        vals = multi_select(m, d, ks)
        assert vals == [
            7581647, 157669007757, 365250658433, 548927443049,
            913847511498, 1099511505161,
        ]
        assert m.report().makespan == 0.0003019610551384017

    def test_select_kth(self, kernel_mode):
        m, d = build()
        assert select_kth(m, d, d.global_size // 3 + 11) == 365418078723
        assert m.report().makespan == 0.00023717576575626157

    def test_select_topk_largest(self, kernel_mode):
        m, d = build()
        sel, thr = select_topk_largest(m, d, 64)
        assert thr == 1099048648530
        assert sel.global_size == 64
        assert m.report().makespan == 0.00014565755505477034


def test_select_kth_round_returns_one_part_per_pe(monkeypatch):
    """A round hands back the surviving part only: one chunk per PE,
    sized as the driver's next level expects."""
    m, d = build()
    real = m.backend.run_spmd
    rounds = []

    def spy(fn, refs, n_out=0, args=None):
        out_refs, vals = real(fn, refs, n_out=n_out, args=args)
        if fn is _selection_round_kernel:
            chunks = m.backend.get_chunks(out_refs[0])
            rounds.append((n_out, len(out_refs), chunks, vals))
        return out_refs, vals

    monkeypatch.setattr(m.backend, "run_spmd", spy)
    k = d.global_size // 3 + 11
    assert select_kth(m, d, k) == 365418078723
    assert rounds
    cur = [int(x) for x in d.sizes()]
    for n_out, n_refs, chunks, vals in rounds:
        assert (n_out, n_refs, len(chunks)) == (1, 1, P)
        na, nb = vals[0][4], vals[0][5]
        n_lo = [v[6] for v in vals]
        n_mid = [v[7] for v in vals]
        if vals[0][1] == 0:  # empty sample union: the slice comes back whole
            want = cur
        elif na >= k:
            want = n_lo
        elif na + nb < k:
            want = [c - lo - mid for c, lo, mid in zip(cur, n_lo, n_mid)]
            k -= na + nb
        else:
            want = n_mid
            k -= na
        assert [c.size for c in chunks] == want
        cur = want
