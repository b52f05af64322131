"""Regression pins for every ``Machine`` collective.

One fixed script calls each driver-side collective once (rooted ones at
a non-zero root, both gather modes, both all-to-all modes, both routing
paths of ``aggregate_exchange``, the point-to-point ``send`` and the
edge-by-edge ``reduce_tree``).  The pins hold the digest of every
returned value and the modeled report of the whole script on ``sim``;
they were recorded when each collective still had its own data-plane
method on every backend, so they prove that routing the collectives
through one-yield SPMD steps changed neither a result nor a modeled
quantity.  ``mp`` and ``tcp`` must reproduce the ``sim`` results and
report exactly.
"""

import hashlib

import numpy as np
import pytest

from repro.machine import Machine

SEED = 1312


def _merge_counts(a, b):
    out = dict(a)
    for k, v in b.items():
        out[k] = out.get(k, 0) + v
    return out


def script(m: Machine) -> list:
    """Every ``Machine`` collective once; returns their results in order."""
    p = m.p
    root = p - 2
    ints = [3 * i + 1 for i in range(p)]
    floats = [0.1 * (i + 1) for i in range(p)]
    vecs = [np.array([i, 2 * i + 1, -i], dtype=np.int64) for i in range(p)]
    matrix = [
        [(i, j, 0.5 * (i * p + j)) if i != j else None for j in range(p)]
        for i in range(p)
    ]
    dicts = [{(7 * i + j) % (3 * p): j + 1 for j in range(6)} for i in range(p)]
    return [
        m.broadcast(np.arange(4) * 7, root=root),
        m.reduce(floats, op="sum", root=root),
        m.reduce(vecs, op="max", root=1),
        m.allreduce(floats, op="sum"),
        m.allreduce(vecs, op="min"),
        m.scan(floats, op="sum"),
        m.exscan(ints, op="sum", initial=0),
        m.allreduce_exscan(vecs, op="sum", initial=np.zeros(3, dtype=np.int64)),
        m.tie_grant_prefix([i % 3 for i in range(p)], [i % 2 + 1 for i in range(p)], p),
        m.gather(vecs, root=root, mode="tree"),
        m.gather(ints, root=0, mode="direct"),
        m.allgather([np.arange(i + 1) for i in range(p)]),
        m.reduce_allgather(floats, [list(range(i)) for i in range(p)], op="sum"),
        m.scatter([np.full(i + 1, i) for i in range(p)], root=root),
        m.alltoall(matrix, mode="direct"),
        m.alltoall(matrix, mode="hypercube"),
        m.aggregate_exchange(dicts, owner=lambda k: k % p),
        m.reduce_tree([{i: 1, 99: i} for i in range(p)], _merge_counts, root=1),
        m.send(root, 0, {"k": np.arange(3) + root}),
    ]


def _plain(x):
    """Type-tagged plain form of a result (numpy arrays keep their dtype)."""
    if isinstance(x, np.ndarray):
        return ("nd", str(x.dtype), x.tolist())
    if isinstance(x, (list, tuple)):
        return (type(x).__name__, [_plain(v) for v in x])
    if isinstance(x, dict):
        return ("dict", [(_plain(k), _plain(v)) for k, v in x.items()])
    if isinstance(x, (np.integer, np.floating)):
        return (type(x).__name__, x.item())
    return x


def digest(results) -> str:
    return hashlib.sha256(repr(_plain(results)).encode()).hexdigest()[:20]


def model(m: Machine) -> tuple:
    r = m.report()
    return (r.makespan, r.work_time, r.comm_time, r.bottleneck_words,
            r.bottleneck_startups, r.total_traffic, r.imbalance)


#: p -> (results digest, (makespan, work, comm, bottleneck words,
#: bottleneck startups, total traffic, imbalance)) on ``sim``
PINS = {
    5: ("c8f4ae1bde8e20e2859e",
        (8.577520000000001e-05, 4e-08, 8.574320000000001e-05, 127.0, 39,
         451.0, 2.083333333333333)),
    8: ("924c3343c9c06b4bab0e",
        (9.344040000000001e-05, 5.6000000000000005e-08, 9.338640000000002e-05,
         230.0, 43, 1443.0, 2.24)),
}


@pytest.mark.parametrize("p", sorted(PINS))
def test_sim_pins(p):
    m = Machine(p=p, seed=SEED)
    results = script(m)
    assert (digest(results), model(m)) == PINS[p]


@pytest.mark.parametrize("backend", ["mp", "tcp"])
@pytest.mark.parametrize("p", sorted(PINS))
def test_real_backends_match_sim(backend, p):
    sim = Machine(p=p, seed=SEED)
    want = script(sim)
    with Machine(p=p, seed=SEED, backend=backend) as real:
        got = script(real)
        assert repr(_plain(got)) == repr(_plain(want))
        assert model(real) == model(sim)
