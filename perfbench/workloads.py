"""The benchmark's workloads: inputs, the calls they time, and oracles.

Every input is generated here from the run's ``--seed`` with the
benchmark's own numpy generator and handed to ``repro`` through
``DistArray(machine, chunks, resident=True)`` / ``QueryEngine(machine,
datasets)``; the ``Machine`` seed is derived from ``--seed`` too.  No
workload draws from ``Machine.rngs``, ``DistArray.generate`` or
``default_datasets``, so a change to the package's own generators cannot
change what is measured.

A workload object owns one machine at a time: :meth:`setup` builds it
(machine, worker pool, resident inputs, one warm-up iteration),
:meth:`close` tears it down.  Select and update workloads time a closed
loop of iterations (:meth:`iterate`); the serve workloads drive an open
loop (:meth:`serve`).
"""

from __future__ import annotations

import heapq
import math
import threading
import time

import numpy as np

import repro.aggregation as aggregation
import repro.frequent as frequent
import repro.redistribution as redistribution
import repro.selection as selection
from repro.machine import DistArray, Machine
from repro.pqueue import BulkParallelPQ

KEY_RANGE = 1 << 20
PER_PE = 1 << 14
#: multi_select ranks, as fractions of n (fixed across seeds)
RANK_FRACTIONS = (0.001, 0.1, 0.25, 0.5, 0.75, 0.999)
TOPK = 64


def machine_seed(seed: int, tag: str, index: int) -> int:
    return int(np.random.SeedSequence([seed, _tag(tag), index]).generate_state(1)[0])


def _tag(tag: str) -> int:
    return int.from_bytes(tag.encode()[:8].ljust(8, b"\0"), "little")


def gen(seed: int, tag: str, *more: int) -> np.random.Generator:
    return np.random.default_rng([seed, _tag(tag), *more])


def zipf_keys(rng: np.random.Generator, size: int, universe: int, s: float) -> np.ndarray:
    """Bounded Zipf(s) keys in ``[0, universe)`` by inverse CDF."""
    cdf = np.cumsum(1.0 / np.arange(1, universe + 1) ** s)
    return np.searchsorted(cdf / cdf[-1], rng.random(size), side="right").astype(np.int64)


class Mismatch(AssertionError):
    """An output disagreed with its oracle."""


def check(ok: bool, what: str) -> None:
    if not ok:
        raise Mismatch(what)


class Workload:
    """Shared machine lifecycle; subclasses set ``backend`` and ``p``."""

    backend = "sim"
    p = 2

    def __init__(self, name: str, seed: int):
        self.name = name
        self.seed = seed
        self.machine: Machine | None = None
        self.make_inputs()

    def make_inputs(self) -> None:
        raise NotImplementedError

    def setup(self, index: int) -> None:
        """Build set-up number ``index``; each has its own ``Machine``
        seed, so repeated set-ups do not replay one warm-up path."""
        self.machine = Machine(self.p, seed=machine_seed(self.seed, self.name, index),
                               backend=self.backend)
        self.upload()

    def upload(self) -> None:
        raise NotImplementedError

    def close(self) -> None:
        if self.machine is not None:
            self.machine.close()
            self.machine = None

    def model_s(self) -> float:
        return self.machine.report().makespan

    def digest(self, results: tuple) -> tuple:
        """Comparable form of one iteration's results (trace parity)."""
        return results


class SelectWorkload(Workload):
    """``multi_select`` at fixed ranks, ``select_kth`` at a seeded k,
    ``select_topk_largest(k=64)`` on uniform int64 keys."""

    ops = ("multi_select", "select_kth", "topk_largest")

    def __init__(self, name: str, seed: int, backend: str, p: int):
        self.backend, self.p = backend, p
        super().__init__(name, seed)

    def make_inputs(self) -> None:
        rng = gen(self.seed, self.name)
        self.chunks = [rng.integers(0, KEY_RANGE, PER_PE, dtype=np.int64)
                       for _ in range(self.p)]
        self.sorted = np.sort(np.concatenate(self.chunks))
        n = self.sorted.size
        self.ranks = [max(1, int(f * n)) for f in RANK_FRACTIONS]

    def upload(self) -> None:
        self.data = DistArray(self.machine, self.chunks, resident=True)

    def params(self, it: int) -> int:
        return int(gen(self.seed, self.name, it).integers(1, self.sorted.size + 1))

    def iterate(self, it: int) -> tuple[list[float], tuple]:
        """One iteration; returns per-op wall seconds and the results."""
        m, data, k = self.machine, self.data, self.params(it)
        t0 = time.perf_counter()
        ms = selection.multi_select(m, data, self.ranks)
        t1 = time.perf_counter()
        kth = selection.select_kth(m, data, k)
        t2 = time.perf_counter()
        top, thr = selection.select_topk_largest(m, data, TOPK)
        top_vals = top.concat()
        t3 = time.perf_counter()
        return [t1 - t0, t2 - t1, t3 - t2], (tuple(ms), kth, thr, tuple(np.sort(top_vals)))

    def verify(self, it: int, results: tuple) -> None:
        ms, kth, thr, top = results
        srt = self.sorted
        check(list(ms) == [srt[r - 1] for r in self.ranks], "multi_select values")
        check(kth == srt[self.params(it) - 1], "select_kth value")
        check(thr == srt[-TOPK], "select_topk_largest threshold")
        check(np.array_equal(np.asarray(top), srt[-TOPK:]), "select_topk_largest values")


class UpdateMixWorkload(Workload):
    """A steady-state bulk PQ cycle, EC frequent objects, EC sum
    aggregation and redistribution of a freshly uploaded skewed array."""

    backend, p = "mp", 2
    ops = ("pq_cycle", "frequent_ec", "sum_topk", "redistribute")
    PREFILL = 1 << 13
    INSERT = 1024
    DELETE = 2048
    K = 16
    UNIVERSE = 1 << 16
    SKEW = (1 << 19, 1 << 12)  # elements per PE: 4 MiB of float64 on PE 0

    def make_inputs(self) -> None:
        rng = gen(self.seed, self.name)
        self.prefill = [rng.random(self.PREFILL) for _ in range(self.p)]
        self.keys = [zipf_keys(rng, PER_PE, self.UNIVERSE, 1.1) for _ in range(self.p)]
        self.kv_keys = [zipf_keys(rng, PER_PE, self.UNIVERSE, 1.1) for _ in range(self.p)]
        self.kv_vals = [rng.exponential(1.0, PER_PE) for _ in range(self.p)]
        self.skewed = [rng.random(n) for n in self.SKEW]
        self.skewed_sorted = np.sort(np.concatenate(self.skewed))
        uniq, counts = np.unique(np.concatenate(self.keys), return_counts=True)
        self.exact_counts = dict(zip(uniq.tolist(), counts.tolist()))
        kv_keys = np.concatenate(self.kv_keys)
        uniq, inv = np.unique(kv_keys, return_inverse=True)
        sums = np.zeros(uniq.size)
        np.add.at(sums, inv, np.concatenate(self.kv_vals))
        self.exact_sums = dict(zip(uniq.tolist(), sums.tolist()))

    def upload(self) -> None:
        m = self.machine
        self.key_data = DistArray(m, self.keys, resident=True)
        self.kv = aggregation.DistKeyValue(m, self.kv_keys, self.kv_vals)
        self.kv._ensure_ref()
        self.pq = BulkParallelPQ(m)
        self.pq.insert(self.prefill)
        # heapq model of the queue: (score, rank, uid), uids per PE in order
        self.model = [(float(s), r, u) for r, c in enumerate(self.prefill)
                      for u, s in enumerate(c)]
        heapq.heapify(self.model)
        self.next_uid = [self.PREFILL] * self.p

    def params(self, it: int) -> list[np.ndarray]:
        rng = gen(self.seed, self.name, it)
        return [rng.random(self.INSERT) for _ in range(self.p)]

    def iterate(self, it: int) -> tuple[list[float], tuple]:
        m, inserts = self.machine, self.params(it)
        t0 = time.perf_counter()
        self.pq.insert(inserts)
        deleted = self.pq.delete_min(self.DELETE)
        t1 = time.perf_counter()
        freq = frequent.top_k_frequent_ec(m, self.key_data, self.K)
        t2 = time.perf_counter()
        sums = aggregation.top_k_sums_ec(m, self.kv, self.K)
        t3 = time.perf_counter()
        fresh = DistArray(m, self.skewed, resident=True)
        balanced, _ = redistribution.redistribute(m, fresh)
        t4 = time.perf_counter()
        batch = sorted((float(s), int(uid[0]), int(uid[1]))
                       for b in deleted.batches for s, uid in b)
        return ([t1 - t0, t2 - t1, t3 - t2, t4 - t3],
                (tuple(batch), freq.items, sums.items, balanced))

    def verify(self, it: int, results: tuple) -> None:
        batch, freq, sums, balanced = results
        for r, scores in enumerate(self.params(it)):
            for s in scores:
                heapq.heappush(self.model, (float(s), r, self.next_uid[r]))
                self.next_uid[r] += 1
        want = [heapq.heappop(self.model) for _ in range(self.DELETE)]
        check(list(batch) == want, "delete_min batch vs heapq model")
        check(len(freq) == self.K, "top_k_frequent_ec result size")
        for key, c in freq:
            check(c == self.exact_counts.get(key, -1), f"EC count of key {key}")
        check(len(sums) == self.K, "top_k_sums_ec result size")
        for key, s in sums:
            exact = self.exact_sums.get(key, math.nan)
            check(math.isclose(s, exact, rel_tol=1e-9, abs_tol=1e-9),
                  f"EC sum of key {key}")
        sizes = balanced.sizes()
        n = self.skewed_sorted.size
        check(int(sizes.max()) <= -(-n // self.p), "redistribute balance")
        check(np.array_equal(np.sort(balanced.concat()), self.skewed_sorted),
              "redistribute multiset")

    def digest(self, results: tuple) -> tuple:
        """Comparable form of one iteration's results (trace parity)."""
        batch, freq, sums, balanced = results
        return batch, freq, sums, tuple(int(s) for s in balanced.sizes())


#: query-stream epochs: 0 is the measured open loop
WARMUP_EPOCH, PROBE_EPOCH = 1, 2


class ServeWorkload(Workload):
    """``QueryEngine`` over ``mp`` fed by an open-loop Poisson generator."""

    backend, p = "mp", 2
    N = 1 << 16
    UNIVERSE = 1 << 12
    FREQ_K = 8
    TOPK = 10
    #: queries run one at a time to measure the modeled cost per query
    PROBE = 32

    def __init__(self, name: str, seed: int, rate: float):
        self.rate = rate
        self.engine = None
        super().__init__(name, seed)

    def make_inputs(self) -> None:
        rng = gen(self.seed, self.name)
        per_pe = self.N // self.p
        self.values = [rng.random(per_pe) for _ in range(self.p)]
        self.keys = [zipf_keys(rng, per_pe, self.UNIVERSE, 1.1) for _ in range(self.p)]
        self.sorted = np.sort(np.concatenate(self.values))
        uniq, counts = np.unique(np.concatenate(self.keys), return_counts=True)
        order = np.lexsort((uniq, -counts))
        self.freq_top = [(int(uniq[i]), float(counts[i])) for i in order[: self.FREQ_K]]

    def upload(self) -> None:
        from repro.serve.engine import QueryEngine

        m = self.machine
        datasets = {"default": DistArray(m, self.values, resident=True),
                    "keys": DistArray(m, self.keys, resident=True)}
        self.engine = QueryEngine(m, datasets)
        self.warm_replies = self.one_at_a_time(self.queries(WARMUP_EPOCH, 4))

    def one_at_a_time(self, qs: list[dict]) -> list[tuple]:
        return [(q, self.engine.submit(q).result(timeout=60)) for q in qs]

    def probe_model(self) -> tuple[float, list]:
        """Modeled seconds per query with each query run alone, so the
        figure does not depend on how arrivals happened to batch; also
        returns the replies."""
        m0 = self.model_s()
        replies = self.one_at_a_time(self.queries(PROBE_EPOCH, self.PROBE))
        return (self.model_s() - m0) / self.PROBE, replies

    def close(self) -> None:
        if self.engine is not None:
            self.engine.close()  # closes the machine too
            self.engine = None
            self.machine = None
        super().close()

    def queries(self, epoch: int, count: int) -> list[dict]:
        """``count`` queries cycling select, quantile, topk, frequent.

        Only the ranks are random; the op cycle and the topk/frequent
        sizes are fixed so every seed asks for the same amount of work.
        """
        rng = gen(self.seed, self.name, epoch)
        out = []
        for i in range(count):
            kind = i % 4
            if kind == 0:
                out.append({"op": "select", "k": int(rng.integers(1, self.N + 1))})
            elif kind == 1:
                out.append({"op": "quantile", "q": float(rng.random())})
            elif kind == 2:
                out.append({"op": "topk", "k": self.TOPK})
            else:
                out.append({"op": "frequent", "dataset": "keys", "k": self.FREQ_K})
        return out

    def schedule(self, epoch: int, seconds: float) -> list[float]:
        """Poisson send offsets (s) over ``seconds``."""
        rng = gen(self.seed, self.name + "-t", epoch)
        gaps = rng.exponential(1.0 / self.rate, int(self.rate * seconds * 2) + 16)
        offs = np.cumsum(gaps)
        return offs[offs < seconds].tolist()

    def verify(self, q: dict, got) -> None:
        srt, op = self.sorted, q["op"]
        if op == "select":
            check(got == srt[q["k"] - 1], "serve select")
        elif op == "quantile":
            check(got == srt[max(1, math.ceil(q["q"] * srt.size)) - 1], "serve quantile")
        elif op == "topk":
            check(list(got) == srt[-q["k"]:][::-1].tolist(), "serve topk")
        else:
            check([tuple(x) for x in got] == self.freq_top[: q["k"]], "serve frequent")

    def serve(self, epoch: int, seconds: float) -> dict:
        """Send one open-loop epoch; returns per-query timings/results.

        Latency runs from each query's *scheduled* send time, so a stall
        also charges the queries it delayed.
        """
        offs = self.schedule(epoch, seconds)
        qs = self.queries(epoch, len(offs))
        n = len(offs)
        done_at = [math.nan] * n
        answers: list = [None] * n
        errors: list = [None] * n
        late = [0.0] * n
        finished = threading.Semaphore(0)

        def on_done(i, fut):
            done_at[i] = time.perf_counter()
            exc = fut.exception()
            if exc is not None:
                errors[i] = repr(exc)
            else:
                answers[i] = fut.result()
            finished.release()

        start = time.perf_counter() + 0.05
        for i, off in enumerate(offs):
            due = start + off
            delay = due - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            late[i] = time.perf_counter() - due
            self.engine.submit(qs[i]).add_done_callback(
                lambda f, i=i: on_done(i, f))
        deadline = time.perf_counter() + 60.0
        for _ in range(n):
            if not finished.acquire(timeout=max(0.0, deadline - time.perf_counter())):
                break
        lat = [d - (start + o) for d, o in zip(done_at, offs)]
        return {"queries": qs, "offsets": offs, "latency": lat, "answers": answers,
                "errors": errors, "late": late, "done_at": done_at,
                "wall": time.perf_counter() - start}


def make(name: str, seed: int) -> Workload:
    if name == "select_sim":
        return SelectWorkload(name, seed, "sim", 8)
    if name == "select_mp":
        return SelectWorkload(name, seed, "mp", 2)
    if name == "update_mix_mp":
        return UpdateMixWorkload(name, seed)
    if name == "serve_mp":
        return ServeWorkload(name, seed, 200.0)
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("select_sim", "select_mp", "update_mix_mp", "serve_mp")
