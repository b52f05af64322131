"""Outside-in layer tracing for the benchmark.

Spans are recorded by wrapping the public entry points of each layer of
``repro`` for the duration of a traced run (:func:`instrument`); nothing
inside the package is changed.  With tracing off nothing is wrapped, so
the untraced run measures the program as users call it.

A span is ``(id, name, start, end, parent)``; the parent is the span open
on the same thread when it started.  A layer's self time is the span's
duration minus the time its child spans cover; every span name starts
with its layer's name, so self times add up per layer.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import threading
import time

#: layers in reporting order; a span ``<layer>.<what>`` belongs to ``<layer>``
LAYERS = (
    "selection",
    "kernels",
    "machine.comm",
    "machine.backends",
    "pqueue",
    "frequent",
    "aggregation",
    "redistribution",
)

#: kernels that fire on the selection path and get their own counters
TRACKED_KERNELS = ("partition3", "topk_count", "topk_cut", "skip_sample_indices")

#: driver-side ``Machine`` collectives (ROADMAP item 3 ports these into
#: the workers); counted only when not nested in another one
DRIVER_COLLECTIVES = (
    "broadcast", "reduce", "allreduce", "scan", "exscan", "allreduce_exscan",
    "tie_grant_prefix", "gather", "allgather", "reduce_allgather", "scatter",
    "alltoall", "aggregate_exchange", "reduce_tree", "send",
)

#: driver-side cost charging outside a collective or a replay (the
#: selection path charges each level this way instead of replaying logs)
CHARGES = (
    "charge_ops", "charge_ops_one", "_meter_broadcast", "_meter_allreduce",
    "_meter_scan", "_meter_allreduce_exscan", "_meter_gather",
    "_meter_allgather", "_meter_alltoall",
)

#: public command methods of an execution backend
BACKEND_COMMANDS = (
    "broadcast", "reduce", "allreduce", "scan", "allreduce_exscan", "gather",
    "allgather", "scatter", "alltoall", "p2p", "reduce_allgather", "map",
    "put_chunks", "get_chunks", "map_resident", "run_spmd", "submit_spmd",
    "submit_map_resident",
)


class Span:
    __slots__ = ("id", "name", "start", "end", "parent", "thread", "child_s")

    def __init__(self, sid: int, name: str, parent: int | None, thread: int):
        self.id, self.name, self.parent, self.thread = sid, name, parent, thread
        self.start = self.end = self.child_s = 0.0

    @property
    def dur(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.dur - self.child_s


def layer_of(name: str) -> str | None:
    for layer in LAYERS:
        if name.startswith(layer + "."):
            return layer
    return None


class Tracer:
    """In-memory span and counter store.

    Span appends rely on the interpreter lock (``list.append`` and
    ``next(itertools.count())`` are atomic), which keeps a span at a few
    microseconds; the serve engine records from its own thread.
    """

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: dict[str, float] = {}
        #: wrappers call straight through while False (oracle checks
        #: between traced iterations are not part of any layer)
        self.enabled = True
        self._local = threading.local()
        self._ids = itertools.count()
        self._count_lock = threading.Lock()

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def directly_inside(self, prefix: str) -> bool:
        """Whether the innermost open span on this thread starts with
        ``prefix``."""
        stack = self._stack()
        return bool(stack) and stack[-1].name.startswith(prefix)

    def count(self, name: str, by: float = 1) -> None:
        if self.enabled:
            with self._count_lock:
                self.counts[name] = self.counts.get(name, 0) + by

    @contextlib.contextmanager
    def paused(self):
        self.enabled = False
        try:
            yield
        finally:
            self.enabled = True

    def call(self, name: str, fn, *args, **kwargs):
        """``fn(*args, **kwargs)`` recorded as span ``name``."""
        if not self.enabled:
            return fn(*args, **kwargs)
        stack = self._stack()
        sp = Span(next(self._ids), name, stack[-1].id if stack else None,
                  threading.get_ident())
        stack.append(sp)
        sp.start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            sp.end = time.perf_counter()
            stack.pop()
            if stack:
                stack[-1].child_s += sp.end - sp.start
            self.spans.append(sp)

    def wrap(self, name: str, fn, on_result=None):
        """``fn`` recorded as span ``name``; ``on_result(result)`` may
        add counts."""
        def traced(*args, **kwargs):
            out = self.call(name, fn, *args, **kwargs)
            if on_result is not None and self.enabled:
                on_result(out)
            return out

        return traced

    def self_ms_by_root(self) -> dict[int, dict[str, float]]:
        """Self time (ms) per layer below each top-level span, keyed by
        that span's id; spans of no layer count as ``unattributed``."""
        parent = {sp.id: sp.parent for sp in self.spans}
        root: dict[int, int] = {}

        def root_of(sid: int) -> int:
            path = []
            while sid not in root and parent.get(sid) is not None:
                path.append(sid)
                sid = parent[sid]
            top = root.get(sid, sid)
            for p in path:
                root[p] = top
            root[sid] = top
            return top

        out: dict[int, dict[str, float]] = {}
        for sp in self.spans:
            layers = out.setdefault(root_of(sp.id), {})
            layer = layer_of(sp.name) or "unattributed"
            layers[layer] = layers.get(layer, 0.0) + sp.self_s * 1e3
        return out

    def named(self, prefix: str) -> list[Span]:
        return [s for s in self.spans if s.name.startswith(prefix)]

    def dump(self, path) -> None:
        """Write every span as one JSON record per line."""
        with open(path, "w") as fh:
            for sp in sorted(self.spans, key=lambda s: s.start):
                fh.write(json.dumps({
                    "id": sp.id, "name": sp.name, "start": sp.start,
                    "end": sp.end, "parent": sp.parent,
                }) + "\n")


def _elems(args) -> int:
    for a in args:
        size = getattr(a, "size", None)
        if isinstance(size, int):
            return size
    return 0


@contextlib.contextmanager
def instrument(tracer: Tracer, backends=()):
    """Wrap every layer's public entry points for the ``with`` block.

    ``backends`` are backend instances whose command methods are wrapped
    (instance attributes, so other machines stay untouched).
    """
    import repro.aggregation as aggregation
    import repro.frequent as frequent
    import repro.redistribution as redistribution
    import repro.selection as selection
    from repro.kernels.registry import Kernel
    from repro.machine import Machine
    from repro.machine.backends.base import PendingValues
    from repro.machine.backends.runtime import CommandFuture
    from repro.pqueue import BulkParallelPQ

    undo: list = []

    def patch(owner, attr, new):
        undo.append((owner, attr, owner.__dict__.get(attr, _MISSING)))
        setattr(owner, attr, new)

    for mod, fns in (
        (selection, ("multi_select", "select_kth", "select_topk_largest")),
        (frequent, ("top_k_frequent_ec", "top_k_frequent_exact")),
        (aggregation, ("top_k_sums_ec",)),
    ):
        layer = mod.__name__.split(".")[-1]
        for fn in fns:
            patch(mod, fn, tracer.wrap(f"{layer}.{fn}", getattr(mod, fn)))
    patch(redistribution, "redistribute", tracer.wrap(
        "redistribution.redistribute", redistribution.redistribute,
        lambda out: tracer.count("redistribution.moved_elems", out[1].moved),
    ))
    patch(BulkParallelPQ, "insert",
          tracer.wrap("pqueue.insert", BulkParallelPQ.insert))
    patch(BulkParallelPQ, "delete_min",
          tracer.wrap("pqueue.delete_min", BulkParallelPQ.delete_min))

    kernel_call = Kernel.__call__

    def traced_kernel(self, *args, **kwargs):
        tracer.count(f"kernels.{self.name}.elems", _elems(args))
        return tracer.call(f"kernels.{self.name}", kernel_call, self, *args, **kwargs)

    patch(Kernel, "__call__", traced_kernel)

    # machine.comm: charge replay, driver collectives and direct charges;
    # a call made from inside another machine.comm span belongs to it
    def comm_wrapper(span_name, method):
        def traced(self, *args, **kwargs):
            if tracer.directly_inside("machine.comm."):
                return method(self, *args, **kwargs)
            return tracer.call(span_name, method, self, *args, **kwargs)

        return traced

    replay = comm_wrapper("machine.comm.replay", Machine.replay_charges)

    def traced_replay(self, logs):
        tracer.count("machine.comm.replay.entries", len(logs[0]) if len(logs) else 0)
        return replay(self, logs)

    patch(Machine, "replay_charges", traced_replay)
    for name in DRIVER_COLLECTIVES:
        patch(Machine, name, comm_wrapper(
            f"machine.comm.collective.{name}", getattr(Machine, name)))
    for name in CHARGES:
        patch(Machine, name, comm_wrapper("machine.comm.charge", getattr(Machine, name)))

    for cls in (CommandFuture, PendingValues):
        def traced_wait(self, _w=cls.wait):
            return tracer.call("machine.backends.wait", _w, self)

        patch(cls, "wait", traced_wait)

    for backend in backends:
        for name in BACKEND_COMMANDS:
            def traced_cmd(*args, _m=getattr(backend, name), _n=f"machine.backends.{name}",
                           **kwargs):
                if not tracer.directly_inside("machine.backends."):
                    tracer.count("machine.backends.commands")
                return tracer.call(_n, _m, *args, **kwargs)

            undo.append((backend, name, _MISSING))
            setattr(backend, name, traced_cmd)
    try:
        yield tracer
    finally:
        for owner, attr, old in reversed(undo):
            if old is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, old)


_MISSING = object()
