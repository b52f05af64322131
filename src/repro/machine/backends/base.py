"""The execution-backend protocol: who actually moves the bytes.

A :class:`~repro.machine.comm.Machine` splits every collective into two
planes:

* the **control plane** (cost charging, per-PE clocks, communication
  metering) stays in :class:`~repro.machine.comm.Machine` -- it is what
  makes the alpha-beta model's predictions reportable regardless of how
  the data plane is executed;
* the **data plane** (computing the per-PE result values) is delegated
  to a :class:`Backend`.

A backend has one data plane, the *resident surface*: ``put_chunks`` /
``get_chunks`` pin and fetch per-PE objects behind :class:`ChunkRef`
handles, ``map_resident`` applies a per-PE callback where the chunks
live, and ``run_spmd`` runs a per-PE generator that yields collective
requests (plus the non-blocking ``submit_*`` forms).  The list-in/
list-out value collectives (``allreduce``, ``broadcast``, ...) are
defined once, here, as one-yield SPMD steps over no chunks, so they
cost one backend command each and no backend implements them.
:func:`spmd_collective` is the reference semantics of every yield.
Three backends ship with the package:

``sim`` (:class:`~repro.machine.backends.sim.SimBackend`)
    Drives the per-PE generators in lockstep in the driver process
    (binomial-tree reductions, linear prefix scans).  The default; all
    reported *time* is modeled alpha-beta cost.

``mp`` (:class:`~repro.machine.backends.mp.MultiprocessingBackend`)
    Runs one OS worker process per PE; yields physically move pickled
    payloads between the workers.  Combination orders replicate the
    simulated backend exactly, so results are bit-identical for the
    package's integer/array payloads.  Reported *wall-clock* reflects
    genuine parallel execution (the modeled cost is still charged, so
    both metrics stay available).

``tcp`` (:class:`~repro.machine.backends.tcp.TcpBackend`)
    The same worker runtime over length-framed stream sockets, so
    workers can live on other hosts (host list via ``hosts=`` /
    ``REPRO_TCP_HOSTS``; loopback by default).  Bit-identical to the
    other two backends as well.

Real backends share one three-layer architecture: the *transport*
(:mod:`repro.machine.backends.transport`) frames objects onto byte
streams, the *worker runtime* (:mod:`repro.machine.backends.runtime`)
owns the command loop, resident chunk store, exchange schedules and
driver dispatch, and a thin *launcher* per transport (``mp.py``,
``tcp.py``) wires workers to channels.

Reduction ``op`` arguments follow :data:`repro.machine.collectives.
REDUCTION_OPS`: the strings ``"sum"``/``"min"``/``"max"`` or a callable.
Real backends require ops and payloads to be picklable (an unpicklable
one raises :class:`TypeError` before the command is issued); the named
string ops always are.
"""

from __future__ import annotations

import contextlib
import weakref
from typing import Callable, Sequence

from ..collectives import inclusive_scan, tree_reduce_order

__all__ = ["Backend", "ChunkRef", "LockstepError", "PendingValues"]


class PendingValues:
    """Handle to the per-PE values of a submitted backend command.

    Returned by :meth:`Backend.submit_spmd` /
    :meth:`Backend.submit_map_resident`.  ``wait()`` blocks until the
    command completed and returns the values (idempotent; a failed
    command keeps raising on every wait).  Eager backends hand out
    pre-resolved handles, so call sites written against the submit API
    overlap commands where the backend pipelines and degrade to exact
    serial execution where it does not.

    Contract for overlapped call sites: wait handles in **submit
    order** before consuming their values, so charge-log replay
    observes the same order as serial execution (the bit-identity
    guarantee across backends; draws are counter-addressed at command
    build, so randomness is settle-order-free by construction).
    """

    __slots__ = ("_thunk", "_values")

    def __init__(self, thunk: Callable[[], object]):
        self._thunk = thunk
        self._values = None

    @classmethod
    def resolved(cls, values) -> "PendingValues":
        """A handle whose command already completed (eager backends)."""
        pending = cls(None)
        pending._values = values
        return pending

    @property
    def done(self) -> bool:
        return self._thunk is None

    def wait(self):
        if self._thunk is not None:
            self._values = self._thunk()
            self._thunk = None
        return self._values


class LockstepError(ValueError):
    """SPMD ranks diverged from the lockstep collective sequence.

    Raised by the sim data plane (which drives every rank's generator
    and sees all yields at once) and by real backends running with
    ``verify=True`` (which compare per-rank collective traces after
    each command).  Subclasses :class:`ValueError` because a divergent
    kernel is a caller bug, not a transport failure.
    """


class ChunkRef:
    """Opaque handle to per-PE chunks pinned inside a backend.

    A ``ChunkRef`` names one resident object per PE (for real backends
    the objects live in the worker processes; for in-process backends
    they live in a driver-side store).  The handle frees its slots
    automatically when garbage collected, so intermediate arrays built
    by recursive algorithms never leak worker memory.
    """

    __slots__ = ("id", "p", "_finalizer", "__weakref__")

    def __init__(self, ref_id: int, p: int, free_fn: Callable[[int], None]):
        self.id = ref_id
        self.p = p
        self._finalizer = weakref.finalize(self, free_fn, ref_id)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ChunkRef(id={self.id}, p={self.p})"


class Backend:
    """Data-plane executor for the collectives of one :class:`Machine`.

    The defaults are a complete in-process backend (``sim`` is exactly
    this class): chunks live in a driver-side store and SPMD generators
    run in lockstep in the driver.  Real backends override the resident
    surface (``put_chunks``, ``get_chunks``, ``map_resident``,
    ``run_spmd`` and the ``submit_*`` forms) and inherit everything else.

    Attributes
    ----------
    name:
        Registry key (``"sim"``, ``"mp"``, ...).
    is_real:
        True when collectives physically move data between OS processes
        (wall-clock is then a meaningful parallel-execution metric).
    wall_time:
        Cumulative seconds spent inside data-plane calls.
    """

    name: str = "abstract"
    is_real: bool = False
    #: transport capability flags (the zero-copy data plane).  In-process
    #: backends move no bytes and leave both False; real transports that
    #: frame messages as protocol-5 pickles with out-of-band buffers set
    #: ``supports_oob_pickle``, and those that additionally route large
    #: buffers through shared-memory segments set ``supports_shm``.
    #: Future socket/MPI backends opt out simply by not setting them.
    supports_oob_pickle: bool = False
    supports_shm: bool = False

    @property
    def supports_native_kernels(self) -> bool:
        """Whether ``kernels="native"`` runs *compiled* twins here (numba
        importable).  The mode itself works everywhere -- without numba
        the native twins execute interpreted, bit-identically."""
        from ...kernels import numba_available

        return numba_available()

    def __init__(self, p: int):
        if p < 1:
            raise ValueError(f"need at least one PE, got p={p}")
        self.p = int(p)
        self.wall_time: float = 0.0
        #: driver-side resident store (default data plane for in-process
        #: backends; real backends override the resident methods and keep
        #: the chunks in their workers instead)
        self._store: dict[int, list] = {}
        self._next_ref_id: int = 0

    # ------------------------------------------------------------------
    # Value collectives (list-in, list-out; one entry per PE)
    # ------------------------------------------------------------------
    # Sugar over the resident surface: each collective is ONE command of
    # a module-level one-yield SPMD step with no resident refs, so every
    # backend inherits them and none implements a data plane of its own.
    def _collective(self, step: Callable, args: Sequence[tuple]) -> list:
        """Run the one-yield ``step`` on every PE; returns its values."""
        return self.run_spmd(step, [], args=args)[1]

    def broadcast(self, value, root: int = 0) -> list:
        """Every PE receives ``value`` (held by ``root``)."""
        return self.scatter([value] * self.p, root)

    def scatter(self, pieces: Sequence, root: int = 0) -> list:
        """PE ``i`` receives ``pieces[i]`` (held by ``root``); one direct
        message per non-``None`` piece."""
        blank = [None] * self.p
        return self._collective(_from_root_step, [
            (list(pieces) if i == root else blank,
             [root] if i != root and pieces[i] is not None else [], root)
            for i in range(self.p)
        ])

    def p2p(self, src: int, dst: int, payload):
        """Move ``payload`` from PE ``src`` to PE ``dst``; returns it."""
        if src == dst:
            return payload
        pieces = [None] * self.p
        pieces[dst] = payload
        return self.scatter(pieces, src)[dst]

    def gather(self, values: Sequence, root: int = 0) -> list:
        """``root`` receives the rank-ordered list; others get ``None``."""
        return self._to_root(values, root, None)

    def reduce(self, values: Sequence, op, root: int = 0) -> list:
        """Binomial-tree-order reduction to ``root``; others get ``None``."""
        return self._to_root(values, root, op)

    def _to_root(self, values: Sequence, root: int, op) -> list:
        senders = [j for j in range(self.p) if j != root and values[j] is not None]
        args = []
        for i in range(self.p):
            row = [None] * self.p
            row[root] = values[i]
            args.append((row, senders if i == root else [], root, op))
        return self._collective(_to_root_step, args)

    def allreduce(self, values: Sequence, op) -> list:
        """Binomial-tree-order reduction, result replicated on every PE."""
        return self._collective(_allreduce_step, [(v, op) for v in values])

    def scan(self, values: Sequence, op) -> list:
        """Inclusive prefix combine in rank order."""
        return self._collective(_scan_step, [(v, op) for v in values])

    def allreduce_exscan(self, values: Sequence, op, initial=0) -> tuple[list, list]:
        """Fused total + exclusive prefix (one schedule, two outputs).

        Returns ``(totals, prefixes)`` where ``totals[i]`` is the
        tree-order reduction of all contributions and ``prefixes[i]``
        is ``op(values[0..i-1])`` (``initial`` on PE 0).
        """
        pairs = self._collective(
            _allreduce_exscan_step, [(v, op, initial) for v in values]
        )
        return [t for t, _ in pairs], [pre for _, pre in pairs]

    def allgather(self, values: Sequence) -> list:
        """Every PE receives the rank-ordered list of all contributions."""
        return self._collective(_allgather_step, [(v,) for v in values])

    def reduce_allgather(self, values: Sequence, payloads: Sequence, op) -> tuple[list, list]:
        """Fused ``allreduce(values)`` + ``allgather(payloads)`` in one
        schedule: ``(totals, gathered)``, both replicated on every PE."""
        pairs = self._collective(
            _reduce_allgather_step, [(v, g, op) for v, g in zip(values, payloads)]
        )
        return [t for t, _ in pairs], [g for _, g in pairs]

    def alltoall(self, matrix: Sequence[Sequence]) -> list[list]:
        """Personalized exchange: ``out[j][i] == matrix[i][j]``."""
        return self._collective(_alltoall_step, [(list(row),) for row in matrix])

    def map(self, fn: Callable[[int, object], object], items: Sequence) -> list:
        """Apply ``fn(rank, items[rank])`` on every PE (a
        :meth:`map_resident` over no chunks)."""
        return self.map_resident(fn, [], args=[(x,) for x in items])[1]

    # ------------------------------------------------------------------
    # Resident chunks (the SPMD data plane of DistArray)
    # ------------------------------------------------------------------
    # Per-PE chunks are pinned behind ChunkRef handles so per-PE
    # algorithm callbacks execute where the data lives and only small
    # values travel.  The default implementations below keep the store
    # in the driver process -- correct for any backend and free for the
    # in-process ``sim`` backend; ``mp`` overrides them to pin the
    # chunks inside its worker processes.

    def put_chunks(self, chunks: Sequence) -> ChunkRef:
        """Pin one object per PE; returns the opaque handle."""
        if len(chunks) != self.p:
            raise ValueError(f"need one chunk per PE, got {len(chunks)} for p={self.p}")
        ref_id = self._next_ref_id
        self._next_ref_id += 1
        self._store[ref_id] = list(chunks)
        return ChunkRef(ref_id, self.p, self._free_ref)

    def get_chunks(self, ref: ChunkRef) -> list:
        """Fetch the per-PE objects back to the driver (result assembly)."""
        return self._store[ref.id]

    def _free_ref(self, ref_id: int) -> None:
        """Release one handle's slots (called by ChunkRef finalizers)."""
        self._store.pop(ref_id, None)

    def map_resident(
        self,
        fn: Callable,
        refs: Sequence[ChunkRef],
        n_out: int = 0,
        args: Sequence[tuple] | None = None,
        collect: tuple | None = None,
    ) -> tuple[list[ChunkRef], list, list | None]:
        """Apply ``fn(rank, *chunks, *args[rank])`` where the chunks live.

        ``fn`` must return ``n_out`` new chunks followed by a small
        per-PE value (just the value when ``n_out == 0``); the chunks
        stay resident behind fresh handles and only the values return.
        ``collect`` optionally fuses a value collective into the same
        backend round trip: ``("allgather",)`` or ``("allreduce", op)``.

        Returns ``(out_refs, values, collected)`` where ``collected`` is
        ``None`` without ``collect``, the replicated rank-ordered value
        list for ``"allgather"``, or the replicated reduction for
        ``"allreduce"`` (one entry per PE in both cases).
        """
        chunk_lists = [self._store[r.id] for r in refs]
        outs, values = _apply_resident(self.p, fn, chunk_lists, n_out, args)
        out_refs = [self.put_chunks(chunks) for chunks in outs]
        return out_refs, values, _collect_values(values, collect, self.p)

    def run_spmd(
        self,
        fn: Callable,
        refs: Sequence[ChunkRef],
        n_out: int = 0,
        args: Sequence[tuple] | None = None,
    ) -> tuple[list[ChunkRef], list]:
        """Run a *generator* callback as one SPMD step on every PE.

        ``fn(rank, *chunks, *args[rank])`` must be a generator that
        ``yield``s collective requests and receives their results::

            sample = chunk[idx]
            gathered = yield ("allgather", sample)
            ...
            totals = yield ("allreduce", counts, "sum")
            received = yield ("alltoall", row)  # row[j] -> PE j
            return part_a, part_b, value        # n_out chunks + a value

        Every rank must issue the identical yield sequence (standard
        SPMD discipline).  Real backends execute the whole step -- local
        work *and* the embedded collectives -- inside the workers in a
        single command round trip; chunks never leave the workers.  The
        embedded collectives use the same combination orders as the
        machine's, so results are bit-identical across backends.  Cost
        charging stays with the caller (the driver re-plays the model
        from the small returned values).

        Returns ``(out_refs, values)``.
        """
        chunk_lists = [self._store[r.id] for r in refs]
        outs, values = _run_spmd_inprocess(self.p, fn, chunk_lists, n_out, args)
        out_refs = [self.put_chunks(chunks) for chunks in outs]
        return out_refs, values

    def submit_spmd(
        self,
        fn: Callable,
        refs: Sequence["ChunkRef"],
        n_out: int = 0,
        args: Sequence[tuple] | None = None,
    ) -> tuple[list["ChunkRef"], PendingValues]:
        """Non-blocking :meth:`run_spmd`: returns ``(out_refs, pending)``
        with ``pending.wait()`` yielding the per-PE values.

        The default executes eagerly and returns a resolved handle --
        in-process backends have no issue/execution overlap to expose;
        pipelined backends override this to keep the command in flight
        until ``wait()``.  See :class:`PendingValues` for the ordering
        contract overlapped call sites must follow.
        """
        out_refs, values = self.run_spmd(fn, refs, n_out=n_out, args=args)
        return out_refs, PendingValues.resolved(values)

    def submit_map_resident(
        self,
        fn: Callable,
        refs: Sequence["ChunkRef"],
        n_out: int = 0,
        args: Sequence[tuple] | None = None,
        collect: tuple | None = None,
    ) -> tuple[list["ChunkRef"], PendingValues]:
        """Non-blocking :meth:`map_resident` (same eager default);
        ``pending.wait()`` returns ``(values, collected)``."""
        out_refs, values, collected = self.map_resident(
            fn, refs, n_out=n_out, args=args, collect=collect
        )
        return out_refs, PendingValues.resolved((values, collected))

    @contextlib.contextmanager
    def coalesced(self):
        """Hint: the commands submitted inside this block are issued
        back-to-back with no intervening wait, so a pipelined backend
        may pack them into a single command frame (one fan-out, one
        worker wake for the whole batch).  Semantics are unchanged --
        commands still execute in issue order on every rank -- so the
        in-process default is a no-op."""
        yield

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def worker_message_counts(self) -> list[int]:
        """Per-PE count of peer-to-peer transport messages sent so far.

        In-process backends move no physical messages and report zeros;
        real backends report their actual worker-exchange traffic (the
        quantity the O(p log p) schedules bound).
        """
        return [0] * self.p

    def transport_bytes(self) -> dict[str, dict[str, int]]:
        """Measured driver-side transport bytes per command kind:
        ``{kind: {"wire": ..., "shm": ...}}`` where ``wire`` counts bytes
        that physically crossed the command/result pipes and ``shm``
        counts payload bytes that rode shared-memory blocks instead.
        In-process backends move no bytes and return ``{}``; the machine
        mirrors these counters into :class:`~repro.machine.metrics.
        CommMetrics` (``wire_bytes``/``shm_bytes``).
        """
        return {}

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Release backend resources (worker processes, queues).

        The driver-side resident store is deliberately left intact so
        results remain readable after close (real backends salvage
        their live worker-resident chunks into it before shutdown).
        """

    def __enter__(self) -> "Backend":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(p={self.p})"


def _apply_resident(
    p: int, fn: Callable, chunk_lists: Sequence[Sequence], n_out: int,
    args: Sequence[tuple] | None,
) -> tuple[list[list], list]:
    """Driver-side reference semantics of :meth:`Backend.map_resident`:
    returns ``(out_chunk_lists, values)`` with ``out_chunk_lists[j][i]``
    the j-th output chunk of PE ``i``.  Shared by the in-process default
    and by real backends' fallback path for unpicklable callbacks."""
    outs: list[list] = [[None] * p for _ in range(n_out)]
    values: list = [None] * p
    for rank in range(p):
        ins = [chunks[rank] for chunks in chunk_lists]
        extra = tuple(args[rank]) if args is not None else ()
        res = fn(rank, *ins, *extra)
        if n_out:
            if not isinstance(res, tuple) or len(res) != n_out + 1:
                raise ValueError(
                    f"resident callback must return {n_out} chunks + 1 value, "
                    f"got {type(res).__name__}"
                )
            for j in range(n_out):
                outs[j][rank] = res[j]
            values[rank] = res[n_out]
        else:
            values[rank] = res
    return outs, values


def spmd_collective(requests: Sequence[tuple]) -> object:
    """Reference data plane of one in-step SPMD collective.

    ``requests[i]`` is rank i's yielded tuple; all ranks must agree on
    the kind.  Returns the (shared) result every rank receives --
    combination orders match the plain collectives exactly.
    """
    from ..collectives import inclusive_scan, tree_reduce_order

    kinds = {req[0] for req in requests}
    if len(kinds) != 1:
        raise LockstepError(
            f"SPMD ranks diverged: mixed collectives {sorted(kinds)}"
        )
    kind = kinds.pop()
    payloads = [req[1] for req in requests]
    if kind == "allgather":
        return [list(payloads)] * len(requests)
    if kind == "allreduce":
        return [tree_reduce_order(payloads, requests[0][2])] * len(requests)
    if kind == "allreduce_exscan":
        op, initial = requests[0][2], requests[0][3]
        total = tree_reduce_order(payloads, op)
        inc = inclusive_scan(payloads, op)
        return [(total, initial if i == 0 else inc[i - 1]) for i in range(len(requests))]
    if kind == "alltoall":
        p = len(requests)
        return [[payloads[i][j] for i in range(p)] for j in range(p)]
    if kind == "sendrecv":
        # Sparse personalized exchange: rank i yields ("sendrecv", row,
        # srcs) where row[j] is its payload for j (None = no message)
        # and srcs lists the ranks it expects messages from (driver-
        # derived, so real backends can deliver directly in one hop
        # without a discovery round).  Result: row indexed by source.
        # The declared srcs must match the non-None row entries exactly
        # -- a mismatch would silently drop or indefinitely await a
        # message on a real backend, so the reference path fails loudly.
        p = len(requests)
        out: list[list] = []
        for j in range(p):
            declared = set(requests[j][2])
            actual = {i for i in range(p) if i != j and payloads[i][j] is not None}
            if declared - {j} != actual:
                raise ValueError(
                    f"sendrecv mismatch at rank {j}: declared senders "
                    f"{sorted(declared)} but actual senders {sorted(actual)}"
                )
            out.append(
                [payloads[i][j] if (i == j or i in declared) else None for i in range(p)]
            )
        return out
    raise ValueError(f"unknown SPMD collective {kind!r}")


# ----------------------------------------------------------------------
# One-yield SPMD steps: the data plane of the value collectives
# ----------------------------------------------------------------------
# Module-level so real backends ship them by reference.  The yields keep
# each collective's combination order and its worker message count:
# the reduction-type ones ride the tree gather + broadcast of
# ``allgather``/``allreduce``/``allreduce_exscan``, the rooted ones send
# direct ``sendrecv`` rows to or from the root.

def _allgather_step(rank, value):
    return (yield ("allgather", value))


def _allreduce_step(rank, value, op):
    return (yield ("allreduce", value, op))


def _allreduce_exscan_step(rank, value, op, initial):
    return (yield ("allreduce_exscan", value, op, initial))


def _scan_step(rank, value, op):
    gathered = yield ("allgather", value)
    return inclusive_scan(gathered[: rank + 1], op)[-1]


def _reduce_allgather_step(rank, value, payload, op):
    pairs = yield ("allgather", (value, payload))
    return tree_reduce_order([v for v, _ in pairs], op), [g for _, g in pairs]


def _alltoall_step(rank, row):
    return (yield ("alltoall", row))


def _from_root_step(rank, row, srcs, root):
    """``root`` sends ``row[j]`` to PE ``j`` (broadcast, scatter, p2p)."""
    received = yield ("sendrecv", row, srcs)
    return received[root]


def _to_root_step(rank, row, srcs, root, op):
    """Every PE sends ``row[root]`` to ``root``, which returns the
    rank-ordered list, reduced in tree order unless ``op`` is ``None``
    (gather, reduce)."""
    received = yield ("sendrecv", row, srcs)
    if rank != root:
        return None
    return received if op is None else tree_reduce_order(received, op)


def _run_spmd_inprocess(
    p: int, fn: Callable, chunk_lists: Sequence[Sequence], n_out: int,
    args: Sequence[tuple] | None,
) -> tuple[list[list], list]:
    """Drive p SPMD generators in lockstep in the driver process."""
    gens = []
    for rank in range(p):
        ins = [chunks[rank] for chunks in chunk_lists]
        extra = tuple(args[rank]) if args is not None else ()
        gens.append(fn(rank, *ins, *extra))
    results: list = [None] * p
    requests: list = [None] * p
    done = 0
    # advance every rank to its first yield
    for rank, gen in enumerate(gens):
        try:
            requests[rank] = gen.send(None)
        except StopIteration as stop:
            results[rank] = stop.value
            done += 1
    while done == 0:
        shared = spmd_collective(requests)
        for rank, gen in enumerate(gens):
            try:
                requests[rank] = gen.send(shared[rank])
            except StopIteration as stop:
                results[rank] = stop.value
                done += 1
    if done != p:
        raise LockstepError(
            "SPMD ranks diverged: some returned while others yielded"
        )
    outs: list[list] = [[None] * p for _ in range(n_out)]
    values: list = [None] * p
    for rank, res in enumerate(results):
        if n_out:
            if not isinstance(res, tuple) or len(res) != n_out + 1:
                raise ValueError(
                    f"SPMD callback must return {n_out} chunks + 1 value, "
                    f"got {type(res).__name__}"
                )
            for j in range(n_out):
                outs[j][rank] = res[j]
            values[rank] = res[n_out]
        else:
            values[rank] = res
    return outs, values


def _collect_values(values: list, collect: tuple | None, p: int) -> list | None:
    """Reference semantics of the fused value collective of
    :meth:`Backend.map_resident` (identical combination orders to the
    plain collectives, so results stay bit-identical across backends)."""
    if collect is None:
        return None
    if collect[0] == "allgather":
        return [list(values)] * p
    if collect[0] == "allreduce":
        return [tree_reduce_order(values, collect[1])] * p
    raise ValueError(f"unknown collect spec {collect!r}")
