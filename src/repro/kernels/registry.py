"""Kernel dispatch registry: python reference twins + native twins.

Every hot in-worker loop is registered here as a *kernel*: a named
callable with a pure-python/numpy reference implementation and,
optionally, a *native twin* -- the same computation written in
nopython-compatible style so :func:`jit` can hand it to numba.  The
twins are contractually bit-identical: swapping the mode may change
wall-clock time, never a result or a modeled cost.

Selection::

    REPRO_KERNELS=auto|python|native       # process-wide default
    Machine(..., kernels="native")         # per-machine (plumbed to workers)

``auto`` (the default) uses native twins when numba is importable and
falls back to the python references otherwise.  ``native`` is honored
even without numba: the twins then run *interpreted* (numpy scalar
arithmetic wraps exactly like the jitted uint64 code), which keeps the
native path testable for bit-identity on machines without a compiler
toolchain -- only the speedup needs numba.

Registering a kernel::

    @kernel("count3")
    def count3(arr, lo, hi):                 # the python reference
        ...

    @count3.native                           # optional native twin
    def _count3_native(arr, lo, hi):
        ...  # python wrapper calling @jit cores

Native RNG-consuming twins must derive their Philox stream from the
incoming ``DrawAddress``-built generator's state words (see
:mod:`repro.kernels.philox`) -- never construct generators (repro-lint
RL010 enforces both halves of the convention).
"""

from __future__ import annotations

import contextlib
import functools
import os

import numpy as np

__all__ = [
    "MODES",
    "Kernel",
    "effective_mode",
    "get_mode",
    "jit",
    "kernel",
    "numba_available",
    "registered",
    "set_mode",
    "use_mode",
]

MODES = ("auto", "python", "native")

#: explicit process-wide override (None -> fall back to REPRO_KERNELS)
_mode: str | None = None


@functools.lru_cache(maxsize=1)
def numba_available() -> bool:
    """True when numba imports cleanly (cached once per process)."""
    try:
        import numba  # noqa: F401
    except Exception:
        return False
    return True


def _env_mode() -> str:
    raw = os.environ.get("REPRO_KERNELS", "auto").strip().lower()
    return raw if raw in MODES else "auto"


def get_mode() -> str:
    """The requested mode: explicit :func:`set_mode` > env > ``auto``."""
    return _mode if _mode is not None else _env_mode()


def set_mode(mode: str | None) -> None:
    """Set the process-wide kernel mode (``None`` reverts to the
    ``REPRO_KERNELS`` environment default)."""
    global _mode
    if mode is not None and mode not in MODES:
        raise ValueError(f"kernels mode must be one of {MODES}, got {mode!r}")
    _mode = mode


def effective_mode() -> str:
    """Resolve ``auto``: ``native`` iff numba is importable."""
    mode = get_mode()
    if mode == "auto":
        return "native" if numba_available() else "python"
    return mode


@contextlib.contextmanager
def use_mode(mode: str | None):
    """Scoped :func:`set_mode` (tests compare twins under both modes)."""
    prev = _mode
    set_mode(mode)
    try:
        yield
    finally:
        set_mode(prev)


def jit(fn=None, **options):
    """``numba.njit`` when available, else an interpreted shim.

    The shim runs the identical function body under
    ``np.errstate(over="ignore")``: the uint64 cores *rely* on wrap-
    around arithmetic (Philox, splitmix64), which numpy scalars perform
    exactly but warn about.  Compiled or interpreted, the results are
    bit-identical -- the decorated cores are written against the
    nopython subset (typed loops, no python objects).
    """
    def wrap(f):
        if numba_available():
            import numba

            return numba.njit(cache=True, **options)(f)

        @functools.wraps(f)
        def shim(*args, **kwargs):
            with np.errstate(over="ignore"):
                return f(*args, **kwargs)

        shim.py_func = f
        return shim

    return wrap(fn) if fn is not None else wrap


class Kernel:
    """One registered kernel: python reference + optional native twin."""

    __slots__ = ("name", "py", "native_fn", "__name__")

    def __init__(self, name: str, py_fn):
        self.name = name
        self.py = py_fn
        self.native_fn = None
        self.__name__ = getattr(py_fn, "__name__", name)

    def native(self, fn):
        """Decorator attaching the native twin (returns ``fn`` so the
        module-level name keeps pointing at the raw function)."""
        self.native_fn = fn
        return fn

    @property
    def has_native(self) -> bool:
        return self.native_fn is not None

    def __call__(self, *args, **kwargs):
        if self.native_fn is not None and effective_mode() == "native":
            return self.native_fn(*args, **kwargs)
        return self.py(*args, **kwargs)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        twin = "python+native" if self.has_native else "python"
        return f"Kernel({self.name!r}, {twin})"


_REGISTRY: dict[str, Kernel] = {}


def kernel(name: str):
    """Class-of-decorators registering ``fn`` as the python reference of
    kernel ``name`` and replacing it with the dispatching
    :class:`Kernel`."""
    def deco(fn):
        if name in _REGISTRY:
            raise ValueError(f"duplicate kernel {name!r}")
        k = Kernel(name, fn)
        _REGISTRY[name] = k
        return k

    return deco


def registered() -> dict[str, Kernel]:
    """The kernel table (name -> :class:`Kernel`), import-complete once
    :mod:`repro.kernels` is loaded."""
    return dict(_REGISTRY)
