"""The in-process simulated data plane (the default backend).

Every command runs in the driver process: resident chunks sit in a
driver-side store and SPMD generators are driven in lockstep through
:func:`repro.machine.backends.base.spmd_collective`, with deterministic
combination orders:

* reductions combine in binomial-tree order
  (:func:`repro.machine.collectives.tree_reduce_order`) so that
  floating-point rounding is reproducible and matches what the modeled
  tree schedule would produce,
* prefix combines run in linear rank order
  (:func:`repro.machine.collectives.inclusive_scan`).

Because nothing leaves the process, results may alias the inputs
(``broadcast`` hands every PE the same object); callers must treat
returned objects as read-only, exactly as :mod:`repro.machine.comm`
documents.
"""

from __future__ import annotations

from .base import Backend

__all__ = ["SimBackend"]


class SimBackend(Backend):
    """Zero-copy in-process execution; all time is modeled, not real."""

    name = "sim"
