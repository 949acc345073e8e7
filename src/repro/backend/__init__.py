"""The library's one compute kernel set.

Every kernel-set hot path — the im2col / col2im kernels behind
:func:`repro.nn.functional.conv2d` and the bit-serial crossbar VMM
behind :class:`repro.xbar.engine.CrossbarEngine` — runs on
:data:`KERNELS`, one shared
:class:`~repro.backend.vectorized.VectorizedBackend`. Consumers resolve
it per call through :func:`get_backend`, so a test can substitute
:class:`~repro.backend.reference.ReferenceBackend` — the original
loop-based code, kept only as the correctness oracle — with
``monkeypatch.setattr(repro.backend, "KERNELS", ReferenceBackend())``.
Pooling loops over strided slices inside :mod:`repro.nn.functional`
and uses no kernel; ``pool_windows`` stays in the set for the pooling
oracle in ``tests/`` and for benchmark probes.
"""

from __future__ import annotations

from repro.backend.base import EngineOperands, KernelBackend
from repro.backend.vectorized import VectorizedBackend

#: The kernel set every consumer dispatches to. Kernels are stateless,
#: so one instance is shared process-wide.
KERNELS: KernelBackend = VectorizedBackend()


def get_backend() -> KernelBackend:
    """The kernel set to dispatch to: :data:`KERNELS`."""
    return KERNELS


def default_backend_name() -> str:
    """The name of :data:`KERNELS` (``vectorized``), as its obs
    counters (``backend.<name>.<kernel>``) spell it."""
    return KERNELS.name


__all__ = ["EngineOperands", "KERNELS", "KernelBackend",
           "default_backend_name", "get_backend"]
