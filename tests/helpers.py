"""Shared test utilities: numerical gradient checking and the
window-based pooling oracle."""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from repro.backend.reference import ReferenceBackend
from repro.nn.tensor import Tensor
from repro.utils.rng import make_rng


def numeric_grad(f: Callable[[], float], x: np.ndarray,
                 eps: float = 1e-5) -> np.ndarray:
    """Central-difference gradient of scalar ``f()`` w.r.t. array ``x``.

    ``f`` must read ``x`` by reference (the array is perturbed in place).
    """
    grad = np.zeros_like(x, dtype=np.float64)
    flat = x.reshape(-1)
    gflat = grad.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        up = f()
        flat[i] = orig - eps
        down = f()
        flat[i] = orig
        gflat[i] = (up - down) / (2 * eps)
    return grad


def gradcheck(build: Callable[[Sequence[Tensor]], Tensor],
              shapes: Sequence[tuple], seed: int = 0,
              atol: float = 1e-4, rtol: float = 1e-3,
              positive: bool = False) -> None:
    """Assert autograd gradients match finite differences.

    ``build(tensors)`` returns a scalar Tensor; ``shapes`` gives the
    input shapes. ``positive`` draws strictly positive inputs (for log /
    sqrt / division).
    """
    rng = make_rng(seed)
    tensors = []
    for shape in shapes:
        data = rng.normal(0.0, 1.0, size=shape)
        if positive:
            data = np.abs(data) + 0.5
        tensors.append(Tensor(data, requires_grad=True))

    out = build(tensors)
    assert out.size == 1, "gradcheck requires a scalar output"
    out.backward()

    for t in tensors:
        def f(tt=t):
            return float(build(tensors).data)
        expected = numeric_grad(f, t.data)
        actual = t.grad
        assert actual is not None, "missing gradient"
        np.testing.assert_allclose(actual, expected, atol=atol, rtol=rtol)


def window_pool2d(x: Tensor, k: int, stride: int, op: str) -> Tensor:
    """Pooling the way the library first computed it — the oracle for
    :func:`repro.nn.functional.max_pool2d` / ``avg_pool2d``.

    The loop-based reference kernels unfold ``x`` into (N, C, k*k, OH,
    OW) windows; ``op="max"`` takes ``argmax`` (first maximal position
    wins ties) and routes each window's gradient there, ``op="avg"``
    takes the mean and spreads it evenly; the backward pass folds the
    per-window gradients back with the reference ``col2im``.
    """
    kernels = ReferenceBackend()
    windows = kernels.pool_windows(x.data, k, stride)
    if op == "max":
        arg = windows.argmax(axis=2)
        out = np.take_along_axis(windows, arg[:, :, None], axis=2)[:, :, 0]
    else:
        out = windows.mean(axis=2)
    n, c, oh, ow = out.shape

    def backward(g: np.ndarray) -> None:
        if op == "max":
            dwin = np.zeros((n, c, k * k, oh, ow))
            np.put_along_axis(dwin, arg[:, :, None], g[:, :, None], axis=2)
        else:
            dwin = np.broadcast_to(g[:, :, None] / (k * k),
                                   (n, c, k * k, oh, ow))
        x._accumulate(kernels.col2im(dwin.reshape(n, c * k * k, oh * ow),
                                     x.shape, k, k, stride, 0))

    return Tensor._make(out, (x,), backward)
