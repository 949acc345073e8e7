"""The vectorized kernel set — the kernels the library runs.

Same arithmetic as :mod:`repro.backend.reference`, restructured for
throughput:

* im2col (and the pooling windows the test oracle uses) are built from
  one ``np.lib.stride_tricks.as_strided`` view copied in a single pass
  instead of a python loop over kernel positions;
* the bit-serial crossbar VMM is reformulated as a few large GEMMs over
  bit-plane-packed operands cached on :class:`EngineOperands`:

  - with an **ideal ADC** every term of the integer-domain output is
    linear in the quantized inputs, so the analog contraction, the
    Eq. 7 offset add, the complement post-processing and the ISAAC
    zero-point correction all fold into *one* packed matrix
    (:attr:`EngineOperands.packed_ideal_weights`) — the whole forward
    is a single ``xq @ P`` BLAS call;
  - with a **finite ADC** the conversion is nonlinear per
    (input bit, offset group) current, so the bit planes cannot
    telescope — instead all ``input_bits`` planes are stacked into one
    batched matmul ``(k, bits*N, m) @ (k, m, cols*cells)`` against the
    cached :attr:`EngineOperands.cells_packed`, converted through the
    ADC once, then collapsed by two cheap contractions (bit weights,
    cell significances). Batches are chunked so the stacked
    intermediate stays within :data:`PACKED_BYTES_LIMIT` bytes.

Numerical interchangeability with ``reference`` (up to float rounding)
is asserted by the shared equivalence suite in ``tests/backend/``.

This module is the one sanctioned home of strided-window tricks in the
library (lint rule R7): consumers go through
:func:`repro.backend.get_backend`, never through ``as_strided``.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np
from numpy.lib.stride_tricks import as_strided

from repro.backend.base import EngineOperands, KernelBackend

#: Byte budget for the stacked finite-ADC intermediates; batches are
#: chunked so ``k * bits * chunk * cols * cells`` float64 currents (and
#: the matching drive planes) stay under it.
PACKED_BYTES_LIMIT = 64 * 1024 * 1024


def _window_view(x: np.ndarray, kh: int, kw: int,
                 stride: int) -> Tuple[np.ndarray, int, int]:
    """A zero-copy (N, C, kh, kw, OH, OW) sliding-window view of ``x``
    (N, C, H, W); returns ``(view, OH, OW)``.

    The view aliases ``x`` with overlapping strides — callers must copy
    (e.g. via ``reshape``) before writing anywhere.
    """
    n, c, h, w = x.shape
    oh = (h - kh) // stride + 1
    ow = (w - kw) // stride + 1
    sn, sc, sh, sw = x.strides
    view = as_strided(x, shape=(n, c, kh, kw, oh, ow),
                      strides=(sn, sc, sh, sw, sh * stride, sw * stride))
    return view, oh, ow


def _finite_chunk_rows(op: EngineOperands) -> int:
    """Samples per chunk keeping the stacked (k, bits*N, cols*cells)
    currents and (k, bits*N, m) drive planes under the byte budget."""
    per_sample = (8 * op.input_bits * op.n_groups
                  * (op.granularity + op.cols * op.n_cells))
    return max(1, PACKED_BYTES_LIMIT // per_sample)


def _finite_analog(xq: np.ndarray, op: EngineOperands) -> np.ndarray:
    """Finite-ADC analog term via the stacked bit-plane batched matmul:
    quantized inputs (N, rows) -> signed analog outputs (N, cols),
    before the digital offset / zero-point terms."""
    n = xq.shape[0]
    k, c, s = op.n_groups, op.cols, op.n_cells
    bits = op.input_bits
    cells = op.cells_packed                                 # (k, m, c*s)
    z = np.empty((n, c), dtype=np.float64)
    chunk = _finite_chunk_rows(op)
    for lo in range(0, n, chunk):
        xq_c = xq[lo:lo + chunk]
        nn = xq_c.shape[0]
        drive = op.grouped_bit_planes(xq_c)                 # (k, bits*nn, m)
        currents = np.matmul(drive, cells)                  # (k, bits*nn, c*s)
        converted = op.adc.convert(currents)
        weighted = np.einsum(
            "b,kbnx->knx", op.bit_weights,
            converted.reshape(k, bits, nn, c * s), optimize=True)
        folded = weighted.reshape(k, nn, c, s) @ op.significance
        z[lo:lo + nn] = np.einsum("knc,kc->nc", folded, op.sign,
                                  optimize=True)
    return z


class VectorizedBackend(KernelBackend):
    """Strided-view windows and bit-plane-packed GEMM VMM kernels."""

    name = "vectorized"

    # ------------------------------------------------------------------
    # im2col / col2im / pooling windows
    # ------------------------------------------------------------------
    def _im2col(self, x: np.ndarray, kh: int, kw: int, stride: int,
                pad: int) -> Tuple[np.ndarray, int, int]:
        """Unfold ``x`` (N, C, H, W) into columns (N, C*kh*kw, OH*OW)
        by copying one strided window view in a single pass."""
        if pad > 0:
            x = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
        x = np.ascontiguousarray(x)
        n, c = x.shape[:2]
        view, oh, ow = _window_view(x, kh, kw, stride)
        # reshape of the overlapping view materialises the copy.
        return view.reshape(n, c * kh * kw, oh * ow), oh, ow

    def _col2im(self, cols: np.ndarray, x_shape: Tuple[int, int, int, int],
                kh: int, kw: int, stride: int, pad: int) -> np.ndarray:
        """Fold columns (N, C*kh*kw, OH*OW) back into an image of shape
        ``x_shape``, accumulating overlaps (im2col adjoint).

        Overlapping windows make the adjoint a scatter-add, which a
        strided view cannot express safely (the same output element
        would be written through several aliases); the accumulation
        loops over the kh*kw kernel positions and stays vectorised over
        batch and spatial dims, like the reference kernel.
        """
        n, c, h, w = x_shape
        hp, wp = h + 2 * pad, w + 2 * pad
        oh = (hp - kh) // stride + 1
        ow = (wp - kw) // stride + 1
        cols = cols.reshape(n, c, kh, kw, oh, ow)
        x = np.zeros((n, c, hp, wp), dtype=cols.dtype)
        for i in range(kh):
            i_end = i + stride * oh
            for j in range(kw):
                j_end = j + stride * ow
                x[:, :, i:i_end:stride, j:j_end:stride] += cols[:, :, i, j]
        if pad > 0:
            x = x[:, :, pad:-pad, pad:-pad]
        return x

    def _pool_windows(self, x: np.ndarray, k: int,
                      stride: int) -> np.ndarray:
        """View ``x`` (N, C, H, W) as windows (N, C, k*k, OH, OW) via
        one strided-view copy."""
        x = np.ascontiguousarray(x)
        n, c = x.shape[:2]
        view, oh, ow = _window_view(x, k, k, stride)
        return view.reshape(n, c, k * k, oh, ow)

    # ------------------------------------------------------------------
    # bit-plane-packed crossbar VMM
    # ------------------------------------------------------------------
    def _engine_vmm(self, xq: np.ndarray, op: EngineOperands) -> np.ndarray:
        """Packed crossbar VMM: quantized inputs (N, rows) ->
        integer-domain outputs (N, cols).

        Ideal ADC: one GEMM against the cached packed matrix (analog +
        offset + complement + zero-point all folded in). Finite ADC:
        the stacked bit-plane batched matmul, then the Eq. 7
        offset/complement GEMM and the ISAAC zero-point correction.
        """
        xqf = xq.astype(np.float64)
        if op.adc.ideal:
            return xqf @ op.packed_ideal_weights
        z = _finite_analog(xq, op) + op.group_input_sums(xqf) @ op.offset_gain
        return z - op.weight_zero_point * xqf.sum(axis=1, keepdims=True)
