"""The loop-based reference kernel set — the correctness oracle.

This is the library's original kernel code, moved here verbatim from
:mod:`repro.nn.functional` (im2col / col2im / pooling windows) and
:mod:`repro.xbar.engine` (the bit-serial, group-at-a-time crossbar
VMM). It stays deliberately simple and close to the paper's datapath
description: one ADC conversion per cell column per cycle, one offset
group at a time. Every other backend is validated against it by the
shared equivalence suite, which is what makes swapping kernel
implementations safe.

Select it with ``REPRO_BACKEND=reference`` or ``--backend reference``.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.backend.base import EngineOperands, KernelBackend


class ReferenceBackend(KernelBackend):
    """Loop-based kernels, bit- and cycle-faithful to the paper."""

    name = "reference"

    # ------------------------------------------------------------------
    # im2col / col2im / pooling windows
    # ------------------------------------------------------------------
    def _im2col(self, x: np.ndarray, kh: int, kw: int, stride: int,
                pad: int) -> Tuple[np.ndarray, int, int]:
        """Unfold ``x`` (N, C, H, W) into columns (N, C*kh*kw, OH*OW).

        The loop is over the ``kh * kw`` kernel positions only (a
        handful of iterations); each iteration copies a strided view,
        so the whole operation is vectorised over batch and spatial
        dims.
        """
        if pad > 0:
            x = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
        n, c, h, w = x.shape
        oh = (h - kh) // stride + 1
        ow = (w - kw) // stride + 1
        cols = np.empty((n, c, kh, kw, oh, ow), dtype=x.dtype)
        for i in range(kh):
            i_end = i + stride * oh
            for j in range(kw):
                j_end = j + stride * ow
                cols[:, :, i, j] = x[:, :, i:i_end:stride, j:j_end:stride]
        return cols.reshape(n, c * kh * kw, oh * ow), oh, ow

    def _col2im(self, cols: np.ndarray, x_shape: Tuple[int, int, int, int],
                kh: int, kw: int, stride: int, pad: int) -> np.ndarray:
        """Fold columns (N, C*kh*kw, OH*OW) back into an image of shape
        ``x_shape``, accumulating overlaps (im2col adjoint)."""
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
        """View ``x`` (N, C, H, W) as windows (N, C, k*k, OH, OW)."""
        n, c, h, w = x.shape
        oh = (h - k) // stride + 1
        ow = (w - k) // stride + 1
        windows = np.empty((n, c, k * k, oh, ow), dtype=x.dtype)
        idx = 0
        for i in range(k):
            i_end = i + stride * oh
            for j in range(k):
                j_end = j + stride * ow
                windows[:, :, idx] = x[:, :, i:i_end:stride, j:j_end:stride]
                idx += 1
        return windows

    # ------------------------------------------------------------------
    # bit-serial crossbar VMM
    # ------------------------------------------------------------------
    def _engine_vmm(self, xq: np.ndarray, op: EngineOperands) -> np.ndarray:
        """Bit-serial, group-at-a-time analog accumulation:
        quantized inputs (N, rows) -> integer-domain outputs (N, cols).

        One input bit per cycle, one offset group (``granularity``
        wordlines) driven at a time, one ADC conversion per cell column
        per cycle — then the digital offset add (Eq. 7), the complement
        post-processing and the ISAAC zero-point correction.
        """
        n, rows = xq.shape
        m = op.granularity
        k = op.n_groups
        cols = op.cols

        # Per-group integer input sums (the adder-tree outputs).
        group_x_sum = op.group_input_sums(xq.astype(np.float64))  # (N, k)

        # Bit-serial, group-at-a-time analog accumulation.
        z_groups = np.zeros((n, k, cols))
        for bit in range(op.input_bits):
            x_bit = ((xq >> bit) & 1).astype(np.float64)    # (N, rows)
            weight = float(1 << bit)
            for gi in range(k):
                lo = gi * m
                hi = min(lo + m, rows)
                drive = x_bit[:, lo:hi]                     # (N, mg)
                cells_g = op.cells[lo:hi]                   # (mg, cols, n_cells)
                # One ADC conversion per cell column per cycle.
                currents = np.einsum("nr,rck->nck", drive, cells_g,
                                     optimize=True)
                converted = op.adc.convert(currents)
                z_groups[:, gi, :] += weight * (converted @ op.significance)

        # Digital offset path: b_g * sum(x in group g).
        z_groups += group_x_sum[:, :, None] * op.registers[None, :, :]

        # Complement post-processing per group.
        comp = op.complement[None, :, :]
        full = op.weight_qmax * group_x_sum[:, :, None]
        z_groups = np.where(comp, full - z_groups, z_groups)

        # Sum groups and undo the ISAAC weight shift.
        z = z_groups.sum(axis=1)                            # (N, cols)
        total_x = xq.sum(axis=1, keepdims=True).astype(np.float64)
        return z - op.weight_zero_point * total_x
