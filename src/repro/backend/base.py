"""The kernel-set interface every compute backend implements.

A *backend* is a named bundle of the library's arithmetic hot paths:
the im2col / col2im / pooling window kernels that
:mod:`repro.nn.functional` builds convolution and pooling from, and the
bit-serial crossbar VMM that :class:`repro.xbar.engine.CrossbarEngine`
runs. Consumers never import a kernel implementation directly — they
resolve the active backend through :func:`repro.backend.get_backend`
and call the methods defined here, so kernel implementations can evolve
(or be swapped wholesale) without touching the paper-faithful model.

Two implementations ship with the library:

* ``reference`` (:mod:`repro.backend.reference`) — the original
  loop-based kernels, kept verbatim as the correctness oracle;
* ``vectorized`` (:mod:`repro.backend.vectorized`) — the default:
  strided-view windows and the bit-plane-packed GEMM VMM.

Every backend must be *numerically interchangeable* with ``reference``
up to float rounding; the guarantee is asserted by the shared
equivalence suite in ``tests/backend/``.

:class:`EngineOperands` carries the forward-invariant state of one
crossbar engine (cells, significances, registers, complement masks and
the derived packed matrices) so backends can cache expensive
precomputations per engine instead of rebuilding them on every
``forward`` call.
"""

from __future__ import annotations

import abc
from typing import TYPE_CHECKING, Optional, Tuple

import numpy as np

from repro.obs import metrics as obs_metrics

if TYPE_CHECKING:  # pragma: no cover - typing only (avoids package cycles)
    from repro.xbar.adc import ADC


class EngineOperands:
    """Forward-invariant operands of one crossbar engine's VMM.

    Built once (at engine construction) from the programmed cell array
    of shape (rows, cols, n_cells), the per-group registers/complement
    masks of shape (n_groups, cols) and the quantization geometry. The
    derived views backends need — the crossbar real weights, the
    complement sign matrix, the per-group input-sum gain of Eq. 7 and
    the packed GEMM operands — are computed lazily and cached,
    so each backend only ever pays for the intermediates it uses and
    repeated ``forward`` calls recompute nothing.
    """

    def __init__(self, cells: np.ndarray, significance: np.ndarray,
                 registers: np.ndarray, complement: np.ndarray,
                 granularity: int, input_bits: int, weight_qmax: int,
                 weight_zero_point: int, adc: "ADC") -> None:
        """Capture the engine state; ``cells`` is (rows, cols, n_cells),
        ``registers``/``complement`` are (n_groups, cols) and
        ``significance`` is (n_cells,)."""
        self.cells = np.asarray(cells, dtype=np.float64)
        self.significance = np.asarray(significance, dtype=np.float64)
        self.registers = np.asarray(registers, dtype=np.float64)
        self.complement = np.asarray(complement, dtype=bool)
        self.granularity = int(granularity)
        self.input_bits = int(input_bits)
        self.weight_qmax = int(weight_qmax)
        self.weight_zero_point = int(weight_zero_point)
        self.adc = adc
        self.rows, self.cols, self.n_cells = self.cells.shape
        self.n_groups = self.registers.shape[0]
        self._crw: Optional[np.ndarray] = None
        self._sign: Optional[np.ndarray] = None
        self._offset_gain: Optional[np.ndarray] = None
        self._offset_gain_rows: Optional[np.ndarray] = None
        self._packed_ideal_weights: Optional[np.ndarray] = None
        self._cells_packed: Optional[np.ndarray] = None
        self._bit_weights: Optional[np.ndarray] = None

    # ------------------------------------------------------------------
    # cached derived views
    # ------------------------------------------------------------------
    @property
    def padded_rows(self) -> int:
        """Rows after padding the last partial group: scalar
        ``n_groups * granularity``."""
        return self.n_groups * self.granularity

    def _pad_rows(self, array: np.ndarray) -> np.ndarray:
        """Zero-pad the leading (row) axis of ``array`` — shape
        (rows, ...) — up to a whole number of groups."""
        pad = self.padded_rows - self.rows
        if pad == 0:
            return array
        widths = [(0, pad)] + [(0, 0)] * (array.ndim - 1)
        return np.pad(array, widths)

    @property
    def crw(self) -> np.ndarray:
        """Crossbar real weights: cells folded over significance,
        shape (rows, cols)."""
        if self._crw is None:
            self._crw = self.cells @ self.significance
        return self._crw

    @property
    def sign(self) -> np.ndarray:
        """Complement sign per group/column: +1 plain, -1 complemented,
        shape (n_groups, cols)."""
        if self._sign is None:
            self._sign = 1.0 - 2.0 * self.complement.astype(np.float64)
        return self._sign

    @property
    def offset_gain(self) -> np.ndarray:
        """Per-group input-sum gain of the digital post-processing,
        shape (n_groups, cols).

        Folding Eq. 7's offset add and Section III-C's complement into
        one matrix: a group's post-analog contribution is
        ``sign * z + gx * (sign * b + complement * qmax)`` where ``gx``
        is the group input sum, so ``group_sums @ offset_gain`` is the
        whole digital term for a batch.
        """
        if self._offset_gain is None:
            self._offset_gain = (self.sign * self.registers
                                 + self.complement * float(self.weight_qmax))
        return self._offset_gain

    @property
    def offset_gain_rows(self) -> np.ndarray:
        """:attr:`offset_gain` expanded from groups to rows, shape
        (rows, cols): ``offset_gain_rows[r] = offset_gain[r // m]``.

        Because every row of group ``g`` contributes its input once to
        the group sum ``gx_g``, the per-group digital term
        ``gx @ offset_gain`` equals the per-row GEMM
        ``x @ offset_gain_rows`` — which lets the vectorized backend fold
        the offset add into the packed weight matrix.
        """
        if self._offset_gain_rows is None:
            expanded = np.repeat(self.offset_gain, self.granularity, axis=0)
            self._offset_gain_rows = expanded[:self.rows]
        return self._offset_gain_rows

    @property
    def packed_ideal_weights(self) -> np.ndarray:
        """The single packed GEMM operand of the ideal-ADC forward,
        shape (rows, cols).

        With an ideal ADC the bit-serial sum telescopes
        (``sum_b 2^b x_bit = x``) and every remaining term of the
        integer-domain output is linear in the quantized inputs, so the
        analog contraction, the Eq. 7 offset add, the complement
        post-processing and the ISAAC zero-point correction all fold
        into one matrix::

            P = sign_rows * CRW + offset_gain_rows - weight_zero_point
            z = xq @ P

        (``sign_rows`` expands the per-group complement sign to rows the
        same way :attr:`offset_gain_rows` expands the gain.) See
        DESIGN.md's bit-plane packing section for the derivation.
        """
        if self._packed_ideal_weights is None:
            sign_rows = np.repeat(self.sign, self.granularity,
                                  axis=0)[:self.rows]
            self._packed_ideal_weights = np.ascontiguousarray(
                sign_rows * self.crw + self.offset_gain_rows
                - float(self.weight_zero_point))
        return self._packed_ideal_weights

    @property
    def cells_packed(self) -> np.ndarray:
        """Cells regrouped by offset group (zero-padded rows) with the
        column and cell axes merged into one GEMM output axis: shape
        (n_groups, granularity, cols * n_cells), contiguous.

        The batched-matmul operand of the vectorized backend's finite-ADC
        path: ``(k, bits*N, m) @ (k, m, cols*n_cells)`` produces every
        per-(bit, group, column, cell) current in one BLAS call.
        """
        if self._cells_packed is None:
            self._cells_packed = np.ascontiguousarray(
                self._pad_rows(self.cells).reshape(
                    self.n_groups, self.granularity,
                    self.cols * self.n_cells))
        return self._cells_packed

    @property
    def bit_weights(self) -> np.ndarray:
        """Shift-and-add bit significances ``2**b``, shape
        (input_bits,)."""
        if self._bit_weights is None:
            self._bit_weights = np.ldexp(
                1.0, np.arange(self.input_bits)).astype(np.float64)
        return self._bit_weights

    def grouped_bit_planes(self, xq: np.ndarray) -> np.ndarray:
        """All bit planes of a quantized batch, stacked and regrouped
        for one batched matmul: (N, rows) int inputs ->
        (n_groups, input_bits * N, granularity) float drive matrix.

        Plane ``b`` of sample ``n`` lands at stacked row ``b * N + n``,
        so the product against :attr:`cells_packed` reshapes back to
        (n_groups, input_bits, N, cols * n_cells) with a plain
        ``reshape``.
        """
        n = xq.shape[0]
        shifts = np.arange(self.input_bits, dtype=xq.dtype)
        planes = ((xq[None, :, :] >> shifts[:, None, None]) & 1)
        padded = np.pad(planes.astype(np.float64),
                        ((0, 0), (0, 0), (0, self.padded_rows - self.rows)))
        grouped = padded.reshape(self.input_bits, n, self.n_groups,
                                 self.granularity)
        stacked = grouped.transpose(2, 0, 1, 3)
        # reshape of the transposed view materialises the copy, giving
        # the contiguous (k, bits*N, m) operand BLAS wants.
        return stacked.reshape(self.n_groups, self.input_bits * n,
                               self.granularity)

    def grouped_inputs(self, x: np.ndarray) -> np.ndarray:
        """Reshape a per-row batch (N, rows) into offset groups
        (N, n_groups, granularity), zero-padding the partial last group."""
        padded = np.pad(x, ((0, 0), (0, self.padded_rows - self.rows)))
        return padded.reshape(x.shape[0], self.n_groups, self.granularity)

    def group_input_sums(self, xq: np.ndarray) -> np.ndarray:
        """Per-group input sums (the adder-tree outputs of Eq. 1):
        quantized inputs (N, rows) -> (N, n_groups)."""
        return self.grouped_inputs(xq).sum(axis=2)


class KernelBackend(abc.ABC):
    """One named, complete set of compute kernels.

    Subclasses implement the private ``_impl`` hooks; the public
    methods add the per-kernel obs counters (``backend.<name>.<kernel>``)
    so kernel traffic is visible in run manifests regardless of which
    backend served it. All kernels are pure functions of their inputs —
    backends hold no per-call state, so one instance is shared
    process-wide by the registry.
    """

    #: Registry name; subclasses override.
    name: str = "abstract"

    # ------------------------------------------------------------------
    # convolution / pooling window kernels
    # ------------------------------------------------------------------
    def im2col(self, x: np.ndarray, kh: int, kw: int, stride: int,
               pad: int) -> Tuple[np.ndarray, int, int]:
        """Unfold ``x`` (N, C, H, W) into columns (N, C*kh*kw, OH*OW);
        returns ``(cols, OH, OW)``."""
        obs_metrics.inc(f"backend.{self.name}.im2col")
        return self._im2col(x, kh, kw, stride, pad)

    def col2im(self, cols: np.ndarray, x_shape: Tuple[int, int, int, int],
               kh: int, kw: int, stride: int, pad: int) -> np.ndarray:
        """Fold columns (N, C*kh*kw, OH*OW) back into an image of shape
        ``x_shape`` (N, C, H, W), accumulating overlaps (im2col adjoint)."""
        obs_metrics.inc(f"backend.{self.name}.col2im")
        return self._col2im(cols, x_shape, kh, kw, stride, pad)

    def pool_windows(self, x: np.ndarray, k: int, stride: int) -> np.ndarray:
        """View ``x`` (N, C, H, W) as pooling windows (N, C, k*k, OH, OW)."""
        obs_metrics.inc(f"backend.{self.name}.pool_windows")
        return self._pool_windows(x, k, stride)

    # ------------------------------------------------------------------
    # crossbar VMM kernel
    # ------------------------------------------------------------------
    def engine_vmm(self, xq: np.ndarray, op: EngineOperands) -> np.ndarray:
        """The integer-domain crossbar VMM of Fig. 1(b)/Fig. 4.

        ``xq`` is the quantized input batch (N, rows); the result
        (N, cols) is the bit-serial analog accumulation through the ADC
        plus the digital offset / complement post-processing of Eq. 7
        and the ISAAC zero-point correction — everything between input
        quantization and the final dequantization scales.
        """
        obs_metrics.inc(f"backend.{self.name}.engine_vmm")
        obs_metrics.inc(f"backend.{self.name}.engine_vmm_batches",
                        xq.shape[0])
        return self._engine_vmm(xq, op)

    # ------------------------------------------------------------------
    # implementation hooks
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def _im2col(self, x: np.ndarray, kh: int, kw: int, stride: int,
                pad: int) -> Tuple[np.ndarray, int, int]:
        """Backend implementation of :meth:`im2col` — same shapes."""

    @abc.abstractmethod
    def _col2im(self, cols: np.ndarray, x_shape: Tuple[int, int, int, int],
                kh: int, kw: int, stride: int, pad: int) -> np.ndarray:
        """Backend implementation of :meth:`col2im` — same shapes."""

    @abc.abstractmethod
    def _pool_windows(self, x: np.ndarray, k: int,
                      stride: int) -> np.ndarray:
        """Backend implementation of :meth:`pool_windows` — same shapes."""

    @abc.abstractmethod
    def _engine_vmm(self, xq: np.ndarray,
                    op: EngineOperands) -> np.ndarray:
        """Backend implementation of :meth:`engine_vmm` — same shapes."""

    def __repr__(self) -> str:
        return f"<{type(self).__name__} name={self.name!r}>"
