"""The lognormal crossbar-array simulator behind the HAL.

:class:`SimArray` is the original pipeline's device physics — a
:class:`repro.device.lut.DeviceModel` (lognormal DDV/CCV, finite ON/OFF
ratio, bit-sliced cells) — re-packaged as an
:class:`repro.array.base.ArrayBackend`. Stuck-at faults and the other
non-idealities are scenarios (:mod:`repro.array.scenarios`) layered
over it, not part of the simulator. Programming delegates to
``device.program_cells`` with the caller's rng, so the random draw
sequence is *identical* to calling the device model directly: the
bit-parity guarantee of the refactor holds by construction, not by
luck (verified in ``tests/array/test_equivalence.py``).

Analog reads route through a lazily-built
:class:`repro.xbar.crossbar.Crossbar` whose bitlines are the flattened
physical cell columns (``cols * cells_per_weight`` of them, cell-major
within each weight).
"""

from __future__ import annotations

from typing import Any, Dict, Optional

import numpy as np

from repro.array.base import ArrayBackend
from repro.device.cell import CellType
from repro.device.lut import DeviceModel, device_key_components
from repro.obs import metrics as obs_metrics
from repro.utils.rng import RngLike
from repro.xbar.crossbar import Crossbar

__all__ = ["SimArray"]

class SimArray(ArrayBackend):
    """Simulated RRAM array: lognormal device-to-device and
    cycle-to-cycle variation.

    One instance is one array region of ``rows`` x ``cols`` weights
    (``rows`` x ``cols * cells_per_weight`` physical cells).
    """

    name = "sim"

    def __init__(self, device: DeviceModel, rows: int, cols: int):
        """Build an unprogrammed array over ``device`` physics.

        ``rows`` / ``cols`` are the weight-matrix dimensions; the cell
        image programmed later has shape (rows, cols, cells_per_weight).
        """
        if rows < 1 or cols < 1:
            raise ValueError("array dimensions must be positive")
        self.device = device
        self._rows = int(rows)
        self._cols = int(cols)
        self._cells: Optional[np.ndarray] = None
        self._xbar: Optional[Crossbar] = None

    # ------------------------------------------------------------------
    # geometry
    # ------------------------------------------------------------------
    @property
    def rows(self) -> int:
        """Wordline count (weight-matrix rows)."""
        return self._rows

    @property
    def cols(self) -> int:
        """Weight-column count (weight-matrix cols)."""
        return self._cols

    @property
    def cells_per_weight(self) -> int:
        """Physical cells (bit slices) per weight."""
        return self.device.cells_per_weight

    @property
    def cell(self) -> CellType:
        """The cell technology of the simulated devices."""
        return self.device.cell

    # ------------------------------------------------------------------
    # programming / read-back
    # ------------------------------------------------------------------
    def program(self, values: np.ndarray, rng: RngLike = None) -> np.ndarray:
        """Program one cycle; returns cells (rows, cols, cells_per_weight).

        Delegates straight to ``device.program_cells(values, rng)`` —
        the exact call (and rng draw sequence) the pre-HAL deployer
        made, so results are bit-identical to it.
        """
        values = np.asarray(values)
        if values.shape != (self._rows, self._cols):
            raise ValueError(
                f"expected values of shape {(self._rows, self._cols)}, "
                f"got {values.shape}")
        cells = self.device.program_cells(values, rng)
        obs_metrics.inc("array.program_cycles")
        self._set_cells(cells)
        return cells

    def load_cells(self, cells: np.ndarray) -> None:
        """Overwrite the cell image, shape (rows, cols, cells_per_weight)."""
        self._set_cells(np.asarray(cells, dtype=np.float64))

    def _set_cells(self, cells: np.ndarray) -> None:
        """Install ``cells`` as current state; invalidates the VMM xbar."""
        expected = (self._rows, self._cols, self.cells_per_weight)
        if cells.shape != expected:
            raise ValueError(
                f"expected cells of shape {expected}, got {cells.shape}")
        self._cells = cells
        self._xbar = None               # rebuilt lazily on the next vmm

    def read_back(self) -> np.ndarray:
        """The current cell conductances (rows, cols, cells_per_weight)."""
        if self._cells is None:
            raise RuntimeError("array has not been programmed")
        return self._cells

    # ------------------------------------------------------------------
    # analog compute
    # ------------------------------------------------------------------
    def _crossbar(self) -> Crossbar:
        """The physical-bitline view: (rows, cols * n_cells) crossbar."""
        if self._xbar is None:
            cells = self.read_back()
            xbar = Crossbar(self._rows, self._cols * self.cells_per_weight)
            xbar.write(cells.reshape(self._rows, -1))
            self._xbar = xbar
        return self._xbar

    def vmm(self, x: np.ndarray,
            active_rows: Optional[np.ndarray] = None) -> np.ndarray:
        """Bitline currents: x (..., rows) -> (..., cols * n_cells)."""
        return self._crossbar().vmm(x, active_rows)

    def vmm_grouped(self, x: np.ndarray, group_rows: int) -> np.ndarray:
        """Per-group partials: x (..., rows) -> (..., n_groups, cols * n_cells)."""
        return self._crossbar().vmm_grouped(x, group_rows)

    # ------------------------------------------------------------------
    # identity / cache keying
    # ------------------------------------------------------------------
    def key_components(self) -> Dict[str, Any]:
        """Backend name + every device parameter that shapes the physics.

        Flat scalar dict (nested under ``array_components`` in serve
        keys).
        """
        components: Dict[str, Any] = {"array": self.name}
        components.update(device_key_components(self.device))
        return components
