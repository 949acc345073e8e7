"""Stuck-at-fault (SAF) injection.

The paper positions digital offsets against Zhang & Hu's ASP-DAC'20
compensation scheme, which targets *stuck-at faults* rather than
resistance variation: fabrication defects pin a cell permanently to its
lowest (stuck-at-0 / high resistance) or highest (stuck-at-1 / low
resistance) conductance regardless of what is programmed. Real arrays
exhibit both SAFs and variation, so this module provides the persistent
per-cell fault maps that the ``stuck_at`` scenario
(:class:`repro.array.scenarios.StuckAtScenario`, also reached through
``DeployConfig.saf_rates`` / ``--saf``) pins over each freshly
programmed array: a deployment can then measure how much of the SAF
damage the (group-shared) offsets recover — the extension studied in
``benchmarks/bench_faults.py``.

Typical published SAF rates are ~1-10% of cells, split roughly 1:5
between stuck-at-1 and stuck-at-0 (SA0 dominates).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from repro.device.cell import CellType
from repro.utils.rng import RngLike, make_rng


@dataclass(frozen=True)
class FaultMap:
    """Persistent per-cell fault state of one crossbar region."""

    stuck_at_0: np.ndarray      # bool, cell pinned to the OFF conductance
    stuck_at_1: np.ndarray      # bool, cell pinned to the ON conductance

    def __post_init__(self):
        if self.stuck_at_0.shape != self.stuck_at_1.shape:
            raise ValueError("fault masks must have identical shapes")
        if (self.stuck_at_0 & self.stuck_at_1).any():
            raise ValueError("a cell cannot be stuck at both levels")

    @classmethod
    def empty(cls, shape: Tuple[int, ...]) -> "FaultMap":
        """A fault-free map covering a cell array of ``shape``."""
        return cls(stuck_at_0=np.zeros(shape, dtype=bool),
                   stuck_at_1=np.zeros(shape, dtype=bool))

    @property
    def shape(self) -> Tuple[int, ...]:
        """The cell-array shape both fault masks cover."""
        return self.stuck_at_0.shape

    @property
    def fault_rate(self) -> float:
        """Fraction of cells stuck at either level."""
        total = self.stuck_at_0.size
        return float((self.stuck_at_0.sum() + self.stuck_at_1.sum()) / total)

    def apply(self, conductances: np.ndarray, cell: CellType) -> np.ndarray:
        """Pin faulty cells; healthy cells pass through unchanged.

        ``conductances`` must match the fault-map shape exactly; the
        result has the same shape.
        """
        if conductances.shape != self.shape:
            raise ValueError(
                f"conductance shape {conductances.shape} does not match "
                f"fault map shape {self.shape}")
        out = np.array(conductances, copy=True)
        g_off = cell.conductance(np.zeros(1))[0]
        g_on = cell.conductance(np.array([cell.max_level]))[0]
        out[self.stuck_at_0] = g_off
        out[self.stuck_at_1] = g_on
        return out


def sample_fault_map(shape: Tuple[int, ...], sa0_rate: float,
                     sa1_rate: float, rng: RngLike = None) -> FaultMap:
    """Draw a random persistent fault map for a cell array."""
    if sa0_rate < 0 or sa1_rate < 0 or sa0_rate + sa1_rate > 1:
        raise ValueError("fault rates must be non-negative and sum <= 1")
    rng = make_rng(rng)
    u = rng.random(shape)
    return FaultMap(stuck_at_0=u < sa0_rate,
                    stuck_at_1=(u >= sa0_rate) & (u < sa0_rate + sa1_rate))
