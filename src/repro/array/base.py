"""The abstract crossbar-array interface (hardware-abstraction layer).

An :class:`ArrayBackend` is one physical (or simulated) RRAM array
holding the cells of a single weight matrix: ``cells_per_weight``
physical columns per weight column, one wordline per matrix row. The
interface is deliberately small — exactly the operations the deployer
needs from an array:

* :meth:`ArrayBackend.program` — write integer weight values (one
  programming cycle; simulators redraw their cycle-to-cycle noise);
* :meth:`ArrayBackend.load_cells` — overwrite the raw cell image (used
  by scenario transforms);
* :meth:`ArrayBackend.read_back` — measure the current per-cell
  conductances (what PWT's post-writing read-back consumes);
* :meth:`ArrayBackend.key_components` — the declared
  capability/metadata dict that content-addressed cache keys fold in,
  so two arrays share artifacts exactly when their physics agree.

The one concrete array is the lognormal simulator
:class:`repro.array.sim.SimArray`; composable non-ideality transforms
wrap it via :class:`repro.array.scenarios.ScenarioArray`. Analog
compute over the programmed cells is the crossbar engine's job
(:mod:`repro.xbar.engine`), not the array's.
"""

from __future__ import annotations

import abc
from typing import Any, ClassVar, Dict

import numpy as np

from repro.utils.rng import RngLike

__all__ = ["ArrayBackend"]


class ArrayBackend(abc.ABC):
    """One crossbar array behind the hardware-abstraction layer.

    State contract: an array is created unprogrammed; :meth:`program`
    (or :meth:`load_cells`) installs a cell image of shape
    ``(rows, cols, cells_per_weight)`` which :meth:`read_back` then
    observes. Instances persist across programming cycles, so
    chip-persistent non-idealities (fault maps, per-device
    coefficients) live in the array, not the caller.
    """

    #: Name of the array implementation (e.g. ``"sim"``), folded into
    #: :meth:`key_components`.
    name: ClassVar[str] = "abstract"

    # ------------------------------------------------------------------
    # geometry
    # ------------------------------------------------------------------
    @property
    @abc.abstractmethod
    def rows(self) -> int:
        """Wordline count (weight-matrix rows)."""

    @property
    @abc.abstractmethod
    def cols(self) -> int:
        """Weight-column count (weight-matrix cols)."""

    @property
    @abc.abstractmethod
    def cells_per_weight(self) -> int:
        """Physical cells (bit slices) per weight."""

    @property
    @abc.abstractmethod
    def cell(self) -> Any:
        """The :class:`repro.device.cell.CellType` of this array."""

    # ------------------------------------------------------------------
    # programming / read-back
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def program(self, values: np.ndarray, rng: RngLike = None) -> np.ndarray:
        """Program integer weights ``values`` (rows, cols) — one cycle.

        Returns the resulting per-cell conductances, shape
        (rows, cols, cells_per_weight), which also become the array's
        current state. Simulated backends redraw cycle-to-cycle noise
        on every call, exactly like a physical re-programming.
        """

    @abc.abstractmethod
    def load_cells(self, cells: np.ndarray) -> None:
        """Overwrite the raw cell image, shape (rows, cols, n_cells).

        This is the scenario engine's injection point: transforms
        observe :meth:`program`'s output, perturb it, and store the
        perturbed image back so every later read-back sees it.
        """

    @abc.abstractmethod
    def read_back(self) -> np.ndarray:
        """Measure the current cell conductances.

        Returns shape (rows, cols, cells_per_weight); raises
        ``RuntimeError`` if the array was never programmed.
        """

    # ------------------------------------------------------------------
    # identity / cache keying
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def key_components(self) -> Dict[str, Any]:
        """The capability/metadata dict naming this array's physics.

        Folded into content-addressed cache keys (``serve_program``)
        so programmed state is reused exactly when the array would
        reproduce it: backend name, cell technology, variation
        parameters, and any wrapped scenario parameters. Values must
        be fingerprintable by :func:`repro.cache.keys.fingerprint`
        (scalars, strings, nested tuples/dicts) — never raw arrays of
        programmed state.
        """

    def __repr__(self) -> str:
        return (f"{type(self).__name__}(rows={self.rows}, cols={self.cols}, "
                f"cells_per_weight={self.cells_per_weight})")
