"""Crossbar-array hardware-abstraction layer.

Every programmed weight matrix in the deployer lives on an
:class:`~repro.array.base.ArrayBackend`, so array physics stays behind
one small interface the paper-faithful pipeline never looks past. The
library ships one array, the lognormal simulator
:class:`~repro.array.sim.SimArray`; composable non-ideality transforms
(:mod:`repro.array.scenarios`) wrap it in a
:class:`~repro.array.scenarios.ScenarioArray`:

.. code-block:: python

    from repro.array import ScenarioArray, SimArray
    from repro.array.scenarios import parse_scenario_spec

    array = SimArray(device, rows, cols)
    array = ScenarioArray(array, parse_scenario_spec("drift"), seed)

A bare ``SimArray`` (or one wrapped in an empty scenario stack) is the
bit-parity baseline: deploy/serve results are identical to programming
through ``DeviceModel.program_cells`` directly (asserted by
``tests/array/``).
"""

from repro.array.base import ArrayBackend
from repro.array.scenarios import ScenarioArray
from repro.array.sim import SimArray

__all__ = ["ArrayBackend", "ScenarioArray", "SimArray"]
