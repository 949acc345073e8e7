"""Composable non-ideality scenarios over any :class:`ArrayBackend`.

A *scenario* is one stackable device/environment non-ideality — stuck-at
fault maps (:mod:`repro.device.faults`; the library's only stuck-at
mechanism, which ``DeployConfig.saf_rates`` / ``--saf`` prepend to the
stack as sugar), a temperature
coefficient on every cell's conductance (arXiv 2105.05534),
time-indexed conductance drift/retention, extra program-verify noise —
expressed as a transform of the freshly-programmed cell image.
:class:`ScenarioArray` wraps an array backend and replays the stack
after every programming cycle:

.. code-block:: python

    scenarios = parse_scenario_spec(
        "stuck_at:sa0_rate=0.05,sa1_rate=0.01;drift:t_seconds=1e4")
    array = ScenarioArray(SimArray(device, rows, cols), scenarios, seed)

Scenario objects are frozen parameter records; the *persistent* chip
state they imply (which cells are stuck, each cell's temperature
coefficient, each cell's drift exponent) is sampled once per array
region from a dedicated seed stream and reused across programming
cycles, as on silicon: every region draws its own state, so two
same-shaped layers never share stuck cells. Per-cycle noise
(:class:`ProgramNoiseScenario`) instead draws from the programming rng
*after* the wrapped backend consumed its draws, so an empty stack
leaves the draw sequence untouched (the bit-parity guarantee).

Every scenario folds its parameters into
:meth:`ScenarioArray.key_components`, which the serve registry's
``serve_program`` content-addressed keys consume — programmed state is
shared exactly between runs with identical physics *and* identical
scenario stacks.
"""

from __future__ import annotations

import abc
import dataclasses
from dataclasses import dataclass
from typing import (Any, ClassVar, Dict, List, Optional, Sequence, Tuple,
                    Type, Union)

import numpy as np

from repro.array.base import ArrayBackend
from repro.device.cell import CellType
from repro.device.faults import FaultMap, sample_fault_map
from repro.device.variation import sample_temperature_coefficients
from repro.obs import metrics as obs_metrics
from repro.utils.rng import RngLike, SeedLike, make_rng, spawn_seeds

__all__ = [
    "Scenario", "StuckAtScenario", "TempCoefficientScenario",
    "DriftScenario", "ProgramNoiseScenario", "ScenarioArray",
    "available_scenarios", "register_scenario", "parse_scenario_spec",
    "scenario_key_components",
]

#: Accepted scenario-spec inputs: the declarative string form, a
#: parsed stack, or per-scenario parameter dicts (``{"name": ...}``).
ScenarioSpec = Union[None, str, Sequence["Scenario"],
                     Sequence[Dict[str, Any]]]


@dataclass(frozen=True)
class Scenario(abc.ABC):
    """One stackable non-ideality: frozen parameters + a cell transform.

    Subclasses are frozen dataclasses whose fields are float/int
    parameters (they must fingerprint into cache keys). Persistent
    chip state is built once per array region by :meth:`init_state`
    from a dedicated rng; :meth:`apply` then transforms each
    programming cycle's cell image.
    """

    #: Registry/spec name of the scenario (e.g. ``"stuck_at"``).
    name: ClassVar[str] = "abstract"

    def key_components(self) -> Dict[str, Any]:
        """Name + every parameter, as a flat scalar dict (cache keying)."""
        return {"scenario": self.name, **dataclasses.asdict(self)}

    def init_state(self, shape: Tuple[int, ...], cell: CellType,
                   rng: np.random.Generator) -> Any:
        """Sample the persistent chip state for a cell region ``shape``.

        Called once per array region from a dedicated seed stream;
        return ``None`` (the default) for purely per-cycle scenarios.
        """
        return None

    @abc.abstractmethod
    def apply(self, cells: np.ndarray, cell: CellType, state: Any,
              rng: np.random.Generator) -> np.ndarray:
        """Transform one cycle's cell image (shape preserved).

        ``cells`` is (rows, cols, n_cells); ``state`` is this region's
        :meth:`init_state` result; ``rng`` is the programming stream
        (already advanced past the backend's own draws) for per-cycle
        noise. Must return a new array — never mutate ``cells``.
        """


@dataclass(frozen=True)
class StuckAtScenario(Scenario):
    """Fabrication stuck-at faults: cells pinned to OFF/ON conductance.

    Persistent state is a :class:`repro.device.faults.FaultMap`; typical
    published rates are ~1-10% of cells, SA0-dominated.
    """

    name: ClassVar[str] = "stuck_at"

    sa0_rate: float = 0.05
    sa1_rate: float = 0.01

    def init_state(self, shape: Tuple[int, ...], cell: CellType,
                   rng: np.random.Generator) -> FaultMap:
        """The region's persistent fault map (drawn once per chip)."""
        return sample_fault_map(shape, self.sa0_rate, self.sa1_rate, rng)

    def apply(self, cells: np.ndarray, cell: CellType, state: FaultMap,
              rng: np.random.Generator) -> np.ndarray:
        """Pin the stuck cells; healthy cells pass through unchanged."""
        return state.apply(cells, cell)


@dataclass(frozen=True)
class TempCoefficientScenario(Scenario):
    """Linear temperature dependence of conductance (arXiv 2105.05534).

    ``G(T) = G0 * (1 + alpha * (T - t_ref))`` with a persistent
    per-cell coefficient ``alpha ~ N(alpha_mean, alpha_std)``. RRAM
    LRS conductance typically falls with temperature, so the default
    mean coefficient is negative.
    """

    name: ClassVar[str] = "temperature"

    temperature: float = 350.0      # operating temperature [K]
    t_ref: float = 300.0            # characterisation temperature [K]
    alpha_mean: float = -1.5e-3     # mean coefficient [1/K]
    alpha_std: float = 5e-4         # device-to-device spread [1/K]

    def init_state(self, shape: Tuple[int, ...], cell: CellType,
                   rng: np.random.Generator) -> np.ndarray:
        """Per-cell temperature coefficients, same ``shape`` as the cells."""
        return sample_temperature_coefficients(
            shape, self.alpha_mean, self.alpha_std, rng)

    def apply(self, cells: np.ndarray, cell: CellType, state: np.ndarray,
              rng: np.random.Generator) -> np.ndarray:
        """Scale each cell by its linear T-response (clipped at G=0)."""
        factor = 1.0 + state * (self.temperature - self.t_ref)
        return np.maximum(cells * factor, 0.0)


@dataclass(frozen=True)
class DriftScenario(Scenario):
    """Power-law conductance drift / retention loss.

    ``G(t) = G0 * (t / t0)^(-nu)`` with a persistent per-cell drift
    exponent ``nu ~ N(nu_mean, nu_std)`` (clipped at 0): the standard
    retention model for resistive memories, evaluated at a fixed time
    ``t_seconds`` after programming.
    """

    name: ClassVar[str] = "drift"

    t_seconds: float = 1e4          # read time after programming [s]
    t0_seconds: float = 1.0         # normalisation time [s]
    nu_mean: float = 0.05           # mean drift exponent
    nu_std: float = 0.01            # device-to-device spread

    def __post_init__(self):
        if self.t_seconds <= 0 or self.t0_seconds <= 0:
            raise ValueError("drift times must be positive")

    def init_state(self, shape: Tuple[int, ...], cell: CellType,
                   rng: np.random.Generator) -> np.ndarray:
        """Per-cell drift exponents nu >= 0, same ``shape`` as the cells."""
        return np.maximum(rng.normal(self.nu_mean, self.nu_std, size=shape),
                          0.0)

    def apply(self, cells: np.ndarray, cell: CellType, state: np.ndarray,
              rng: np.random.Generator) -> np.ndarray:
        """Decay each cell by its power-law factor at ``t_seconds``."""
        return cells * (self.t_seconds / self.t0_seconds) ** (-state)


@dataclass(frozen=True)
class ProgramNoiseScenario(Scenario):
    """Extra lognormal program-verify noise on top of the base model.

    Models a sloppier verify loop (fewer pulses, wider acceptance
    window): each cycle multiplies every cell by ``exp(N(0, sigma))``,
    drawn from the programming rng — per-cycle, not chip-persistent.
    """

    name: ClassVar[str] = "program_noise"

    sigma: float = 0.1

    def __post_init__(self):
        if self.sigma < 0:
            raise ValueError("sigma must be non-negative")

    def apply(self, cells: np.ndarray, cell: CellType, state: None,
              rng: np.random.Generator) -> np.ndarray:
        """Multiply by a fresh lognormal factor (one draw per cell)."""
        if self.sigma == 0:
            return np.array(cells, copy=True)
        return cells * np.exp(rng.normal(0.0, self.sigma, size=cells.shape))


# ----------------------------------------------------------------------
# scenario registry + declarative spec parsing
# ----------------------------------------------------------------------
_SCENARIO_TYPES: Dict[str, Type[Scenario]] = {}


def register_scenario(scenario_type: Type[Scenario],
                      replace: bool = False) -> None:
    """Register a :class:`Scenario` subclass under its ``name``.

    Registered names become available to :func:`parse_scenario_spec`
    (the ``--scenarios`` flag). Re-registering raises unless
    ``replace=True``.
    """
    name = scenario_type.name
    if name in _SCENARIO_TYPES and not replace:
        raise ValueError(f"scenario {name!r} is already registered")
    _SCENARIO_TYPES[name] = scenario_type


def available_scenarios() -> Tuple[str, ...]:
    """The registered scenario names, sorted."""
    return tuple(sorted(_SCENARIO_TYPES))


def _build_scenario(name: str, params: Dict[str, Any]) -> Scenario:
    """Instantiate registered scenario ``name`` with ``params``."""
    scenario_type = _SCENARIO_TYPES.get(name)
    if scenario_type is None:
        known = ", ".join(available_scenarios()) or "<none>"
        raise ValueError(
            f"unknown scenario {name!r} — registered scenarios: {known}")
    valid = {f.name for f in dataclasses.fields(scenario_type)}
    unknown = sorted(set(params) - valid)
    if unknown:
        raise ValueError(
            f"scenario {name!r} has no parameter(s) {unknown} — "
            f"valid parameters: {sorted(valid)}")
    return scenario_type(**params)


def parse_scenario_spec(spec: ScenarioSpec) -> Tuple[Scenario, ...]:
    """Parse a declarative scenario spec into a scenario stack.

    Accepts ``None``/empty (no scenarios), an already-built sequence of
    :class:`Scenario` objects, a sequence of ``{"name": ..., param:
    value}`` dicts, or the CLI string form::

        "stuck_at:sa0_rate=0.05,sa1_rate=0.01;drift:t_seconds=1e4"

    (semicolon-separated scenarios, comma-separated ``key=value`` float
    parameters; omitted parameters keep their defaults). Scenarios are
    applied in the order given.
    """
    if spec is None:
        return ()
    if isinstance(spec, str):
        stack: List[Scenario] = []
        for chunk in spec.split(";"):
            chunk = chunk.strip()
            if not chunk:
                continue
            name, _, param_str = chunk.partition(":")
            params: Dict[str, Any] = {}
            for pair in param_str.split(","):
                pair = pair.strip()
                if not pair:
                    continue
                key, sep, value = pair.partition("=")
                if not sep or not key.strip():
                    raise ValueError(
                        f"malformed scenario parameter {pair!r} in {chunk!r} "
                        f"(expected key=value)")
                try:
                    params[key.strip()] = float(value)
                except ValueError:
                    raise ValueError(
                        f"scenario parameter {key.strip()!r} in {chunk!r} "
                        f"must be numeric, got {value!r}") from None
            stack.append(_build_scenario(name.strip(), params))
        return tuple(stack)
    out: List[Scenario] = []
    for item in spec:
        if isinstance(item, Scenario):
            out.append(item)
        elif isinstance(item, dict):
            params = dict(item)
            name = params.pop("name", None)
            if not isinstance(name, str):
                raise ValueError(
                    f"scenario dict needs a 'name' string, got {item!r}")
            out.append(_build_scenario(name, params))
        else:
            raise TypeError(
                f"scenario spec entries must be Scenario or dict, "
                f"got {type(item).__name__}")
    return tuple(out)


def scenario_key_components(
        scenarios: Sequence[Scenario]) -> Tuple[Dict[str, Any], ...]:
    """The stack's cache-key view: one parameter dict per scenario,
    in application order. Empty stack -> empty tuple (so keys of
    scenario-free runs are built from the same information as before
    the scenario engine existed)."""
    return tuple(sc.key_components() for sc in scenarios)


# ----------------------------------------------------------------------
# the wrapping backend
# ----------------------------------------------------------------------
class ScenarioArray(ArrayBackend):
    """An :class:`ArrayBackend` with a scenario stack applied on program.

    Wraps ``inner``: every :meth:`program` first programs the inner
    array, then replays the scenario transforms over the fresh cell
    image and stores the result back via ``inner.load_cells`` — so
    read-back, VMM and PWT's compensation all observe the perturbed
    chip, exactly as on real hardware. ``seed`` feeds one dedicated
    persistent-state stream per scenario (chip state is fixed across
    programming cycles and independent of the per-trial rng).
    """

    name = "scenario"

    def __init__(self, inner: ArrayBackend, scenarios: Sequence[Scenario],
                 seed: SeedLike):
        """Wrap ``inner`` with ``scenarios`` (applied in order)."""
        self.inner = inner
        self.scenarios: Tuple[Scenario, ...] = tuple(scenarios)
        self._state_seeds = spawn_seeds(seed, len(self.scenarios))
        self._states: List[Any] = [None] * len(self.scenarios)
        self._initialized = [False] * len(self.scenarios)

    # ------------------------------------------------------------------
    # geometry (delegated)
    # ------------------------------------------------------------------
    @property
    def rows(self) -> int:
        """Wordline count (delegates to the wrapped array)."""
        return self.inner.rows

    @property
    def cols(self) -> int:
        """Weight-column count (delegates to the wrapped array)."""
        return self.inner.cols

    @property
    def cells_per_weight(self) -> int:
        """Physical cells per weight (delegates to the wrapped array)."""
        return self.inner.cells_per_weight

    @property
    def cell(self) -> CellType:
        """Cell technology (delegates to the wrapped array)."""
        return self.inner.cell

    # ------------------------------------------------------------------
    # programming / read-back
    # ------------------------------------------------------------------
    def _state_for(self, index: int, shape: Tuple[int, ...]) -> Any:
        """The persistent state of scenario ``index`` for this region.

        Sampled lazily on the first programming cycle from the
        scenario's dedicated stream — deterministic in the wrapper's
        seed, independent of trial order.
        """
        if not self._initialized[index]:
            rng = make_rng(self._state_seeds[index])
            self._states[index] = self.scenarios[index].init_state(
                shape, self.cell, rng)
            self._initialized[index] = True
        return self._states[index]

    def program(self, values: np.ndarray, rng: RngLike = None) -> np.ndarray:
        """Program the inner array, then replay the scenario stack.

        Returns (and installs) the perturbed cell image, shape
        (rows, cols, cells_per_weight).
        """
        rng = make_rng(rng)
        cells = self.inner.program(values, rng)
        for i, scenario in enumerate(self.scenarios):
            state = self._state_for(i, cells.shape)
            cells = scenario.apply(cells, self.cell, state, rng)
            obs_metrics.inc(f"scenario.{scenario.name}.applied")
        if cells.shape != (self.rows, self.cols, self.cells_per_weight):
            raise ValueError(
                "scenario transforms must preserve the cell-image shape")
        self.inner.load_cells(cells)
        return cells

    def load_cells(self, cells: np.ndarray) -> None:
        """Overwrite the inner array's cell image (no scenario replay)."""
        self.inner.load_cells(cells)

    def read_back(self) -> np.ndarray:
        """The current (scenario-perturbed) cell conductances."""
        return self.inner.read_back()

    # ------------------------------------------------------------------
    # analog compute (delegated — state already holds the perturbation)
    # ------------------------------------------------------------------
    def vmm(self, x: np.ndarray,
            active_rows: Optional[np.ndarray] = None) -> np.ndarray:
        """Bitline currents over the perturbed state (delegated)."""
        return self.inner.vmm(x, active_rows)

    def vmm_grouped(self, x: np.ndarray, group_rows: int) -> np.ndarray:
        """Per-group partial currents over the perturbed state (delegated)."""
        return self.inner.vmm_grouped(x, group_rows)

    # ------------------------------------------------------------------
    # identity / cache keying
    # ------------------------------------------------------------------
    def key_components(self) -> Dict[str, Any]:
        """Inner components plus the full scenario-stack parameters."""
        components = dict(self.inner.key_components())
        components["scenarios"] = scenario_key_components(self.scenarios)
        return components


def _register_builtins() -> None:
    """Register the scenario types that ship with the library."""
    for scenario_type in (StuckAtScenario, TempCoefficientScenario,
                          DriftScenario, ProgramNoiseScenario):
        register_scenario(scenario_type, replace=True)


_register_builtins()
