"""Microbenchmarks of the library's computational kernels.

These are classic pytest-benchmark targets (many rounds, statistical
timing) for the hot paths: device programming, the VAWO solver, the
bit-accurate engine, and a crossbar-layer forward pass. They guard
against performance regressions rather than reproducing a paper number.

The engine and conv kernels run once per registered compute backend
(``reference`` and ``vectorized``); each (kernel, backend) pair writes
a ``kernels-<kernel>-<backend>.json`` sidecar whose ``elapsed_s`` is
the measured mean, so the ``bench-regress`` gate tracks every kernel
set independently. ``vectorized`` sidecars record
``speedup_vs_reference``.
"""

import pytest
import numpy as np

from _common import report

from repro.backend import use_backend
from repro.core.offsets import OffsetPlan
from repro.core.vawo import run_vawo
from repro.device.cell import MLC2, SLC
from repro.device.lut import DeviceModel, build_lut_analytic
from repro.device.variation import VariationModel
from repro.nn import functional as F
from repro.nn.tensor import Tensor
from repro.xbar.engine import CrossbarEngine
from repro.utils.rng import make_rng

BACKENDS = ("reference", "vectorized")

#: Mean seconds per (kernel, backend), for the speedup sidecar fields.
_MEANS = {}


def _record(benchmark, kernel: str, backend: str) -> None:
    """Write the per-(kernel, backend) sidecar from the measured mean."""
    stats = getattr(benchmark, "stats", None)
    if stats is None:                      # --benchmark-disable run
        return
    mean = stats.stats.mean
    _MEANS[(kernel, backend)] = mean
    data = {"kernel": kernel, "backend": backend, "mean_s": mean}
    note = ""
    ref = _MEANS.get((kernel, "reference"))
    if backend != "reference" and ref:
        data["speedup_vs_reference"] = ref / mean
        note = f"  ({ref / mean:.1f}x vs reference)"
    report(f"kernels-{kernel}-{backend}",
           [f"{kernel} [{backend}]: mean {mean * 1e3:.3f} ms" + note],
           data=data, elapsed_s=mean)


def test_device_programming_128x128(benchmark):
    device = DeviceModel(MLC2, VariationModel(0.5), n_bits=8)
    values = make_rng(0).integers(0, 256, size=(128, 128))
    rng = make_rng(1)
    benchmark(device.program_cells, values, rng)


def test_lut_build_analytic(benchmark):
    device = DeviceModel(SLC, VariationModel(0.5), n_bits=8)
    benchmark(build_lut_analytic, device)


def test_vawo_solver_128x128(benchmark):
    rng = make_rng(0)
    device = DeviceModel(SLC, VariationModel(0.5), n_bits=8)
    lut = build_lut_analytic(device)
    plan = OffsetPlan(128, 128, 16)
    ntw = np.clip(np.round(rng.normal(128, 30, size=(128, 128))),
                  0, 255).astype(np.int64)
    grads = np.abs(rng.normal(size=(128, 128)))
    benchmark.pedantic(run_vawo, args=(ntw, grads, lut, plan),
                       kwargs=dict(use_complement=True),
                       rounds=3, iterations=1)


@pytest.mark.parametrize("backend", BACKENDS)
def test_bit_accurate_engine_forward(benchmark, backend):
    rng = make_rng(0)
    device = DeviceModel(MLC2, VariationModel(0.5), n_bits=8)
    plan = OffsetPlan(128, 32, 16)
    values = rng.integers(0, 256, size=(128, 32))
    engine = CrossbarEngine(
        cells=device.program_cells(values, rng), plan=plan,
        registers=np.zeros((plan.n_groups, 32)),
        complement=np.zeros((plan.n_groups, 32), dtype=bool),
        cell=MLC2, input_scale=1 / 255, weight_scale=0.01,
        weight_zero_point=128, backend=backend)
    x = rng.uniform(0, 1, size=(16, 128))
    # One warmup round so every backend's one-time setup (cached packed
    # operands, einsum path caches) is excluded from the steady-state
    # mean the regress gate tracks.
    benchmark.pedantic(engine.forward, args=(x,), rounds=3, iterations=1,
                       warmup_rounds=1)
    _record(benchmark, "engine-forward", backend)


@pytest.mark.parametrize("backend", BACKENDS)
def test_conv2d_float_forward(benchmark, backend):
    """The fast float conv path (im2col + shared matmul)."""
    rng = make_rng(0)
    x = Tensor(rng.normal(size=(8, 3, 32, 32)))
    w = Tensor(rng.normal(size=(16, 3, 3, 3)))
    with use_backend(backend):
        benchmark.pedantic(F.conv2d, args=(x, w),
                           kwargs=dict(stride=1, padding=1),
                           rounds=3, iterations=1)
    _record(benchmark, "conv2d-float", backend)


@pytest.mark.parametrize("backend", BACKENDS)
def test_conv_via_crossbar_engine(benchmark, backend):
    """Conv the way the paper runs it: im2col columns through the
    bit-accurate crossbar engine of the unrolled kernel matrix."""
    from repro.backend import get_backend

    rng = make_rng(0)
    c_in, kh, kw, f = 8, 3, 3, 16
    rows = c_in * kh * kw                                  # 72 wordlines
    device = DeviceModel(MLC2, VariationModel(0.5), n_bits=8)
    plan = OffsetPlan(rows, f, 8)
    values = rng.integers(0, 256, size=(rows, f))
    engine = CrossbarEngine(
        cells=device.program_cells(values, rng), plan=plan,
        registers=np.zeros((plan.n_groups, f)),
        complement=np.zeros((plan.n_groups, f), dtype=bool),
        cell=MLC2, input_scale=1 / 255, weight_scale=0.01,
        weight_zero_point=128, backend=backend)
    x = rng.uniform(0, 1, size=(4, c_in, 14, 14))

    def conv_on_crossbar():
        cols, oh, ow = get_backend(backend).im2col(x, kh, kw, 1, 1)
        flat = cols.transpose(0, 2, 1).reshape(-1, rows)   # (N*OH*OW, rows)
        return engine.forward(flat)

    benchmark.pedantic(conv_on_crossbar, rounds=3, iterations=1,
                       warmup_rounds=1)
    _record(benchmark, "conv-engine", backend)


def test_crossbar_layer_forward(benchmark):
    from repro.core.crossbar_layers import CrossbarLinear

    rng = make_rng(0)
    device = DeviceModel(SLC, VariationModel(0.5), n_bits=8)
    plan = OffsetPlan(400, 120, 16)
    values = rng.integers(0, 256, size=(400, 120))
    layer = CrossbarLinear(
        cells=device.program_cells(values, rng), plan=plan,
        registers=np.zeros((plan.n_groups, 120)),
        complement=np.zeros((plan.n_groups, 120), dtype=bool),
        cell=SLC, weight_bits=8, weight_scale=0.01, weight_zero_point=128)
    x = Tensor(rng.uniform(size=(64, 400)))
    benchmark(layer, x)


def test_write_verify_pulse_loop(benchmark):
    from repro.device.programming import write_verify

    device = DeviceModel(SLC, VariationModel(0.5), n_bits=8)
    values = make_rng(0).integers(0, 256, size=1000)
    benchmark.pedantic(write_verify, args=(device, values),
                       kwargs=dict(rng=make_rng(1)),
                       rounds=3, iterations=1)
