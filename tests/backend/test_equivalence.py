"""Every backend must reproduce the loop-based reference bit-for-bit.

The ``reference`` backend is the original code moved verbatim and acts
as the correctness oracle; the sweep below drives every other
registered backend (``vectorized``, …) over dense engines (ideal and
finite-resolution ADC, complemented offset groups, partial last
groups, boolean-masked rows, empty batches) and the conv/pooling window
kernels (odd shapes, stride, padding), and asserts float-rounding-level
agreement everywhere.
"""

import numpy as np
import pytest

from repro.backend import available_backends, get_backend, use_backend
from repro.core.offsets import OffsetPlan
from repro.device.cell import MLC2, SLC
from repro.device.lut import DeviceModel
from repro.device.variation import VariationModel
from repro.nn import functional as F
from repro.nn.tensor import Tensor
from repro.utils.rng import make_rng
from repro.xbar.adc import ADC
from repro.xbar.engine import CrossbarEngine

OTHER_BACKENDS = [n for n in available_backends() if n != "reference"]


def build_engine(rows, cols, m, cell, seed, adc=None, complemented=False,
                 backend=None):
    rng = make_rng(seed)
    device = DeviceModel(cell, VariationModel(0.5), n_bits=8)
    plan = OffsetPlan(rows, cols, m)
    values = rng.integers(0, 256, size=(rows, cols))
    cells = device.program_cells(values, rng)
    registers = rng.integers(-40, 40,
                             size=(plan.n_groups, cols)).astype(float)
    complement = (rng.random((plan.n_groups, cols)) > 0.5 if complemented
                  else np.zeros((plan.n_groups, cols), dtype=bool))
    return CrossbarEngine(
        cells=cells, plan=plan, registers=registers, complement=complement,
        cell=cell, weight_bits=8, input_bits=8, weight_scale=0.01,
        weight_zero_point=128, input_scale=1 / 255, adc=adc, backend=backend)


class TestEngineVMM:
    """Dense bit-serial VMM: reference vs every other backend."""

    @pytest.mark.parametrize("backend", OTHER_BACKENDS)
    @pytest.mark.parametrize("complemented", [False, True],
                             ids=["plain", "complement"])
    @pytest.mark.parametrize("adc", [None, ADC(bits=6, full_scale=64.0)],
                             ids=["ideal-adc", "6bit-adc"])
    @pytest.mark.parametrize("cell", [SLC, MLC2], ids=["slc", "mlc2"])
    @pytest.mark.parametrize("rows,m", [(16, 8), (13, 8), (16, 4), (7, 16)],
                             ids=["even", "partial-group", "m4",
                                  "one-short-group"])
    def test_matches_reference(self, backend, complemented, adc, cell,
                               rows, m):
        args = dict(rows=rows, cols=5, m=m, cell=cell, seed=11, adc=adc,
                    complemented=complemented)
        ref = build_engine(backend="reference", **args)
        alt = build_engine(backend=backend, **args)
        x = make_rng(12).uniform(0, 1, size=(6, rows))
        np.testing.assert_allclose(alt.forward(x), ref.forward(x),
                                   rtol=1e-9, atol=1e-9)

    @pytest.mark.parametrize("backend", OTHER_BACKENDS)
    def test_single_vector_and_empty_batch(self, backend):
        ref = build_engine(16, 3, 8, SLC, seed=3, backend="reference")
        alt = build_engine(16, 3, 8, SLC, seed=3, backend=backend)
        x1 = make_rng(4).uniform(0, 1, size=16)          # 1-D input
        np.testing.assert_allclose(alt.forward(x1), ref.forward(x1),
                                   rtol=1e-9, atol=1e-9)
        x0 = np.zeros((0, 16))
        assert alt.forward(x0).shape == ref.forward(x0).shape == (0, 3)

    @pytest.mark.parametrize("adc", [None, ADC(bits=6, full_scale=64.0)],
                             ids=["ideal-adc", "6bit-adc"])
    @pytest.mark.parametrize("backend", OTHER_BACKENDS)
    def test_boolean_masked_rows(self, backend, adc):
        """Inactive wordlines (boolean-masked / all-zero rows) must not
        perturb any backend: zeroed drives still contribute the digital
        offset of their group exactly like the reference."""
        rows = 19
        ref = build_engine(rows, 4, 8, MLC2, seed=7, adc=adc,
                           complemented=True, backend="reference")
        alt = build_engine(rows, 4, 8, MLC2, seed=7, adc=adc,
                           complemented=True, backend=backend)
        x = make_rng(8).uniform(0, 1, size=(5, rows))
        mask = make_rng(9).random(rows) > 0.5
        x[:, mask] = 0.0
        np.testing.assert_allclose(alt.forward(x), ref.forward(x),
                                   rtol=1e-9, atol=1e-9)
        x_all_masked = np.zeros((3, rows))
        np.testing.assert_allclose(alt.forward(x_all_masked),
                                   ref.forward(x_all_masked),
                                   rtol=1e-9, atol=1e-9)


class TestWindowKernels:
    """im2col / col2im / pool_windows across odd shapes."""

    SHAPES = [
        # (n, c, h, w, kh, kw, stride, pad)
        (2, 3, 6, 6, 3, 3, 1, 0),
        (1, 1, 7, 5, 3, 2, 2, 1),
        (3, 2, 5, 5, 1, 1, 1, 0),
        (2, 4, 8, 8, 2, 2, 2, 0),
        (1, 2, 9, 7, 4, 3, 3, 2),
    ]

    @pytest.mark.parametrize("backend", OTHER_BACKENDS)
    @pytest.mark.parametrize("shape", SHAPES)
    def test_im2col(self, backend, shape):
        n, c, h, w, kh, kw, stride, pad = shape
        x = make_rng(20).normal(size=(n, c, h, w))
        ref, oh_ref, ow_ref = get_backend("reference").im2col(
            x, kh, kw, stride, pad)
        alt, oh_alt, ow_alt = get_backend(backend).im2col(
            x, kh, kw, stride, pad)
        assert (oh_alt, ow_alt) == (oh_ref, ow_ref)
        np.testing.assert_array_equal(alt, ref)

    @pytest.mark.parametrize("backend", OTHER_BACKENDS)
    @pytest.mark.parametrize("shape", SHAPES)
    def test_col2im_adjoint(self, backend, shape):
        n, c, h, w, kh, kw, stride, pad = shape
        oh = (h + 2 * pad - kh) // stride + 1
        ow = (w + 2 * pad - kw) // stride + 1
        cols = make_rng(21).normal(size=(n, c * kh * kw, oh * ow))
        ref = get_backend("reference").col2im(
            cols, (n, c, h, w), kh, kw, stride, pad)
        alt = get_backend(backend).col2im(
            cols, (n, c, h, w), kh, kw, stride, pad)
        np.testing.assert_allclose(alt, ref, rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("backend", OTHER_BACKENDS)
    @pytest.mark.parametrize("k,stride", [(2, 2), (3, 1), (3, 2), (2, 3)])
    def test_pool_windows(self, backend, k, stride):
        x = make_rng(22).normal(size=(2, 3, 7, 9))
        ref = get_backend("reference").pool_windows(x, k, stride)
        alt = get_backend(backend).pool_windows(x, k, stride)
        np.testing.assert_array_equal(alt, ref)


class TestLayerOps:
    """Whole forward/backward ops through the dispatch layer."""

    @pytest.mark.parametrize("backend", OTHER_BACKENDS)
    def test_conv2d_forward_and_grad(self, backend):
        rng = make_rng(30)
        x_data = rng.normal(size=(2, 3, 7, 7))
        w_data = rng.normal(size=(4, 3, 3, 3))

        def run():
            x = Tensor(x_data, requires_grad=True)
            w = Tensor(w_data, requires_grad=True)
            y = F.conv2d(x, w, stride=2, padding=1)
            y.sum().backward()
            return y.data, x.grad, w.grad

        with use_backend("reference"):
            y_ref, gx_ref, gw_ref = run()
        with use_backend(backend):
            y_alt, gx_alt, gw_alt = run()
        np.testing.assert_allclose(y_alt, y_ref, rtol=1e-9, atol=1e-9)
        np.testing.assert_allclose(gx_alt, gx_ref, rtol=1e-9, atol=1e-9)
        np.testing.assert_allclose(gw_alt, gw_ref, rtol=1e-9, atol=1e-9)

    @pytest.mark.parametrize("backend", OTHER_BACKENDS)
    @pytest.mark.parametrize("op", [F.max_pool2d, F.avg_pool2d],
                             ids=["max", "avg"])
    def test_pooling(self, backend, op):
        x_data = make_rng(31).normal(size=(2, 3, 6, 6))

        def run():
            x = Tensor(x_data, requires_grad=True)
            y = op(x, 2, stride=2)
            y.sum().backward()
            return y.data, x.grad

        with use_backend("reference"):
            y_ref, g_ref = run()
        with use_backend(backend):
            y_alt, g_alt = run()
        np.testing.assert_array_equal(y_alt, y_ref)
        np.testing.assert_array_equal(g_alt, g_ref)
