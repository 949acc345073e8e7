"""The vectorized kernels must reproduce the loop-based reference.

:class:`ReferenceBackend` is the original code moved verbatim and acts
as the correctness oracle; the sweep below drives
:class:`VectorizedBackend` over dense engine VMMs (ideal and
finite-resolution ADC, complemented offset groups, partial last groups,
boolean-masked rows, empty batches) and the conv/pooling window kernels
(odd shapes, stride, padding), and asserts float-rounding-level
agreement everywhere. Test ids carry the kernel set's name.

Pooling runs on no kernel set: :class:`TestLayerOps` checks it against
the window + argmax/mean + col2im oracle built from the reference
kernels (:func:`tests.helpers.window_pool2d`), and the conv matmuls
against their einsum formulation.
"""

import numpy as np
import pytest

import repro.backend
from repro.backend.reference import ReferenceBackend
from repro.backend.vectorized import VectorizedBackend
from repro.core.offsets import OffsetPlan
from repro.device.cell import MLC2, SLC
from repro.device.lut import DeviceModel
from repro.device.variation import VariationModel
from repro.nn import functional as F
from repro.nn.tensor import Tensor
from repro.utils.rng import make_rng
from repro.xbar.adc import ADC
from repro.xbar.engine import CrossbarEngine
from tests.helpers import window_pool2d

REFERENCE = ReferenceBackend()

#: Runs a test on the kernel set checked against :data:`REFERENCE`.
FAST = pytest.mark.parametrize("fast", [VectorizedBackend()],
                               ids=lambda kernels: kernels.name)


def build_engine(rows, cols, m, cell, seed, adc=None, complemented=False):
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
        weight_zero_point=128, input_scale=1 / 255, adc=adc)


def assert_vmm_matches(fast, engine, x):
    """Both kernel sets' ``engine_vmm`` on the engine's one shared
    :class:`EngineOperands`, for float inputs ``x`` (N, rows)."""
    xq = engine.quantize_inputs(np.atleast_2d(x))
    op = engine._operands
    np.testing.assert_allclose(fast.engine_vmm(xq, op),
                               REFERENCE.engine_vmm(xq, op),
                               rtol=1e-9, atol=1e-9)


class TestEngineVMM:
    """Dense bit-serial VMM: the fast kernels vs the reference."""

    @FAST
    @pytest.mark.parametrize("complemented", [False, True],
                             ids=["plain", "complement"])
    @pytest.mark.parametrize("adc", [None, ADC(bits=6, full_scale=64.0)],
                             ids=["ideal-adc", "6bit-adc"])
    @pytest.mark.parametrize("cell", [SLC, MLC2], ids=["slc", "mlc2"])
    @pytest.mark.parametrize("rows,m", [(16, 8), (13, 8), (16, 4), (7, 16)],
                             ids=["even", "partial-group", "m4",
                                  "one-short-group"])
    def test_matches_reference(self, fast, complemented, adc, cell,
                               rows, m):
        engine = build_engine(rows=rows, cols=5, m=m, cell=cell, seed=11,
                              adc=adc, complemented=complemented)
        x = make_rng(12).uniform(0, 1, size=(6, rows))
        assert_vmm_matches(fast, engine, x)

    @FAST
    def test_single_vector_and_empty_batch(self, fast):
        engine = build_engine(16, 3, 8, SLC, seed=3)
        assert_vmm_matches(fast, engine, make_rng(4).uniform(0, 1, size=16))
        xq0 = np.zeros((0, 16), dtype=np.int64)
        op = engine._operands
        assert fast.engine_vmm(xq0, op).shape == (0, 3)
        assert REFERENCE.engine_vmm(xq0, op).shape == (0, 3)

    @pytest.mark.parametrize("adc", [None, ADC(bits=6, full_scale=64.0)],
                             ids=["ideal-adc", "6bit-adc"])
    @FAST
    def test_boolean_masked_rows(self, fast, adc):
        """Inactive wordlines (boolean-masked / all-zero rows) must not
        perturb the fast kernels: zeroed drives still contribute the
        digital offset of their group exactly like the reference."""
        rows = 19
        engine = build_engine(rows, 4, 8, MLC2, seed=7, adc=adc,
                              complemented=True)
        x = make_rng(8).uniform(0, 1, size=(5, rows))
        mask = make_rng(9).random(rows) > 0.5
        x[:, mask] = 0.0
        assert_vmm_matches(fast, engine, x)
        assert_vmm_matches(fast, engine, np.zeros((3, rows)))


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

    @FAST
    @pytest.mark.parametrize("shape", SHAPES)
    def test_im2col(self, fast, shape):
        n, c, h, w, kh, kw, stride, pad = shape
        x = make_rng(20).normal(size=(n, c, h, w))
        ref, oh_ref, ow_ref = REFERENCE.im2col(x, kh, kw, stride, pad)
        alt, oh_alt, ow_alt = fast.im2col(x, kh, kw, stride, pad)
        assert (oh_alt, ow_alt) == (oh_ref, ow_ref)
        np.testing.assert_array_equal(alt, ref)

    @FAST
    @pytest.mark.parametrize("shape", SHAPES)
    def test_col2im_adjoint(self, fast, shape):
        n, c, h, w, kh, kw, stride, pad = shape
        oh = (h + 2 * pad - kh) // stride + 1
        ow = (w + 2 * pad - kw) // stride + 1
        cols = make_rng(21).normal(size=(n, c * kh * kw, oh * ow))
        ref = REFERENCE.col2im(cols, (n, c, h, w), kh, kw, stride, pad)
        alt = fast.col2im(cols, (n, c, h, w), kh, kw, stride, pad)
        np.testing.assert_allclose(alt, ref, rtol=1e-12, atol=1e-12)

    @FAST
    @pytest.mark.parametrize("k,stride", [(2, 2), (3, 1), (3, 2), (2, 3)])
    def test_pool_windows(self, fast, k, stride):
        x = make_rng(22).normal(size=(2, 3, 7, 9))
        ref = REFERENCE.pool_windows(x, k, stride)
        alt = fast.pool_windows(x, k, stride)
        np.testing.assert_array_equal(alt, ref)


class TestLayerOps:
    """Whole forward/backward ops through the dispatch layer, run once
    on each kernel set substituted for ``repro.backend.KERNELS``."""

    @FAST
    def test_conv2d_forward_and_grad(self, fast, monkeypatch):
        rng = make_rng(30)
        x_data = rng.normal(size=(2, 3, 7, 7))
        w_data = rng.normal(size=(4, 3, 3, 3))

        def run():
            x = Tensor(x_data, requires_grad=True)
            w = Tensor(w_data, requires_grad=True)
            y = F.conv2d(x, w, stride=2, padding=1)
            y.sum().backward()
            return y.data, x.grad, w.grad

        monkeypatch.setattr(repro.backend, "KERNELS", REFERENCE)
        y_ref, gx_ref, gw_ref = run()
        monkeypatch.setattr(repro.backend, "KERNELS", fast)
        y_alt, gx_alt, gw_alt = run()
        np.testing.assert_allclose(y_alt, y_ref, rtol=1e-9, atol=1e-9)
        np.testing.assert_allclose(gx_alt, gx_ref, rtol=1e-9, atol=1e-9)
        np.testing.assert_allclose(gw_alt, gw_ref, rtol=1e-9, atol=1e-9)

    @pytest.mark.parametrize("shape,f", [((8, 1, 28, 28), 6),
                                         ((8, 6, 14, 14), 16)],
                             ids=["conv1", "conv2"])
    def test_conv2d_matches_einsum_oracle(self, shape, f):
        """The matmul contractions against the einsum formulation on the
        reference kernels, stride 2 / padding 1 at LeNet's conv shapes."""
        rng = make_rng(32)
        n, c = shape[:2]
        x = Tensor(rng.normal(size=shape), requires_grad=True)
        weight = Tensor(rng.normal(size=(f, c, 5, 5)), requires_grad=True)
        bias = Tensor(rng.normal(size=f), requires_grad=True)
        y = F.conv2d(x, weight, bias, stride=2, padding=1)
        g = rng.normal(size=y.shape)
        y.backward(g)

        cols, oh, ow = REFERENCE.im2col(x.data, 5, 5, 2, 1)
        w2 = weight.data.reshape(f, -1)
        y_ref = (np.einsum("fk,nkp->nfp", w2, cols)
                 + bias.data[:, None]).reshape(y.shape)
        g2 = g.reshape(n, f, oh * ow)
        gw_ref = np.einsum("nfp,nkp->fk", g2, cols).reshape(weight.shape)
        gx_ref = REFERENCE.col2im(np.einsum("fk,nfp->nkp", w2, g2), shape,
                                  5, 5, 2, 1)
        np.testing.assert_allclose(y.data, y_ref, rtol=1e-9, atol=1e-9)
        np.testing.assert_allclose(weight.grad, gw_ref, rtol=1e-9, atol=1e-9)
        np.testing.assert_allclose(x.grad, gx_ref, rtol=1e-9, atol=1e-9)
        np.testing.assert_allclose(bias.grad, g.sum(axis=(0, 2, 3)),
                                   rtol=1e-9, atol=1e-9)

    #: (shape, k, stride, input) pooling cases: stride == k, overlapping
    #: (stride < k) and gapped (stride > k) windows, odd H/W, and
    #: tie-heavy inputs — ReLU outputs with all-zero windows, and small
    #: integers that tie on nonzero values too.
    POOL_CASES = {
        "k2s2": ((2, 3, 6, 6), 2, 2, "normal"),
        "k2s2-odd": ((2, 3, 7, 9), 2, 2, "normal"),
        "k3s1-overlap": ((2, 3, 7, 6), 3, 1, "normal"),
        "k3s2-overlap-odd": ((1, 2, 9, 7), 3, 2, "normal"),
        "k2s3-gapped": ((2, 2, 8, 7), 2, 3, "normal"),
        "k2s2-relu-ties": ((4, 6, 28, 28), 2, 2, "relu"),
        "k3s1-relu-ties": ((2, 3, 9, 9), 3, 1, "relu"),
        "k3s2-int-ties": ((2, 3, 9, 8), 3, 2, "int"),
    }

    @pytest.mark.parametrize("op", ["max", "avg"])
    @pytest.mark.parametrize("case", list(POOL_CASES))
    def test_pooling(self, case, op):
        """The strided-slice pooling against the window + argmax/mean +
        col2im oracle on the reference kernels: max values and gradients
        exactly (ties go to the first window position), avg to 1e-12."""
        shape, k, stride, kind = self.POOL_CASES[case]
        rng = make_rng(31)
        x_data = rng.normal(size=shape) - (0.5 if kind == "relu" else 0.0)
        if kind == "relu":
            x_data = np.maximum(x_data, 0.0)
        elif kind == "int":
            x_data = rng.integers(0, 3, size=shape).astype(np.float64)
        op_fn = F.max_pool2d if op == "max" else F.avg_pool2d

        def run(pool):
            x = Tensor(x_data, requires_grad=True)
            y = pool(x)
            y.backward(make_rng(33).normal(size=y.shape))
            return y.data, x.grad

        y_alt, g_alt = run(lambda x: op_fn(x, k, stride=stride))
        y_ref, g_ref = run(lambda x: window_pool2d(x, k, stride, op))
        if kind == "relu":
            assert (y_ref == 0.0).any(), "no all-zero window to route"
        if op == "max":
            np.testing.assert_array_equal(y_alt, y_ref)
            np.testing.assert_array_equal(g_alt, g_ref)
        else:
            np.testing.assert_allclose(y_alt, y_ref, rtol=1e-12, atol=1e-12)
            np.testing.assert_allclose(g_alt, g_ref, rtol=1e-12, atol=1e-12)
