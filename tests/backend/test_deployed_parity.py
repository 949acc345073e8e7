"""The reference oracle composes through a deployed conv model: its
forward and offset-gradient backward pass agree on the library's
kernels and on the oracles — the monkeypatched reference im2col/col2im
and the window-based max pooling of :func:`tests.helpers.window_pool2d`.
"""

import numpy as np

import repro.backend
from repro.backend.reference import ReferenceBackend
from repro.core.crossbar_layers import CrossbarConv2d, CrossbarLinear
from repro.core.offsets import OffsetPlan
from repro.device.cell import SLC
from repro.device.lut import DeviceModel
from repro.device.variation import VariationModel
from repro.nn import functional as F
from repro.nn.layers import Flatten, MaxPool2d, Sequential
from repro.nn.tensor import Tensor
from repro.quant.quantizer import InputQuantizer
from repro.utils.rng import make_rng
from tests.helpers import window_pool2d


def crossbar_state(rows, cols, m, rng):
    plan = OffsetPlan(rows, cols, m)
    device = DeviceModel(SLC, VariationModel(0.5), n_bits=8)
    quantizer = InputQuantizer(8)
    quantizer.calibrate(np.array([1.0]))
    return dict(
        cells=device.program_cells(rng.integers(0, 256, (rows, cols)), rng),
        plan=plan, registers=rng.integers(-20, 20, (plan.n_groups, cols)),
        complement=rng.random((plan.n_groups, cols)) > 0.5, cell=SLC,
        weight_bits=8, weight_scale=0.002, weight_zero_point=128,
        input_quantizer=quantizer)


def forward_backward(model, images, labels):
    """Logits and both layers' offset gradients after one step."""
    model.zero_grad()
    logits = model(Tensor(images))
    F.cross_entropy(logits, labels).backward()
    return [logits.data] + [model[i].offsets.grad.copy() for i in (0, 3)]


def test_deployed_model_matches_on_reference_kernels(monkeypatch):
    rng = make_rng(0)
    model = Sequential(
        CrossbarConv2d(kernel_shape=(4, 2, 3, 3), padding=1,
                       **crossbar_state(18, 4, 8, rng)),
        MaxPool2d(2), Flatten(),
        CrossbarLinear(bias=rng.normal(size=3),
                       **crossbar_state(64, 3, 16, rng)))
    images = rng.uniform(0, 1, size=(5, 2, 8, 8))
    labels = rng.integers(0, 3, size=5)

    fast = forward_backward(model, images, labels)
    monkeypatch.setattr(repro.backend, "KERNELS", ReferenceBackend())
    monkeypatch.setattr(F, "max_pool2d", lambda x, k, stride=None:
                        window_pool2d(x, k, stride or k, "max"))
    oracle = forward_backward(model, images, labels)
    for got, want in zip(fast, oracle):
        assert np.abs(got).max() > 0
        np.testing.assert_allclose(got, want, rtol=1e-9, atol=1e-9)
