"""Edge cases for the functional ops: rectangular inputs, odd strides."""

import numpy as np
import pytest

from repro.nn import functional as F
from repro.nn.tensor import Tensor
from tests.helpers import gradcheck
from tests.nn.test_functional import naive_conv2d


class TestRectangularInputs:
    def test_conv_on_non_square_image(self, rng):
        x = rng.normal(size=(2, 3, 5, 9))
        w = rng.normal(size=(4, 3, 3, 3))
        out = F.conv2d(Tensor(x), Tensor(w), None, stride=1, padding=1)
        assert out.shape == (2, 4, 5, 9)
        np.testing.assert_allclose(out.data, naive_conv2d(x, w, None, 1, 1),
                                   atol=1e-10)

    def test_pool_on_non_square_image(self, rng):
        x = rng.normal(size=(1, 2, 4, 8))
        out = F.max_pool2d(Tensor(x), 2)
        assert out.shape == (1, 2, 2, 4)

    def test_conv_grad_non_square(self):
        gradcheck(
            lambda ts: (F.conv2d(ts[0], ts[1], None, stride=1,
                                 padding=1) ** 2).sum(),
            [(1, 2, 3, 5), (2, 2, 3, 3)])


class TestDegenerateShapes:
    def test_conv_kernel_equals_image(self, rng):
        x = rng.normal(size=(2, 3, 4, 4))
        w = rng.normal(size=(5, 3, 4, 4))
        out = F.conv2d(Tensor(x), Tensor(w))
        assert out.shape == (2, 5, 1, 1)
        expected = np.einsum("nchw,fchw->nf", x, w)
        np.testing.assert_allclose(out.data.reshape(2, 5), expected,
                                   atol=1e-10)

    def test_pool_whole_image(self, rng):
        x = rng.normal(size=(1, 1, 4, 4))
        out = F.max_pool2d(Tensor(x), 4)
        assert out.data.reshape(()) == x.max()

    @pytest.mark.parametrize("size", [3, 4])
    def test_pool_window_larger_than_image(self, size):
        with pytest.raises(ValueError, match="does not fit"):
            F.max_pool2d(Tensor(np.zeros((1, 1, size, size))), 5)

    def test_batch_of_one(self, rng):
        x = rng.normal(size=(1, 2, 6, 6))
        w = rng.normal(size=(3, 2, 3, 3))
        out = F.conv2d(Tensor(x), Tensor(w), None, 2, 1)
        assert out.shape == (1, 3, 3, 3)

    def test_single_class_cross_entropy(self):
        loss = F.cross_entropy(Tensor(np.zeros((3, 1))), np.zeros(3, int))
        np.testing.assert_allclose(loss.item(), 0.0)


class TestLargeStride:
    def test_stride_larger_than_kernel(self, rng):
        x = rng.normal(size=(1, 1, 7, 7))
        w = rng.normal(size=(1, 1, 2, 2))
        out = F.conv2d(Tensor(x), Tensor(w), None, stride=3)
        np.testing.assert_allclose(out.data,
                                   naive_conv2d(x, w, None, 3, 0),
                                   atol=1e-10)

    def test_pool_stride_larger_than_kernel(self, rng):
        x = rng.normal(size=(1, 1, 7, 7))
        out = F.avg_pool2d(Tensor(x), 2, stride=3)
        assert out.shape == (1, 1, 2, 2)
        np.testing.assert_allclose(out.data[0, 0, 0, 0],
                                   x[0, 0, :2, :2].mean())
