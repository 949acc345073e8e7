"""The library's one kernel set and its per-kernel counters."""

import numpy as np

import repro.backend
from repro.backend import default_backend_name, get_backend
from repro.backend.vectorized import VectorizedBackend


class TestKernelSet:
    def test_one_shared_vectorized_instance(self):
        assert isinstance(get_backend(), VectorizedBackend)
        assert get_backend() is repro.backend.KERNELS
        assert default_backend_name() == "vectorized"


class TestKernelCounters:
    def test_dispatch_increments_per_kernel_counter(self):
        import repro.obs as obs
        from repro.obs import metrics

        obs.enable()
        try:
            obs.reset()
            x = np.arange(2 * 3 * 4 * 4, dtype=np.float64).reshape(2, 3, 4, 4)
            get_backend().im2col(x, 2, 2, stride=1, pad=0)
            snap = metrics.REGISTRY.snapshot()
            assert snap["counters"].get("backend.vectorized.im2col") == 1
        finally:
            obs.reset()
            obs.disable()
