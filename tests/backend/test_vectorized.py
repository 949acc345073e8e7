"""The vectorized backend's bit-plane-packed VMM operands.

Numerical interchangeability with ``reference`` is covered by the
shared sweep in ``test_equivalence.py``; this module pins down the
packing itself: the single-GEMM ideal-ADC reformulation, the cached
operands, the bit-plane stacking layout and the chunked finite-ADC
path.
"""

import numpy as np

import repro.backend.vectorized as vectorized_mod
from repro.backend import get_backend
from repro.device.cell import MLC2, SLC
from repro.utils.rng import make_rng
from repro.xbar.adc import ADC

from tests.backend.test_equivalence import build_engine


class TestPackedOperands:
    def test_packed_ideal_weights_reproduce_engine_output(self):
        """One GEMM against the packed matrix equals the reference
        ideal-ADC engine_vmm (analog + offset + complement + zero-point)."""
        engine = build_engine(13, 5, 8, MLC2, seed=5, complemented=True,
                              backend="vectorized")
        op = engine._operands
        xq = make_rng(6).integers(0, 256, size=(7, 13))
        expected = get_backend("reference").engine_vmm(xq, op)
        packed = xq.astype(np.float64) @ op.packed_ideal_weights
        np.testing.assert_allclose(packed, expected, rtol=1e-9, atol=1e-9)

    def test_packed_operands_are_cached(self):
        engine = build_engine(16, 4, 8, SLC, seed=7, backend="vectorized")
        op = engine._operands
        assert op.packed_ideal_weights is op.packed_ideal_weights
        assert op.cells_packed is op.cells_packed
        assert op.bit_weights is op.bit_weights

    def test_grouped_bit_planes_layout(self):
        engine = build_engine(13, 3, 8, SLC, seed=8, backend="vectorized")
        op = engine._operands
        xq = make_rng(9).integers(0, 256, size=(4, 13))
        stacked = op.grouped_bit_planes(xq)
        assert stacked.shape == (op.n_groups, op.input_bits * 4,
                                 op.granularity)
        # Plane b of sample n sits at stacked row b*N + n of its group.
        for bit in (0, 3, 7):
            plane = (xq >> bit) & 1
            grouped = op.grouped_inputs(plane.astype(np.float64))
            for g in range(op.n_groups):
                np.testing.assert_array_equal(
                    stacked[g, bit * 4:(bit + 1) * 4], grouped[:, g])

    def test_finite_adc_chunking_is_invisible(self, monkeypatch):
        """Shrinking the byte budget to force many chunks must not
        change a single output bit."""
        adc = ADC(bits=6, full_scale=64.0)
        engine = build_engine(16, 5, 8, MLC2, seed=10, adc=adc,
                              complemented=True, backend="vectorized")
        x = make_rng(11).uniform(0, 1, size=(9, 16))
        unchunked = engine.forward(x)
        monkeypatch.setattr(vectorized_mod, "PACKED_BYTES_LIMIT", 1)
        assert vectorized_mod._finite_chunk_rows(engine._operands) == 1
        np.testing.assert_array_equal(engine.forward(x), unchunked)
