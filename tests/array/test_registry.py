"""The array-family registry (repro.array) — mirrors the backend one."""

import numpy as np
import pytest

from repro.array import (BUILTIN_DEFAULT, ENV_VAR, ArrayBackend,
                         available_arrays, default_array_name, get_array,
                         register_array, set_default_array, use_array)
from repro.array.sim import SimArray
from repro.device.cell import SLC
from repro.device.lut import DeviceModel
from repro.device.variation import VariationModel


@pytest.fixture(autouse=True)
def _clean_default(monkeypatch):
    """Leave no default override or env selection behind."""
    monkeypatch.delenv(ENV_VAR, raising=False)
    yield
    set_default_array(None)


def make_device(sigma=0.3, cell=SLC):
    return DeviceModel(cell, VariationModel(sigma), n_bits=8)


class TestRegistry:
    def test_builtin_sim_registered(self):
        assert "sim" in available_arrays()
        assert default_array_name() == BUILTIN_DEFAULT == "sim"

    def test_get_array_builds_sim(self):
        array = get_array("sim")(make_device(), 4, 3)
        assert isinstance(array, SimArray)
        assert (array.rows, array.cols) == (4, 3)

    def test_unknown_name_raises_with_listing(self):
        with pytest.raises(ValueError, match="sim"):
            get_array("fpga")

    def test_factories_not_singletons(self):
        factory = get_array("sim")
        dev = make_device()
        assert factory(dev, 2, 2) is not factory(dev, 2, 2)

    def test_register_and_replace(self):
        factory = get_array("sim")
        with pytest.raises(ValueError):
            register_array("sim", factory)          # duplicate
        register_array("sim", factory, replace=True)

    def test_register_custom_family(self):
        calls = []

        def fake_factory(device, rows, cols):
            calls.append((rows, cols))
            return SimArray(device, rows, cols)

        register_array("test-fake", fake_factory)
        try:
            array = get_array("test-fake")(make_device(), 5, 7)
            assert calls == [(5, 7)]
            assert isinstance(array, ArrayBackend)
        finally:
            # registry is module-global: leave it as we found it
            from repro import array as array_mod
            with array_mod._LOCK:
                array_mod._FACTORIES.pop("test-fake", None)


class TestDefaultSelection:
    def test_env_variable(self, monkeypatch):
        monkeypatch.setenv(ENV_VAR, "sim")
        assert default_array_name() == "sim"
        monkeypatch.setenv(ENV_VAR, "  ")           # blank falls through
        assert default_array_name() == BUILTIN_DEFAULT

    def test_set_default_overrides_env(self, monkeypatch):
        monkeypatch.setenv(ENV_VAR, "nonexistent")
        set_default_array("sim")
        assert default_array_name() == "sim"
        set_default_array(None)
        assert default_array_name() == "nonexistent"

    def test_set_default_validates_eagerly(self):
        with pytest.raises(ValueError):
            set_default_array("typo")
        assert default_array_name() == BUILTIN_DEFAULT

    def test_use_array_restores_previous(self):
        set_default_array("sim")
        with use_array("sim") as factory:
            assert callable(factory)
            assert default_array_name() == "sim"
        assert default_array_name() == "sim"
        set_default_array(None)

    def test_use_array_unknown_name(self):
        with pytest.raises(ValueError):
            with use_array("typo"):
                pass                               # pragma: no cover


class TestSimArrayContract:
    def test_program_and_read_back(self):
        array = SimArray(make_device(sigma=0.0), 4, 3)
        values = np.arange(12).reshape(4, 3) % 2 * 255
        cells = array.program(values, rng=0)
        assert cells.shape == (4, 3, 8)         # 8-bit weights, 1-bit cells
        np.testing.assert_array_equal(array.read_back(), cells)

    def test_read_back_unprogrammed(self):
        with pytest.raises(RuntimeError):
            SimArray(make_device(), 2, 2).read_back()

    def test_program_shape_check(self):
        with pytest.raises(ValueError):
            SimArray(make_device(), 4, 3).program(np.zeros((3, 4)), rng=0)

    def test_load_cells_shape_check(self):
        with pytest.raises(ValueError):
            SimArray(make_device(), 4, 3).load_cells(np.zeros((4, 3, 2)))

    def test_invalid_dimensions(self):
        with pytest.raises(ValueError):
            SimArray(make_device(), 0, 3)

    def test_vmm_shapes(self):
        from repro.device.cell import MLC2
        array = SimArray(make_device(cell=MLC2), 6, 3)
        array.program(np.full((6, 3), 100), rng=0)
        assert array.cells_per_weight == 4
        out = array.vmm(np.ones(6))
        assert out.shape == (3 * 4,)
        grouped = array.vmm_grouped(np.ones((2, 6)), group_rows=4)
        assert grouped.shape == (2, 2, 3 * 4)
        np.testing.assert_allclose(grouped.sum(axis=1),
                                   array.vmm(np.ones((2, 6))))

    def test_key_components(self):
        comps = SimArray(make_device(), 2, 2).key_components()
        assert comps["array"] == "sim"
        assert "sa0_rate" not in comps     # faults key via the scenario stack

    def test_program_weights_assembles(self):
        array = SimArray(make_device(sigma=0.0), 3, 3)
        values = np.arange(9).reshape(3, 3) * 28
        crw = array.program_weights(values, rng=0)
        assert crw.shape == (3, 3)
        # sigma=0: CRWs equal the written values up to ON/OFF leakage.
        np.testing.assert_allclose(crw, values, atol=values.max() / 100)
