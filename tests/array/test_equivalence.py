"""The HAL's bit-parity guarantee.

The default ``sim`` array with an empty scenario stack must reproduce
the pre-HAL pipeline *bitwise*: SimArray.program delegates to the very
``device.program_cells`` call the deployer used to make, the deployer
draws its scenario seed only when scenarios are configured, and the
engines built ``from_array`` read the same cells a from-cells
construction would. The sweep below asserts equality at every level —
raw programming draws, dense/conv deployments, engines, ideal and
finite ADCs — mirroring ``tests/backend/test_equivalence.py``.
"""

import numpy as np
import pytest

from repro.array import get_array
from repro.array.scenarios import ScenarioArray
from repro.array.sim import SimArray
from repro.core import DeployConfig, Deployer
from repro.core.offsets import OffsetPlan
from repro.device.cell import MLC2, SLC
from repro.device.lut import DeviceModel
from repro.device.variation import VariationModel
from repro.nn.trainer import evaluate_accuracy
from repro.utils.rng import make_rng
from repro.xbar.adc import ADC
from repro.xbar.engine import CrossbarEngine
from repro.xbar.mapper import CrossbarMapper


def make_device(sigma=0.5, cell=SLC):
    return DeviceModel(cell, VariationModel(sigma), n_bits=8)


class TestProgrammingParity:
    """SimArray.program is the identical draw sequence as the device."""

    @pytest.mark.parametrize("cell", [SLC, MLC2], ids=["slc", "mlc2"])
    @pytest.mark.parametrize("sigma", [0.0, 0.5])
    def test_matches_device_program_cells(self, cell, sigma):
        device = make_device(sigma, cell)
        values = make_rng(0).integers(0, 256, size=(9, 5))
        direct = device.program_cells(values, make_rng(7))
        via_hal = SimArray(device, 9, 5).program(values, make_rng(7))
        np.testing.assert_array_equal(via_hal, direct)

    def test_empty_scenario_stack_is_identity(self):
        device = make_device(0.5)
        values = make_rng(2).integers(0, 256, size=(8, 6))
        bare = SimArray(device, 8, 6).program(values, make_rng(5))
        wrapped = ScenarioArray(SimArray(device, 8, 6), (), seed=123)
        np.testing.assert_array_equal(wrapped.program(values, make_rng(5)),
                                      bare)
        np.testing.assert_array_equal(wrapped.read_back(), bare)


class TestEngineFromArray:
    """Engines built from an array equal from-cells construction."""

    def build(self, rows, cols, m, cell, seed, adc):
        rng = make_rng(seed)
        device = make_device(0.5, cell)
        plan = OffsetPlan(rows, cols, m)
        values = rng.integers(0, 256, size=(rows, cols))
        array = get_array("sim")(device, rows, cols)
        cells = array.program(values, rng)
        registers = rng.integers(-40, 40,
                                 size=(plan.n_groups, cols)).astype(float)
        complement = rng.random((plan.n_groups, cols)) > 0.5
        common = dict(plan=plan, registers=registers, complement=complement,
                      weight_bits=8, input_bits=8, weight_scale=0.01,
                      weight_zero_point=128, input_scale=1 / 255, adc=adc)
        ref = CrossbarEngine(cells=cells, cell=cell, **common)
        alt = CrossbarEngine.from_array(array, **common)
        return ref, alt

    @pytest.mark.parametrize("adc", [None, ADC(bits=6, full_scale=64.0)],
                             ids=["ideal-adc", "6bit-adc"])
    @pytest.mark.parametrize("cell", [SLC, MLC2], ids=["slc", "mlc2"])
    def test_forward_identical(self, adc, cell):
        ref, alt = self.build(16, 5, 8, cell, seed=11, adc=adc)
        x = make_rng(12).uniform(0, 1, size=(6, 16))
        np.testing.assert_array_equal(alt.forward(x), ref.forward(x))

    def test_from_array_uses_array_mapper(self):
        device = make_device(0.3, MLC2)
        array = get_array("sim")(device, 10, 3)
        mapper = CrossbarMapper.for_array(array)
        assert mapper.cells_per_weight == array.cells_per_weight == 4


class TestDeployerParity:
    """Whole deployments: default HAL == explicit array == no scenarios."""

    def deploy_acc(self, model, data, rng_seed=0, program_seed=1, **cfg_kw):
        cfg = DeployConfig.from_method("vawo*+pwt", sigma=0.5, granularity=8,
                                       **cfg_kw)
        deployer = Deployer(model, data, cfg, rng=rng_seed)
        deployed = deployer.program(rng=make_rng(program_seed))
        return evaluate_accuracy(deployed, data)

    def test_dense_deployment_bitwise(self, trained_tiny_mlp, blob_data):
        base = self.deploy_acc(trained_tiny_mlp, blob_data)
        explicit = self.deploy_acc(trained_tiny_mlp, blob_data, array="sim")
        empty_stack = self.deploy_acc(trained_tiny_mlp, blob_data,
                                      array="sim", scenarios=())
        assert base == explicit == empty_stack

    def test_dense_with_saf_bitwise(self, trained_tiny_mlp, blob_data):
        base = self.deploy_acc(trained_tiny_mlp, blob_data,
                               saf_rates=(0.1, 0.02))
        explicit = self.deploy_acc(trained_tiny_mlp, blob_data,
                                   saf_rates=(0.1, 0.02), array="sim",
                                   scenarios=None)
        assert base == explicit

    def test_conv_deployment_bitwise(self):
        from repro.data.loaders import Dataset
        from repro.data.synthetic import synthetic_digits
        from repro.nn.models import LeNet

        images, labels = synthetic_digits(80, rng=0)
        data = Dataset(images, labels)
        model = LeNet(rng=0)
        cfg_a = DeployConfig.from_method("plain", sigma=0.4, granularity=16)
        cfg_b = DeployConfig.from_method("plain", sigma=0.4, granularity=16,
                                         array="sim", scenarios=())
        out_a = Deployer(model, data, cfg_a, rng=0).program(rng=make_rng(1))
        out_b = Deployer(model, data, cfg_b, rng=0).program(rng=make_rng(1))
        from repro.nn.tensor import Tensor
        x = Tensor(data.images[:6])
        np.testing.assert_array_equal(out_a(x).data, out_b(x).data)

    def test_deployed_layers_hold_their_arrays(self, trained_tiny_mlp,
                                               blob_data):
        from repro.core.pwt import crossbar_modules
        cfg = DeployConfig.from_method("plain", sigma=0.3, granularity=8)
        deployer = Deployer(trained_tiny_mlp, blob_data, cfg, rng=0)
        deployed = deployer.program(rng=make_rng(1))
        mods = crossbar_modules(deployed)
        assert len(deployer.arrays) == len(mods)
        for mod, array in zip(mods, deployer.arrays):
            np.testing.assert_array_equal(array.read_back(), mod.cells)

    def test_unknown_array_fails_at_construction(self, trained_tiny_mlp,
                                                 blob_data):
        cfg = DeployConfig.from_method("plain", sigma=0.3, array="nope")
        with pytest.raises(ValueError, match="nope"):
            Deployer(trained_tiny_mlp, blob_data, cfg, rng=0)

    def test_parallel_trials_bitwise_with_hal(self, trained_tiny_mlp,
                                              blob_data):
        from repro.eval.accuracy import evaluate_deployment
        cfg = DeployConfig.from_method("plain", sigma=0.5, granularity=8,
                                       scenarios="stuck_at:sa0_rate=0.2")
        deployer = Deployer(trained_tiny_mlp, blob_data, cfg, rng=0)
        serial = evaluate_deployment(deployer, blob_data, n_trials=3,
                                     rng=42, jobs=1)
        parallel = evaluate_deployment(deployer, blob_data, n_trials=3,
                                       rng=42, jobs=2)
        assert serial.accuracies == parallel.accuracies
