"""Stuck-at-fault model: fault maps and the ``saf_rates`` sugar."""

import numpy as np
import pytest

from repro.device.cell import MLC2, SLC, CellType
from repro.device.faults import FaultMap, sample_fault_map
from repro.nn.layers import Flatten, Linear, ReLU, Sequential
from repro.utils.rng import make_rng


class TestFaultMap:
    def test_rates_approximate(self):
        fm = sample_fault_map((200, 200), sa0_rate=0.05, sa1_rate=0.01,
                              rng=0)
        assert abs(fm.stuck_at_0.mean() - 0.05) < 0.01
        assert abs(fm.stuck_at_1.mean() - 0.01) < 0.005
        assert 0.04 < fm.fault_rate < 0.08

    def test_exclusive_masks(self):
        fm = sample_fault_map((100, 100), 0.3, 0.3, rng=1)
        assert not (fm.stuck_at_0 & fm.stuck_at_1).any()

    def test_invalid_rates(self):
        with pytest.raises(ValueError):
            sample_fault_map((4,), 0.8, 0.5)
        with pytest.raises(ValueError):
            sample_fault_map((4,), -0.1, 0.0)

    def test_conflicting_masks_rejected(self):
        both = np.ones((2, 2), dtype=bool)
        with pytest.raises(ValueError):
            FaultMap(stuck_at_0=both, stuck_at_1=both)

    def test_apply_pins_levels(self):
        fm = FaultMap(stuck_at_0=np.array([True, False, False]),
                      stuck_at_1=np.array([False, True, False]))
        g = np.array([0.7, 0.2, 0.5])
        out = fm.apply(g, SLC)
        np.testing.assert_allclose(out[0], SLC.conductance(np.zeros(1))[0])
        np.testing.assert_allclose(out[1], 1.0)   # ON conductance for SLC
        assert out[2] == 0.5                       # healthy cell untouched

    def test_apply_shape_check(self):
        fm = sample_fault_map((3, 3), 0.1, 0.1, rng=0)
        with pytest.raises(ValueError):
            fm.apply(np.ones((2, 2)), SLC)

    def test_apply_does_not_mutate_input(self):
        fm = FaultMap(stuck_at_0=np.array([True]),
                      stuck_at_1=np.array([False]))
        g = np.array([0.9])
        fm.apply(g, SLC)
        assert g[0] == 0.9

    @pytest.mark.parametrize("cell", [SLC, MLC2,
                                      CellType(bits=3, on_off_ratio=50.0)],
                             ids=["slc", "mlc2", "mlc3-r50"])
    def test_apply_pins_to_cell_extremes(self, cell):
        """Pinned levels follow each cell technology's own G_off/G_on."""
        fm = FaultMap(stuck_at_0=np.array([[True, False]]),
                      stuck_at_1=np.array([[False, True]]))
        mid = cell.conductance(np.full((1, 2), cell.max_level // 2 + 1))
        out = fm.apply(mid, cell)
        g_off = cell.conductance(np.zeros(1))[0]
        g_on = cell.conductance(np.array([cell.max_level]))[0]
        assert out[0, 0] == g_off
        assert out[0, 1] == g_on == pytest.approx(cell.max_level)
        assert g_off == pytest.approx(cell.max_level / cell.on_off_ratio)

    @pytest.mark.parametrize("cell", [SLC, MLC2], ids=["slc", "mlc2"])
    def test_apply_3d_cell_image(self, cell):
        """Fault maps cover (rows, cols, n_cells) images, any cell type."""
        fm = sample_fault_map((4, 3, 2), 0.3, 0.2, rng=0)
        g = np.full((4, 3, 2), 0.4)
        out = fm.apply(g, cell)
        g_on = cell.conductance(np.array([cell.max_level]))[0]
        np.testing.assert_array_equal(out[fm.stuck_at_1], g_on)
        healthy = ~(fm.stuck_at_0 | fm.stuck_at_1)
        np.testing.assert_array_equal(out[healthy], 0.4)

    def test_empty_map(self):
        fm = FaultMap.empty((3, 4))
        assert fm.shape == (3, 4)
        assert fm.fault_rate == 0.0
        g = make_rng(0).uniform(size=(3, 4))
        np.testing.assert_array_equal(fm.apply(g, SLC), g)


class TestSafRatesSugar:
    """``saf_rates`` / ``--saf`` is a leading ``stuck_at`` scenario."""

    SAF = (0.2, 0.05)
    SPEC = "stuck_at:sa0_rate=0.2,sa1_rate=0.05"

    def test_config_moves_rates_onto_the_scenario_stack(self):
        from dataclasses import replace

        from repro.array.scenarios import (StuckAtScenario,
                                           parse_scenario_spec)
        from repro.core import DeployConfig

        cfg = DeployConfig(saf_rates=self.SAF, scenarios="drift")
        assert cfg.saf_rates is None
        assert cfg.scenarios == (StuckAtScenario(0.2, 0.05),
                                 *parse_scenario_spec("drift"))
        # Re-normalising must not prepend the scenario a second time.
        assert replace(cfg).scenarios == cfg.scenarios
        assert DeployConfig(saf_rates=self.SAF) == \
            DeployConfig(scenarios=self.SPEC)

    def test_same_shaped_layers_get_independent_fault_maps(
            self, blob_data):
        """Fault maps are per region, never shared by cell shape."""
        from repro.core import DeployConfig, Deployer

        model = Sequential(Flatten(), Linear(64, 16, rng=make_rng(1)),
                           ReLU(), Linear(16, 16, rng=make_rng(2)), ReLU(),
                           Linear(16, 16, rng=make_rng(3)), ReLU(),
                           Linear(16, 4, rng=make_rng(4)))
        cfg = DeployConfig.from_method("plain", sigma=0.0, cell=MLC2,
                                       saf_rates=self.SAF)
        deployer = Deployer(model, blob_data, cfg, rng=0)
        g_off = MLC2.conductance(np.zeros(1))[0]
        masks = []
        for array in deployer.arrays[1:3]:            # both 16x16 layers
            assert (array.rows, array.cols) == (16, 16)
            cells = array.program(np.full((16, 16), 255), make_rng(0))
            masks.append(cells == g_off)              # stuck-at-0 cells
        assert all(0.1 < m.mean() < 0.3 for m in masks)
        assert not np.array_equal(masks[0], masks[1])

    def test_saf_rates_equal_stuck_at_scenario(self, trained_tiny_mlp,
                                               blob_data):
        """Same serve_program key and bitwise-equal trial accuracies."""
        from repro.core import DeployConfig, Deployer
        from repro.serve import serve_program_key

        keys, accuracies = [], []
        for fields in (dict(saf_rates=self.SAF), dict(scenarios=self.SPEC)):
            cfg = DeployConfig.from_method("vawo*", sigma=0.5,
                                           granularity=8, **fields)
            deployer = Deployer(trained_tiny_mlp, blob_data, cfg, rng=10)
            keys.append(serve_program_key(deployer, 10, 20))
            accuracies.append(
                deployer.evaluate(blob_data, n_trials=2, rng=3).accuracies)
        assert keys[0] == keys[1]
        assert accuracies[0] == accuracies[1]


class TestDeploymentWithFaults:
    def test_pwt_recovers_saf_damage(self, trained_tiny_mlp, blob_data):
        """Offsets compensate SAFs: the paper's contrast case [13], but
        with group-shared (cheap) compensation."""
        from repro.core import DeployConfig, Deployer, PWTConfig
        from repro.nn.trainer import evaluate_accuracy

        accs = {}
        for method in ("plain", "vawo*+pwt"):
            cfg = DeployConfig.from_method(
                method, sigma=0.8, granularity=8,
                saf_rates=(0.2, 0.08),
                pwt=PWTConfig(epochs=4, lr=0.5))
            deployer = Deployer(trained_tiny_mlp, blob_data, cfg, rng=0)
            vals = [evaluate_accuracy(deployer.program(rng=t), blob_data)
                    for t in range(3)]
            accs[method] = np.mean(vals)
        assert accs["vawo*+pwt"] > accs["plain"] + 0.1
