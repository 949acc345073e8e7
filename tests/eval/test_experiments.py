"""Experiment harness: workload construction and runner plumbing.

These tests keep workloads tiny (they synthesise data and train for a
few steps); the real paper-scale runs live in benchmarks/.
"""

import numpy as np
import pytest

import repro.eval.experiments as experiments
from repro.cache import CacheStore
from repro.data.loaders import Dataset
from repro.data.synthetic import synthetic_digits
from repro.eval.experiments import (WorkloadSpec, _augmented, _load_data,
                                    build_workload, run_table2,
                                    workload_names)
from repro.nn.models import LeNet
from repro.utils.rng import make_rng


class TestWorkloadRegistry:
    def test_names(self):
        assert set(workload_names()) == {"lenet", "resnet18", "vgg16"}

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            build_workload("alexnet")

    def test_unknown_preset(self):
        with pytest.raises(ValueError):
            build_workload("lenet", preset="huge")


class TestAugmentation:
    def test_doubles_dataset(self, blob_data):
        aug = _augmented(blob_data, 0.1, make_rng(0))
        assert len(aug) == 2 * len(blob_data)

    def test_zero_level_identity(self, blob_data):
        assert _augmented(blob_data, 0.0, make_rng(0)) \
            is blob_data

    def test_values_stay_in_range(self, blob_data):
        aug = _augmented(blob_data, 0.5, make_rng(0))
        assert aug.images.min() >= 0 and aug.images.max() <= 1


class TestWorkloadCaching:
    def test_cache_roundtrip(self, tmp_path):
        wl1 = build_workload("lenet", "quick", seed=123, cache_dir=tmp_path)
        wl2 = build_workload("lenet", "quick", seed=123, cache_dir=tmp_path)
        np.testing.assert_allclose(wl1.float_accuracy, wl2.float_accuracy)
        state1 = wl1.model.state_dict()
        state2 = wl2.model.state_dict()
        for k in state1:
            np.testing.assert_array_equal(state1[k], state2[k])

    def test_cache_file_created(self, tmp_path):
        build_workload("lenet", "quick", seed=124, cache_dir=tmp_path)
        assert list(tmp_path.glob("objects/*/*.npz"))


class TestDatasetStage:
    SPEC = WorkloadSpec("tiny", "digits", LeNet, n_samples=30, epochs=1)

    @staticmethod
    def arrays(pair):
        return [a for d in pair for a in (d.images, d.labels)]

    def test_cached_equals_uncached(self, tmp_path, monkeypatch):
        store = CacheStore(tmp_path)
        uncached = self.arrays(_load_data(self.SPEC, 7, None))
        miss = self.arrays(_load_data(self.SPEC, 7, store))
        # A hit must not render: swap in a renderer that cannot run.
        monkeypatch.setattr(experiments, "synthetic_digits", None)
        hit = self.arrays(_load_data(self.SPEC, 7, store))
        for a, b, c in zip(uncached, miss, hit):
            np.testing.assert_array_equal(a, b)
            np.testing.assert_array_equal(a, c)
            assert a.dtype == c.dtype
        assert len(store.artifacts()) == 1

    def test_stores_the_split_not_the_render(self):
        train, test = _load_data(self.SPEC, 7, None)
        rng = make_rng(7)
        images, labels = synthetic_digits(30, rng=rng)
        want_train, want_test = Dataset(images, labels).split(0.8, rng=rng)
        assert (len(train), len(test)) == (24, 6)
        np.testing.assert_array_equal(train.images, want_train.images)
        np.testing.assert_array_equal(test.labels, want_test.labels)

    def test_seed_keys_the_artifact(self, tmp_path):
        store = CacheStore(tmp_path)
        a = _load_data(self.SPEC, 7, store)[0].images
        b = _load_data(self.SPEC, 8, store)[0].images
        assert len(store.artifacts()) == 2
        assert not np.array_equal(a, b)


class TestTable2Runner:
    def test_rows(self):
        rows = run_table2((16, 128))
        assert [r["granularity"] for r in rows] == [16, 128]
        assert rows[1]["total_area_mm2"] > rows[0]["total_area_mm2"]
