"""The backend registry: selection precedence and lifecycle."""

import numpy as np
import pytest

import repro.backend as B
from repro.backend import (available_backends, default_backend_name,
                           get_backend, register_backend,
                           set_default_backend, use_backend)
from repro.backend.reference import ReferenceBackend
from repro.backend.vectorized import VectorizedBackend


@pytest.fixture(autouse=True)
def clean_default(monkeypatch):
    """Leave the process default untouched by every test here."""
    monkeypatch.delenv(B.ENV_VAR, raising=False)
    yield
    set_default_backend(None)


class TestRegistry:
    def test_builtins_registered(self):
        assert available_backends() == ("reference", "vectorized")

    def test_instances_are_cached(self):
        assert get_backend("reference") is get_backend("reference")
        assert isinstance(get_backend("reference"), ReferenceBackend)
        assert isinstance(get_backend("vectorized"), VectorizedBackend)

    def test_unknown_name_lists_registered(self):
        with pytest.raises(ValueError, match="no-such-backend"):
            get_backend("no-such-backend")
        with pytest.raises(ValueError, match="reference"):
            get_backend("no-such-backend")

    def test_duplicate_registration_guard(self):
        with pytest.raises(ValueError, match="already registered"):
            register_backend("reference", ReferenceBackend)
        # replace=True is the sanctioned escape hatch.
        register_backend("reference", ReferenceBackend, replace=True)
        assert isinstance(get_backend("reference"), ReferenceBackend)


class TestSelection:
    def test_builtin_default(self):
        assert default_backend_name() == B.BUILTIN_DEFAULT == "vectorized"

    def test_env_var_selects(self, monkeypatch):
        monkeypatch.setenv(B.ENV_VAR, "reference")
        assert default_backend_name() == "reference"
        assert get_backend().name == "reference"

    def test_unknown_env_var_raises_listing_names(self, monkeypatch):
        """A typo'd REPRO_BACKEND fails loudly with the valid names."""
        monkeypatch.setenv(B.ENV_VAR, "warp-drive")
        with pytest.raises(ValueError) as excinfo:
            get_backend()
        message = str(excinfo.value)
        assert "warp-drive" in message
        for name in ("reference", "vectorized"):
            assert name in message

    def test_override_beats_env(self, monkeypatch):
        monkeypatch.setenv(B.ENV_VAR, "reference")
        set_default_backend("vectorized")
        assert default_backend_name() == "vectorized"
        set_default_backend(None)
        assert default_backend_name() == "reference"

    def test_set_default_validates_eagerly(self):
        with pytest.raises(ValueError, match="typo"):
            set_default_backend("typo")
        assert default_backend_name() == B.BUILTIN_DEFAULT

    def test_use_backend_restores(self):
        before = default_backend_name()
        with use_backend("reference") as backend:
            assert backend.name == "reference"
            assert default_backend_name() == "reference"
        assert default_backend_name() == before

    def test_use_backend_restores_on_error(self):
        before = default_backend_name()
        with pytest.raises(RuntimeError):
            with use_backend("reference"):
                raise RuntimeError("boom")
        assert default_backend_name() == before


class TestKernelCounters:
    def test_dispatch_increments_per_kernel_counter(self):
        import repro.obs as obs
        from repro.obs import metrics

        obs.enable()
        try:
            obs.reset()
            x = np.arange(2 * 3 * 4 * 4, dtype=np.float64).reshape(2, 3, 4, 4)
            get_backend("vectorized").im2col(x, 2, 2, stride=1, pad=0)
            snap = metrics.REGISTRY.snapshot()
            assert snap["counters"].get("backend.vectorized.im2col") == 1
        finally:
            obs.reset()
            obs.disable()
