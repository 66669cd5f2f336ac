"""Unit tests for RunConfig, MatrixProfileResult and the public API."""

import numpy as np
import pytest

from repro import matrix_profile
from repro.core.config import RunConfig, default_exclusion_zone
from repro.core.result import MatrixProfileResult
from repro.gpu.device import A100, V100
from repro.precision.modes import PrecisionMode


class TestRunConfig:
    def test_defaults(self):
        cfg = RunConfig()
        assert cfg.mode is PrecisionMode.FP64
        assert cfg.device is A100
        assert cfg.launch.total_threads == A100.max_threads
        assert cfg.n_tiles == 1

    def test_device_by_name(self):
        cfg = RunConfig(device="V100")
        assert cfg.device is V100
        assert cfg.launch.block == 2560

    def test_mode_by_string(self):
        assert RunConfig(mode="fp16c").mode is PrecisionMode.FP16C

    def test_with_copies(self):
        cfg = RunConfig()
        cfg2 = cfg.with_(n_tiles=8)
        assert cfg.n_tiles == 1
        assert cfg2.n_tiles == 8
        assert cfg2.device is cfg.device

    def test_invalid_tiles(self):
        with pytest.raises(ValueError):
            RunConfig(n_tiles=0)

    def test_exclusion_zone_default(self):
        assert default_exclusion_zone(16) == 4
        assert default_exclusion_zone(10) == 3


class TestRunConfigSerialisation:
    def test_to_dict_round_trip(self):
        cfg = RunConfig(
            mode="FP16", device="V100", n_tiles=8, n_gpus=2, n_streams=4,
            exclusion_zone=7, sort_strategy="batch",
        )
        restored = RunConfig.from_dict(cfg.to_dict())
        assert restored == cfg

    def test_to_dict_is_json_serialisable(self):
        import json

        payload = json.dumps(RunConfig().to_dict(), sort_keys=True)
        assert json.loads(payload)["mode"] == "FP64"

    def test_round_trip_preserves_tuned_launch(self):
        # A config carrying V100-tuned launch parameters must reconstruct
        # them explicitly, not re-derive them for the default device.
        cfg = RunConfig(device="V100")
        restored = RunConfig.from_dict(cfg.to_dict())
        assert restored.launch == cfg.launch
        assert restored.launch.block == 2560

    def test_cache_key_stable_across_equal_configs(self):
        a = RunConfig(mode="Mixed", n_tiles=4)
        b = RunConfig(mode="Mixed", n_tiles=4)
        assert a is not b
        assert a.cache_key() == b.cache_key()

    @pytest.mark.parametrize(
        "changes",
        [
            {"mode": "FP32"},
            {"n_tiles": 2},
            {"exclusion_zone": 3},
            {"sort_strategy": "batch"},
            {"device": "V100"},
        ],
    )
    def test_cache_key_sensitive_to_numerics_knobs(self, changes):
        # Every knob that can change the computed numbers must change the
        # key — in reduced precision even the tile count alters results.
        base = RunConfig()
        assert base.with_(**changes).cache_key() != base.cache_key()

    def test_cache_key_round_trips_through_dict(self):
        cfg = RunConfig(mode="FP16", n_tiles=16)
        assert RunConfig.from_dict(cfg.to_dict()).cache_key() == cfg.cache_key()


class TestMatrixProfileResult:
    def _result(self, rng):
        p = np.abs(rng.normal(size=(20, 3)))
        i = rng.integers(0, 20, size=(20, 3))
        return MatrixProfileResult(
            profile=p, index=i, mode=PrecisionMode.FP64, m=8
        )

    def test_profile_for_1_based(self, rng):
        r = self._result(rng)
        np.testing.assert_array_equal(r.profile_for(1), r.profile[:, 0])
        np.testing.assert_array_equal(r.profile_for(3), r.profile[:, 2])

    def test_profile_for_out_of_range(self, rng):
        r = self._result(rng)
        with pytest.raises(ValueError):
            r.profile_for(0)
        with pytest.raises(ValueError):
            r.index_for(4)

    def test_motif_location(self, rng):
        r = self._result(rng)
        j, i = r.motif_location(2)
        assert j == int(np.argmin(r.profile[:, 1]))
        assert i == int(r.index[j, 1])

    def test_dims(self, rng):
        r = self._result(rng)
        assert r.n_q_seg == 20
        assert r.d == 3


class TestPublicAPI:
    def test_dispatches_single_tile(self, rng):
        r = matrix_profile(rng.normal(size=(100, 2)), m=8)
        assert r.n_tiles == 1

    def test_dispatches_multi_tile(self, rng):
        r = matrix_profile(rng.normal(size=(100, 2)), m=8, n_tiles=4)
        assert r.n_tiles == 4

    def test_shapes(self, rng):
        r = matrix_profile(
            rng.normal(size=(128, 4)), rng.normal(size=(96, 4)), m=16
        )
        assert r.profile.shape == (81, 4)
        assert r.index.shape == (81, 4)

    def test_mode_string(self, rng):
        r = matrix_profile(rng.normal(size=(100, 2)), m=8, mode="mixed")
        assert r.mode is PrecisionMode.MIXED

    def test_docstring_example(self):
        rng = np.random.default_rng(0)
        ts = rng.normal(size=(512, 4))
        result = matrix_profile(ts, m=32, mode="FP32", n_tiles=4)
        assert result.profile.shape == (481, 4)
