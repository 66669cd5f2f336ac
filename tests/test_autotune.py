"""The roofline autotuner: bit-identity contract, candidate space, wiring."""

import json
import math

import numpy as np
import pytest

from repro.autotune import AutoTuner, Candidate, HostCostModel, TuneDecision
from repro.core.api import matrix_profile
from repro.core.config import RunConfig
from repro.engine.plan import JobSpec
from repro.gpu.calibration import (
    CalibrationProfile,
    default_profile,
    load_profile,
    measure_host_profile,
    save_profile,
)
from repro.kernels.dist_calc import block_rows
from repro.precision.modes import PrecisionMode
from repro.reporting import render_autotune_choices
from repro.service import JobRequest, MatrixProfileService
from repro.streams import StreamIngestService, TenantPolicy

MODES = ("FP64", "FP32", "FP16", "Mixed", "FP16C")


def _series(n, d, seed=5):
    rng = np.random.default_rng(seed)
    return rng.normal(size=(n, d)).cumsum(axis=0)


# ---------------------------------------------------------------------------
# The bit-identity contract: no error target => identical output


class TestBitIdentity:
    @pytest.mark.parametrize("mode", MODES)
    def test_self_join_identical(self, mode):
        ts = _series(220, 3)
        base = matrix_profile(ts, m=20, mode=mode)
        auto = matrix_profile(ts, m=20, mode=mode, auto=True)
        assert np.array_equal(auto.profile, base.profile, equal_nan=True)
        assert np.array_equal(auto.index, base.index)

    @pytest.mark.parametrize("mode", MODES)
    def test_ab_join_identical(self, mode):
        ref = _series(200, 2, seed=6)
        qry = _series(160, 2, seed=7)
        base = matrix_profile(ref, qry, m=18, mode=mode)
        auto = matrix_profile(ref, qry, m=18, mode=mode, auto=True)
        assert np.array_equal(auto.profile, base.profile, equal_nan=True)
        assert np.array_equal(auto.index, base.index)

    def test_auto_config_shares_cache_key(self):
        cfg = RunConfig.auto(500, 500, 4, 32, mode="FP32")
        assert cfg.cache_key() == RunConfig(mode="FP32").cache_key()

    def test_explicit_knobs_override_tuner(self):
        ts = _series(150, 2)
        result = matrix_profile(ts, m=16, auto=True, row_block=1)
        base = matrix_profile(ts, m=16, row_block=1)
        assert np.array_equal(result.profile, base.profile, equal_nan=True)


# ---------------------------------------------------------------------------
# Candidate space and decision structure


class TestTuneDecision:
    def test_chosen_is_fastest_viable(self):
        decision = AutoTuner().tune(400, 400, 3, 32, mode="FP32")
        viable = [c for c in decision.candidates if not c.rejected]
        assert decision.chosen in viable
        assert decision.chosen.predicted_seconds == min(
            c.predicted_seconds for c in viable
        )

    def test_candidates_cover_row_block_grid(self):
        tuner = AutoTuner()
        decision = tuner.tune(400, 400, 3, 32, mode="FP64")
        blocks = {c.row_block for c in decision.candidates}
        assert blocks == {min(b, 400) for b in tuner.row_blocks}

    def test_row_block_clamped_to_tile_rows(self):
        decision = AutoTuner().tune(40, 40, 1, 8, mode="FP64")
        assert all(c.row_block <= 40 for c in decision.candidates)

    def test_workers_clamped_to_tile_count(self):
        decision = AutoTuner().tune(300, 300, 2, 16, mode="FP64")
        assert all(
            c.parallel_workers <= c.n_tiles for c in decision.candidates
        )

    def test_memoised_per_shape(self):
        tuner = AutoTuner()
        first = tuner.tune(256, 256, 2, 24, mode="FP32")
        second = tuner.tune(256, 256, 2, 24, mode="FP32")
        assert first is second
        assert tuner.tune(256, 256, 2, 25, mode="FP32") is not first

    def test_caller_tile_floor_respected(self):
        decision = AutoTuner().tune(300, 300, 2, 16, mode="FP64", n_tiles=4)
        assert decision.chosen.n_tiles >= 4

    def test_no_target_keeps_mode_and_exact_precalc(self):
        for mode in MODES:
            decision = AutoTuner().tune(200, 200, 2, 16, mode=mode)
            assert decision.chosen.mode == PrecisionMode.parse(mode)
            assert decision.chosen.precalc_strategy == "exact"
            assert not decision.mode_changed

    def test_explain_mentions_candidates_and_roofline(self):
        decision = AutoTuner().tune(256, 256, 4, 32, mode="FP16")
        report = decision.explain()
        assert "roofline" in report
        assert "dist_calc" in report
        assert "row_block" in report
        assert "chosen:" in report
        assert "occupancy" in report

    def test_config_carries_chosen_knobs(self):
        decision = AutoTuner().tune(300, 300, 2, 24, mode="FP32")
        cfg = decision.config
        assert cfg.row_block == decision.chosen.row_block
        assert cfg.parallel_workers == decision.chosen.parallel_workers
        assert cfg.n_tiles == decision.chosen.n_tiles
        assert cfg.mode == PrecisionMode.FP32


class TestErrorTargetTier:
    def test_tight_target_forces_wide_mode(self):
        decision = AutoTuner().tune(400, 400, 2, 64, mode="FP16",
                                    target_error=1e-10)
        assert decision.chosen.mode == PrecisionMode.FP64
        assert decision.chosen.error_bound <= 1e-10

    def test_infeasible_modes_rejected_with_reason(self):
        decision = AutoTuner().tune(400, 400, 2, 64, mode="FP16",
                                    target_error=1e-10)
        rejected = [c for c in decision.candidates if c.rejected]
        assert rejected
        assert all(c.note for c in rejected)
        assert any(c.mode == PrecisionMode.FP16 for c in rejected)

    def test_loose_target_admits_fft_candidates(self):
        decision = AutoTuner().tune(400, 400, 2, 64, mode="FP32",
                                    target_error=0.1)
        strategies = {
            c.precalc_strategy for c in decision.candidates if not c.rejected
        }
        assert "fft" in strategies

    def test_bound_respected_by_every_viable_candidate(self):
        target = 1e-4
        decision = AutoTuner().tune(300, 300, 2, 32, mode="FP64",
                                    target_error=target)
        for c in decision.candidates:
            if not c.rejected:
                assert c.error_bound <= target

    def test_impossible_target_falls_back_to_requested_mode(self):
        decision = AutoTuner().tune(5000, 5000, 2, 64, mode="FP64",
                                    target_error=1e-30)
        assert decision.chosen.mode == PrecisionMode.FP64
        assert math.isfinite(decision.chosen.predicted_seconds)


# ---------------------------------------------------------------------------
# Cost model


class TestHostCostModel:
    def test_row_block_one_is_slowest(self):
        model = HostCostModel()
        times = {
            b: model.tile_time(256, 256, 4, PrecisionMode.FP64, b)
            for b in (1, 32, 128)
        }
        assert times[1] > times[32] > times[128]

    def test_tall_tile_priced_as_column_walked_blocks(self):
        """A stream band tile (long history x a few new columns) runs as
        budget-sized blocks, not ceil(rows / row_block) super-steps; the
        per-row path (row_block=1) keeps one step per row."""
        model = HostCostModel()
        c = model.calibration
        mode = PrecisionMode.FP32
        rows, cols, d = 4096, 32, 2
        blocks = math.ceil(rows / block_rows(rows, cols, d, 32))
        assert blocks == 2
        cells = rows * cols * d * model.cell_time(mode)
        assert model.tile_time(rows, cols, d, mode, 32) == pytest.approx(
            c.tile_overhead + blocks * c.step_time(mode) + cells
        )
        assert model.tile_time(rows, cols, d, mode, 1) == pytest.approx(
            c.tile_overhead + rows * c.step_time(mode) + cells
        )
        # One row taller than wide: a budget block would still walk rows,
        # so the tile keeps row_block blocks.
        assert block_rows(301, 300, d, 32) == 32

    def test_parallel_floored_at_critical_path(self):
        model = HostCostModel()
        tiles = [(256, 256)] * 4
        serial = model.job_time(tiles, 2, 32, PrecisionMode.FP64, 32, 1)
        quad = model.job_time(tiles, 2, 32, PrecisionMode.FP64, 32, 4)
        longest = model.tile_time(256, 256, 2, PrecisionMode.FP64, 32)
        assert quad < serial
        assert quad >= longest

    def test_estimator_overrides_calibration(self):
        class Estimator:
            seconds_per_cell = 1.0

            def mode_factor(self, mode):
                return 2.0

        model = HostCostModel(estimator=Estimator())
        assert model.cell_time(PrecisionMode.FP64) == 2.0


# ---------------------------------------------------------------------------
# Calibration persistence (satellite)


class TestCalibrationProfiles:
    def test_json_round_trip(self, tmp_path):
        profile = default_profile("V100")
        path = save_profile(profile, tmp_path / "cal.json")
        loaded = load_profile(path)
        assert loaded == profile
        assert loaded.device == "V100"

    def test_from_json_ignores_unknown_fields(self):
        payload = json.loads(default_profile().to_json())
        payload["future_field"] = 123
        profile = CalibrationProfile.from_json(json.dumps(payload))
        assert profile.device == "A100"

    def test_measured_profile_is_usable(self):
        profile = measure_host_profile(n_seg=48, d=2, m=12, repeats=1)
        assert profile.source == "measured"
        for mode in MODES:
            assert profile.cell_time(PrecisionMode.parse(mode)) > 0
            assert profile.step_time(PrecisionMode.parse(mode)) > 0
        tuner = AutoTuner(calibration=profile)
        decision = tuner.tune(128, 128, 2, 16, mode="FP32")
        assert decision.calibration_source == "measured"

    def test_unknown_mode_falls_back_to_fp64(self):
        profile = default_profile()
        assert profile.cell_time("NOPE") == profile.cell_time(
            PrecisionMode.FP64
        )


# ---------------------------------------------------------------------------
# Layer wiring: JobSpec, service, streams, reporting


class TestJobSpecWiring:
    def test_plan_auto_applies_tuned_knobs(self):
        ts = _series(200, 2)
        spec = JobSpec.from_arrays(ts, None, 16)
        default_block = spec.config.row_block
        spec.plan(auto=True)
        decision = AutoTuner().tune(spec.n_r_seg, spec.n_q_seg, 2, 16)
        assert spec.config.row_block == decision.chosen.row_block
        assert spec.config.row_block != default_block or default_block == 128

    def test_tune_with_target_rebuilds_layouts(self):
        ts = _series(200, 2)
        spec = JobSpec.from_arrays(ts, None, 16, RunConfig(mode="FP16"))
        spec.layouts()
        assert spec._tr_layout.dtype == np.float16
        spec.tune(target_error=1e-12)
        assert spec.config.mode == PrecisionMode.FP64
        tr, _ = spec.layouts()
        assert tr.dtype == np.float64

    def test_tune_returns_decision(self):
        spec = JobSpec.modeled(300, 300, 2, 32)
        decision = spec.tune()
        assert isinstance(decision, TuneDecision)
        assert isinstance(decision.chosen, Candidate)


class TestServiceWiring:
    def test_every_admitted_job_is_tuned(self):
        svc = MatrixProfileService(n_gpus=1, n_workers=1, use_cache=False)
        ts = _series(150, 2)
        for _ in range(3):
            svc.submit_and_wait(JobRequest(reference=ts, m=16))
        snap = svc.metrics.snapshot()
        assert snap.autotuned_jobs == 3
        assert sum(snap.autotune_choices.values()) == 3

    def test_service_output_unchanged_by_tuning(self):
        ts = _series(180, 3, seed=9)
        out_a = MatrixProfileService(
            n_gpus=1, n_workers=1
        ).submit_and_wait(JobRequest(reference=ts, m=20, mode="FP16"))
        out_b = MatrixProfileService(
            n_gpus=1, n_workers=1, autotune=False
        ).submit_and_wait(JobRequest(reference=ts, m=20, mode="FP16"))
        assert np.array_equal(
            out_a.result.profile, out_b.result.profile, equal_nan=True
        )
        assert np.array_equal(out_a.result.index, out_b.result.index)

    def test_autotune_off_records_nothing(self):
        svc = MatrixProfileService(n_gpus=1, n_workers=1, autotune=False)
        svc.submit_and_wait(JobRequest(reference=_series(120, 1), m=12))
        assert svc.metrics.snapshot().autotuned_jobs == 0

    def test_estimator_feedback_reaches_cost_model(self):
        svc = MatrixProfileService(n_gpus=1, n_workers=1, use_cache=False)
        model = svc.tuner.cost
        before = model.cell_time(PrecisionMode.FP64)
        # A wildly slow observed job drags the EMA, and with it the
        # tuner's absolute predictions, away from the calibration prior.
        svc.estimator.observe(100, 100, 1, PrecisionMode.FP64, 60.0)
        assert model.cell_time(PrecisionMode.FP64) != before


class TestStreamWiring:
    def _drive(self, autotune):
        svc = StreamIngestService(n_gpus=1, n_workers=1)
        data = _series(320, 2, seed=11)
        svc.register("t", TenantPolicy(m=16, mode="FP32", autotune=autotune),
                     initial=data[:80])
        for i in range(80, 320, 60):
            svc.ingest("t", data[i:i + 60])
        return svc

    def test_tuned_tenant_bit_identical(self):
        tuned, plain = self._drive(True), self._drive(False)
        pa, ia = tuned.profile("t")
        pb, ib = plain.profile("t")
        assert np.array_equal(pa, pb, equal_nan=True)
        assert np.array_equal(ia, ib)

    def test_micro_jobs_recorded(self):
        svc = self._drive(True)
        assert svc.metrics.snapshot().autotuned_jobs > 0
        assert self._drive(False).metrics.snapshot().autotuned_jobs == 0


class TestReporting:
    def test_render_autotune_choices(self):
        svc = MatrixProfileService(n_gpus=1, n_workers=1)
        svc.submit_and_wait(JobRequest(reference=_series(140, 2), m=16))
        text = render_autotune_choices(svc.metrics.snapshot())
        assert "autotune choices" in text
        assert "1 job(s) tuned" in text

    def test_empty_when_untuned(self):
        svc = MatrixProfileService(n_gpus=1, n_workers=1, autotune=False)
        assert render_autotune_choices(svc.metrics.snapshot()) == ""
