import copy
import functools
import json
import math
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from delaymix import (
    MomentConfig,
    TimeDelaySystem,
    default_config,
    engine_init,
    engine_update,
    filter_window,
    forecast,
    generate,
    run_horizons,
)
from delaymix import engine, filtering
from delaymix.datagen import ScenarioSpec
from delaymix.engine import (
    EngineConfig,
    Standardizer,
    load_checkpoint,
    save_checkpoint,
    state_footprint_bytes,
)
from delaymix.errors import (
    ColdStartError,
    ConfigError,
    DataError,
    EngineStageError,
    NumericalError,
    ParseError,
    ShapeError,
)
from delaymix.filtering import FilterTrace, NoiseSpec
from delaymix.syslin import Trajectory
from oracles import assert_close, per_step_checked_forward


def single_regime_traj(length=2000, seed=0, a=0.6, delay=1, noise=0.0):
    sys = TimeDelaySystem(a, 1.0, 1.0, delay=delay)
    return generate(
        ScenarioSpec(regimes=(sys,), length=length, seed=seed, obs_noise_std=noise)
    )


def two_regime_traj(length=6000, seed=0, noise=0.01):
    spec = ScenarioSpec(
        regimes=(
            TimeDelaySystem(0.6, 1.0, 1.0, delay=1),
            TimeDelaySystem(0.5, 1.0, 1.0, delay=2),
        ),
        length=length,
        schedule=((0, 1), (length // 2, 2)),
        seed=seed,
        obs_noise_std=noise,
    )
    return generate(spec)


class TestEngineInit:
    def test_default_tensor_shape(self):
        config = default_config(d=4, dc=4, s=3)
        state = engine_init(config)
        assert state.tensor.data.shape == (96, 96, 96)
        assert state.database.records == []

    def test_window_below_minimum_rejected(self):
        config = default_config(d=1, dc=1, s=3, l_c=10)
        with pytest.raises(ConfigError, match="l_c"):
            engine_init(config)

    def test_grid_values_accepted(self):
        config = default_config(d=1, dc=1, s=3, rank=4, rho=0.7)
        state = engine_init(config)
        assert state.config.rank == 4
        assert state.config.rho == 0.7

    def test_violations_are_collected(self):
        config = EngineConfig(
            moment=MomentConfig(d=1, dc=1, s=3),
            rank=0,
            rho=-1.0,
            l_c=5,
            l_s=0,
            seed=-1,
        )
        with pytest.raises(ConfigError) as info:
            engine_init(config)
        assert len(info.value.violations) >= 5
        assert "seed=-1 must be non-negative" in info.value.violations

    @pytest.mark.parametrize(
        "changes, message",
        [
            ({"l_c": 60.0}, "l_c=60.0 must be an int"),
            ({"rank": 2.0}, "rank=2.0 must be an int"),
            ({"seed": 0.5}, "seed=0.5 must be an int"),
            ({"l_s": 1.5}, "l_s=1.5 must be an int"),
            ({"rho": True}, "rho=True must be a number"),
        ],
        ids=["l_c", "rank", "seed", "l_s", "rho"],
    )
    def test_non_integer_values_refused(self, tmp_path, changes, message):
        config = default_config(d=1, dc=1, s=3, l_c=60)
        with pytest.raises(ConfigError) as info:
            engine_init(replace(config, **changes))
        assert info.value.violations == [message]
        # the same values in a checkpoint's config
        path = tmp_path / "checkpoint.bin"
        save_checkpoint(engine_init(config), path)
        header, payload = _split_checkpoint(path.read_bytes())
        config_entry = {**header["config"], **changes}
        path.write_bytes(_join_checkpoint({**header, "config": config_entry}, payload))
        with pytest.raises(ParseError, match=f"damaged checkpoint .*{message}"):
            load_checkpoint(path)

    def test_dense_cap_refused(self):
        # mode size 2 * 3 * 8 * 8 = 384 exceeds the dense cap of 256
        config = default_config(d=8, dc=8, s=3)
        with pytest.raises(ConfigError) as info:
            engine_init(config)
        assert any("dense cap 256" in v for v in info.value.violations)


class TestEngineUpdate:
    def test_first_update_adapts_then_gate_holds(self):
        traj = single_regime_traj(length=4000, seed=1)
        config = default_config(d=1, dc=1, s=3, rank=1, rho=0.6, l_c=100, l_s=1)
        state = engine_init(config)
        flags = []
        for w in range(20):
            o = w * 100
            report = engine_update(
                state, traj.outputs[o : o + 100], traj.inputs[o : o + 101]
            )
            flags.append(report.adapted)
        assert flags[0] is True
        assert sum(flags[1:]) <= 2  # stationary stream: the gate mostly holds

    def test_adapted_false_means_no_iterations(self):
        traj = single_regime_traj(length=1000, seed=2)
        config = default_config(d=1, dc=1, s=3, rank=1, rho=10.0, l_c=100, l_s=1)
        state = engine_init(config)
        first = engine_update(state, traj.outputs[:100], traj.inputs[:101])
        second = engine_update(state, traj.outputs[100:200], traj.inputs[100:201])
        assert first.adapted and first.als_iters > 0
        assert not second.adapted and second.als_iters == 0
        # the final ALS residual is reported only by an update that ran ALS
        assert type(first.als_residual) is float
        assert np.isfinite(first.als_residual) and 0.0 <= first.als_residual <= 1.0
        assert second.als_residual is None

    def test_regime_switch_triggers_adaptation(self):
        traj = two_regime_traj(length=6000, seed=3)
        config = default_config(d=1, dc=1, s=3, rank=2, rho=0.5, l_c=100, l_s=1)
        state = engine_init(config)
        reports = []
        for w in range(59):
            o = w * 100
            reports.append(
                engine_update(
                    state, traj.outputs[o : o + 100], traj.inputs[o : o + 101]
                )
            )
        switch_window = 30  # first window fully inside regime 2
        assert reports[switch_window].adapted

    def test_determinism(self):
        traj = single_regime_traj(length=1000, seed=4)
        config = default_config(d=1, dc=1, s=3, rank=1, rho=0.5, l_c=100, l_s=3)
        s1 = engine_init(config)
        s2 = engine_init(config)
        r1 = engine_update(s1, traj.outputs[:100], traj.inputs[:103])
        r2 = engine_update(s2, traj.outputs[:100], traj.inputs[:103])
        assert np.array_equal(r1.forecast, r2.forecast)
        s1b = copy.deepcopy(s1)
        r3 = engine_update(s1, traj.outputs[100:200], traj.inputs[100:203])
        r4 = engine_update(s1b, traj.outputs[100:200], traj.inputs[100:203])
        assert np.array_equal(r3.forecast, r4.forecast)

    def test_cold_start_error(self):
        config = default_config(d=1, dc=1, s=3, l_c=100, l_s=1)
        state = engine_init(config)
        with pytest.raises(ColdStartError, match="informative"):
            engine_update(state, np.zeros((100, 1)), np.zeros((101, 1)))

    def test_cold_start_ignores_future_inputs(self):
        # all-zero window inputs stay a cold start when a future input is not
        traj = single_regime_traj(length=300, seed=5)
        config = default_config(d=1, dc=1, s=3, l_c=100, l_s=1)
        state = engine_init(config)
        inputs = np.zeros((101, 1))
        inputs[100] = 1.0
        with pytest.raises(ColdStartError, match="informative"):
            engine_update(state, traj.outputs[:100], inputs)
        assert state.updates == 0
        assert state.scaler is None

    def test_window_length_validation(self):
        traj = single_regime_traj(length=300, seed=5)
        config = default_config(d=1, dc=1, s=3, l_c=100, l_s=2)
        state = engine_init(config)
        with pytest.raises(ValueError, match="l_c"):
            engine_update(state, traj.outputs[:90], traj.inputs[:102])
        with pytest.raises(ValueError, match="future"):
            engine_update(state, traj.outputs[:100], traj.inputs[:100])
        # the forecast has one row per future input, whatever l_s says
        report = engine_update(state, traj.outputs[:100], traj.inputs[:103])
        assert report.forecast.shape == (3, 1)

    def test_numerical_errors_carry_stage_name(self, monkeypatch):
        def diverging_als(*args, **kwargs):
            raise NumericalError("non-finite ALS sweep", step=3)

        monkeypatch.setattr(engine, "cp_als", diverging_als)
        traj = single_regime_traj(length=300, seed=6)
        config = default_config(d=1, dc=1, s=3, l_c=100, l_s=1)
        state = engine_init(config)
        with pytest.raises(EngineStageError, match="model_adaptation") as info:
            engine_update(state, traj.outputs[:100], traj.inputs[:101])
        assert isinstance(info.value.cause, NumericalError)

    def test_non_finite_window_leaves_state_unchanged(self):
        traj = two_regime_traj(length=1600, seed=9)
        config = default_config(d=1, dc=1, s=3, rank=2, rho=0.5, l_c=100, l_s=1)

        def feed(state, w, outputs=None, inputs=None):
            o = w * 100
            return engine_update(
                state,
                traj.outputs[o : o + 100] if outputs is None else outputs,
                traj.inputs[o : o + 101] if inputs is None else inputs,
            )

        clean, poisoned = engine_init(config), engine_init(config)
        for w in range(5):
            feed(clean, w)
            feed(poisoned, w)
        before = copy.deepcopy(poisoned)
        bad_outputs = traj.outputs[500:600].copy()
        bad_outputs[40] = np.nan
        bad_future = traj.inputs[500:601].copy()
        bad_future[100] = np.inf
        # two channels on a d = dc = 1 engine would broadcast into the scaler
        wide_outputs = np.hstack([traj.outputs[500:600]] * 2)
        wide_inputs = np.hstack([traj.inputs[500:601]] * 2)
        for outputs, inputs, error in (
            (bad_outputs, None, DataError),
            (None, bad_future, DataError),
            (wide_outputs, None, ShapeError),
            (None, wide_inputs, ShapeError),
            (5.0, None, ShapeError),
        ):
            with pytest.raises(error, match="non-finite|channels"):
                feed(poisoned, 5, outputs, inputs)
        assert poisoned.updates == before.updates == 5
        assert_same_state(poisoned, before)
        # window 5 never happened: later forecasts match a run that skipped it
        for w in range(6, 15):
            assert np.array_equal(feed(poisoned, w).forecast, feed(clean, w).forecast)

    @pytest.mark.parametrize(
        "stage, name",
        [
            ("moment_collection", "accumulate_window"),
            ("fit_scoring", "window_error"),
            ("model_adaptation", "cp_als"),
            ("forecasting", "forecast"),
        ],
    )
    def test_failed_stage_leaves_state_unchanged(self, monkeypatch, stage, name):
        traj = two_regime_traj(length=1600, seed=9)
        config = default_config(d=1, dc=1, s=3, rank=2, rho=0.5, l_c=100, l_s=1)

        def feed(state, w):
            o = w * 100
            return engine_update(state, traj.outputs[o : o + 100], traj.inputs[o : o + 101])

        clean = engine_init(config)
        reference = [feed(clean, w) for w in range(15)]
        # an adapting update with models already stored runs all four stages
        failing = next(w for w in range(1, 15) if reference[w].adapted)
        state = engine_init(config)
        for w in range(failing):
            feed(state, w)
        before = copy.deepcopy(state)

        def broken(*args, **kwargs):
            raise NumericalError("injected failure")

        with monkeypatch.context() as patch:
            patch.setattr(engine, name, broken)
            with pytest.raises(EngineStageError, match=stage):
                feed(state, failing)
        assert_same_state(state, before)
        # the retried window and the rest of the stream equal a clean run
        for w in range(failing, 15):
            assert np.array_equal(feed(state, w).forecast, reference[w].forecast)

    def test_forecast_pass_through(self):
        # every forecast, from the gate or from selection, is bitwise the one
        # the cached map gives again, and matches one anchored at the
        # per-step reference filter of the model it came from
        traj = two_regime_traj(length=6000, seed=3)
        config = default_config(d=1, dc=1, s=3, rank=2, rho=0.5, l_c=100, l_s=4)
        state = engine_init(config)
        kinds = set()
        for w in range(59):
            o = w * 100
            had_models = bool(state.database.records)
            report = engine_update(state, traj.outputs[o : o + 100], traj.inputs[o : o + 104])
            kinds.add((report.adapted, had_models))
            scaler = state.scaler
            window = Trajectory(
                scaler.outputs(traj.outputs[o : o + 100]), scaler.inputs(traj.inputs[o : o + 100])
            )
            model = state.database.active().model
            future = scaler.inputs(traj.inputs[o + 100 : o + 104])
            cached = filter_window(model, state.database.active_map, window)
            expected = forecast(model, window, future, cached)
            assert np.array_equal(report.forecast, scaler.restore_outputs(expected)), w
            filtered, _, _, _, predictions, _ = per_step_checked_forward(model, window, NoiseSpec())
            reference = FilterTrace(None, predictions, filtered[-1])
            assert_close(expected, forecast(model, window, future, reference))
        assert kinds == {(True, False), (True, True), (False, True)}

    def test_bounded_memory(self):
        traj = single_regime_traj(length=11000, seed=8)
        config = default_config(d=1, dc=1, s=3, rank=2, rho=0.2, l_c=100, l_s=1)
        state = engine_init(config)
        d, dc, dim, rank = config.moment.d, config.moment.dc, config.moment.mode_dim, config.rank
        assert state_footprint_bytes(state) == 8 * dim**3
        sizes = set()
        largest_order = config.moment.s * min(config.moment.d, config.moment.dc)
        for w in range(100):
            o = w * 100
            engine_update(state, traj.outputs[o : o + 100], traj.inputs[o : o + 101])
            sizes.add(state_footprint_bytes(state))
            # the map cache: the active model's map and no other record's
            active_map = state.database.active_map
            n_active = state.database.active().model.state_dim
            assert active_map.shape == (config.l_c * d + n_active, config.l_c * (d + dc))
            assert active_map.base is None
            assert active_map.size <= (config.l_c * d + largest_order) * config.l_c * (d + dc)
        # from the first update on, the footprint is the fixed summary: the
        # tensor, the standardizer and the warm-start factors
        assert sizes == {8 * (dim**3 + 2 * (d + dc) + 3 * dim * rank)}
        assert len(state.database.records) <= config.rank


class TestFilterPasses:
    def test_one_filter_pass_per_scored_model(self, monkeypatch):
        # every delaymix global bound to a filtering function counts its calls
        calls = {"kalman_forward": 0, "filter_window": 0}

        def counting(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)

            return wrapper

        for name in calls:
            original = getattr(filtering, name)
            wrapper = counting(name, original)
            for module_name, module in list(sys.modules.items()):
                if module_name == "delaymix" or module_name.startswith("delaymix."):
                    for key, value in list(vars(module).items()):
                        if value is original:
                            monkeypatch.setattr(module, key, wrapper)

        traj = two_regime_traj(length=6000, seed=3)
        config = default_config(d=1, dc=1, s=3, rank=2, rho=0.5, l_c=100, l_s=1)
        state = engine_init(config)
        kinds = set()
        for w in range(59):
            o = w * 100
            had_models = bool(state.database.records)
            before = dict(calls)
            report = engine_update(
                state, traj.outputs[o : o + 100], traj.inputs[o : o + 101]
            )
            # the gate applies the old active model's cached map; only an
            # adaptation builds maps, every new model's in one batch, and
            # applies each once
            applied = calls["filter_window"] - before["filter_window"]
            builds = calls["kalman_forward"] - before["kalman_forward"]
            new_models = len(state.database.records) if report.adapted else 0
            assert applied == int(had_models) + new_models, (w, report.adapted)
            assert builds == int(report.adapted), (w, report.adapted)
            kinds.add((report.adapted, had_models))
        assert kinds == {(True, False), (True, True), (False, True)}


class TestGateMonotonicity:
    def test_infinite_threshold_never_readapts(self):
        traj = two_regime_traj(length=4000, seed=9)
        config = default_config(d=1, dc=1, s=3, rank=2, rho=1e12, l_c=100, l_s=1)
        state = engine_init(config)
        flags = []
        for w in range(39):
            o = w * 100
            flags.append(
                engine_update(
                    state, traj.outputs[o : o + 100], traj.inputs[o : o + 101]
                ).adapted
            )
        assert flags[0] is True
        assert not any(flags[1:])

    def test_zero_threshold_always_adapts(self):
        traj = single_regime_traj(length=2000, seed=10)
        config = default_config(d=1, dc=1, s=3, rank=1, rho=1e-15, l_c=100, l_s=1)
        state = engine_init(config)
        flags = []
        for w in range(19):
            o = w * 100
            flags.append(
                engine_update(
                    state, traj.outputs[o : o + 100], traj.inputs[o : o + 101]
                ).adapted
            )
        assert all(flags)

    @pytest.mark.parametrize("forgetting", [1.0, 0.9])
    def test_summary_does_not_depend_on_the_gate(self, forgetting):
        # one engine adapts on every window, the other only on the first; the
        # moment tensor and the standardizer must not notice the difference
        traj = two_regime_traj(length=2000, seed=11)
        states = [
            engine_init(
                default_config(
                    d=1, dc=1, s=3, rank=2, rho=rho, l_c=100, l_s=1, forgetting=forgetting
                )
            )
            for rho in (1e-15, 1e12)
        ]
        adapted = [[], []]
        for w in range(19):
            o = w * 100
            for state, flags in zip(states, adapted):
                report = engine_update(state, traj.outputs[o : o + 100], traj.inputs[o : o + 101])
                flags.append(report.adapted)
            always, once = states
            assert always.tensor.weight == once.tensor.weight
            assert np.array_equal(always.tensor.data, once.tensor.data)
            for name in ("out_mean", "out_std", "in_mean", "in_std"):
                assert np.array_equal(getattr(always.scaler, name), getattr(once.scaler, name))
        assert all(adapted[0])
        assert adapted[1] == [True] + [False] * 18


class TestRunHorizons:
    def test_too_short(self):
        config = default_config(d=1, dc=1, s=3, l_c=100)
        with pytest.raises(DataError):
            run_horizons(config, single_regime_traj(length=50, seed=11), (1,))
        # the minimum length is l_c plus the longest horizon, not the first
        traj = single_regime_traj(length=120, seed=11)
        with pytest.raises(DataError, match=r"need at least l_c \+ max\(horizons\) = 130"):
            run_horizons(config, traj, (1, 30))

    def test_single_regime_accuracy(self):
        # noise-free stationary stream with a low gate: forecasts sharpen as
        # moments accumulate, reaching the target accuracy on the late part
        traj = single_regime_traj(length=100000, seed=0)
        config = default_config(d=1, dc=1, s=3, rank=1, rho=1e-3, l_c=500, seed=0)
        reports, _, _ = run_horizons(config, traj, (1,))
        scaler = Standardizer.fit(traj.outputs[:500], traj.inputs[:500])
        ses = []
        for w, report in enumerate(reports):
            o = w * 500
            actual = traj.outputs[o + 500 : o + 501]
            diff = scaler.outputs(report.forecast) - scaler.outputs(actual)
            ses.append(float(np.sum(diff * diff)))
        late = ses[-len(ses) // 4 :]
        assert np.mean(late) < 1e-4

    def test_beats_persistence(self):
        from delaymix.datagen import persistence_baseline

        traj = two_regime_traj(length=6000, seed=1)
        config = default_config(d=1, dc=1, s=3, rank=2, rho=0.5, l_c=100)
        reports, (metrics,), _ = run_horizons(config, traj, (1,))
        scaler = Standardizer.fit(traj.outputs[:100], traj.inputs[:100])
        se = 0.0
        count = 0
        for w in range(len(reports)):
            o = w * 100
            pred = persistence_baseline(traj.window(o, o + 100), 1)
            actual = traj.outputs[o + 100 : o + 101]
            diff = scaler.outputs(pred) - scaler.outputs(actual)
            se += float(np.sum(diff * diff))
            count += diff.size
        assert metrics.mse < se / count

    def test_metrics_shapes(self):
        traj = single_regime_traj(length=1500, seed=12)
        config = default_config(d=1, dc=1, s=3, rank=1, rho=0.5, l_c=100)
        reports, (metrics,), _ = run_horizons(config, traj, (5,))
        assert metrics.horizon == 5
        assert metrics.n_points == len(reports) * 5
        assert len(metrics.cumulative_se) == len(reports)
        assert metrics.cumulative_se == sorted(metrics.cumulative_se)
        assert metrics.mse == metrics.cumulative_se[-1] / metrics.n_points


CUT_WINDOWS, CUT_LC = 16, 60


def _cut_config(forgetting):
    return default_config(
        d=1, dc=1, s=3, rank=2, rho=0.5, l_c=CUT_LC, l_s=1, forgetting=forgetting
    )


def _feed_windows(state, traj, windows):
    reports = []
    for w in windows:
        o = w * CUT_LC
        reports.append(
            engine_update(state, traj.outputs[o : o + CUT_LC], traj.inputs[o : o + CUT_LC + 1])
        )
    return reports


@functools.cache
def _uninterrupted_run(forgetting):
    traj = two_regime_traj(length=CUT_WINDOWS * CUT_LC + 1, seed=3)
    reports = _feed_windows(engine_init(_cut_config(forgetting)), traj, range(CUT_WINDOWS))
    return traj, reports


class TestCheckpoint:
    @settings(max_examples=10, deadline=None, database=None)
    @given(cut=st.integers(0, CUT_WINDOWS - 1), forgetting=st.sampled_from([1.0, 0.9]))
    def test_restore_then_continue_equals_uninterrupted(self, cut, forgetting):
        traj, reference = _uninterrupted_run(forgetting)
        # adaptations after the first one warm-start from the saved factors
        assert sum(report.adapted for report in reference[1:]) >= 2
        state = engine_init(_cut_config(forgetting))
        _feed_windows(state, traj, range(cut))
        with tempfile.TemporaryDirectory() as tmp:
            first, second = Path(tmp) / "first.bin", Path(tmp) / "second.bin"
            save_checkpoint(state, first)
            restored = load_checkpoint(first)
            save_checkpoint(restored, second)
            assert second.read_bytes() == first.read_bytes()
        # the rebuilt map cache is bitwise the one the saved run held
        if cut:
            assert np.array_equal(restored.database.active_map, state.database.active_map)
        else:
            assert restored.database.active_map is None
        resumed = _feed_windows(restored, traj, range(cut, CUT_WINDOWS))
        for got, want in zip(resumed, reference[cut:]):
            assert got.adapted == want.adapted
            assert np.array_equal(got.forecast, want.forecast)

    def test_round_trip(self, tmp_path):
        traj = single_regime_traj(length=1200, seed=13)
        config = default_config(d=1, dc=1, s=3, rank=1, rho=0.5, l_c=100, l_s=2)
        state = engine_init(config)
        for w in range(8):
            o = w * 100
            engine_update(state, traj.outputs[o : o + 100], traj.inputs[o : o + 102])
        path = tmp_path / "checkpoint.bin"
        save_checkpoint(state, path)
        restored = load_checkpoint(path)
        assert_same_state(restored, state)
        # the restored engine keeps producing forecasts
        o = 800
        r1 = engine_update(state, traj.outputs[o : o + 100], traj.inputs[o : o + 102])
        r2 = engine_update(
            restored, traj.outputs[o : o + 100], traj.inputs[o : o + 102]
        )
        assert r1.forecast.shape == r2.forecast.shape

    def test_config_round_trip(self, tmp_path):
        config = default_config(d=1, dc=1, s=3, l_c=100, l_s=1, seed=5, forgetting=0.9)
        path = tmp_path / "c.bin"
        save_checkpoint(engine_init(config), path)
        header, _ = _split_checkpoint(path.read_bytes())
        assert set(header["config"]) == {"moment", "rank", "rho", "l_c", "l_s", "seed"}
        assert load_checkpoint(path).config == config

    def test_damaged_file_raises_parse_error(self, tmp_path):
        traj = single_regime_traj(length=300, seed=14)
        config = default_config(d=1, dc=1, s=3, rank=1, rho=0.5, l_c=100, l_s=2)
        state = engine_init(config)
        engine_update(state, traj.outputs[:100], traj.inputs[:102])
        path = tmp_path / "checkpoint.bin"
        save_checkpoint(state, path)
        raw = path.read_bytes()
        header, payload = _split_checkpoint(raw)
        start = len(raw) - len(payload)

        def with_header(**changes):
            return _join_checkpoint({**header, **changes}, payload)

        def with_tensor_shape(shape):
            return with_header(arrays=[["tensor", shape]] + header["arrays"][1:])

        def with_record(**changes):
            return with_header(records=[{**header["records"][0], **changes}])

        def with_value(name, value):
            # the named array's first entry set to value
            offset = 0
            for listed, shape in header["arrays"]:
                if listed == name:
                    break
                offset += 8 * math.prod(shape)
            patch = np.array([value], dtype="<f8").tobytes()
            return _join_checkpoint(header, payload[:offset] + patch + payload[offset + 8 :])

        assert header["arrays"][0] == ["tensor", [6, 6, 6]]
        moment = header["config"]["moment"]
        # cuts inside the version byte, the length prefix, the header and the
        # array payload, then files of versions 2 to 7 and one trailing byte
        cuts = [0, 1, 5, start - 10, start, start + 4, len(raw) - 8]
        variants = [raw[:cut] for cut in cuts]
        variants += [bytes([version]) + raw[1:] for version in (2, 3, 4, 5, 6, 7)]
        variants += [raw + b"\x00"]
        variants += [
            with_tensor_shape([6, 6, -6]),
            with_tensor_shape([6, 6, 10**12]),
            # same byte count, but not the (D, D, D) shape the config implies
            with_tensor_shape([3, 12, 6]),
            # the header drops the record whose arrays it still lists
            with_header(records=[]),
            with_header(active_index=1),
            # counters of the wrong type, sign or finiteness
            with_header(updates="1"),
            with_header(updates=-1),
            with_header(updates=True),
            with_header(weight=float("nan")),
            with_header(weight=-1.0),
            with_header(weight="1"),
            # a config key of version 5 that this version no longer has
            with_header(config={**header["config"], "warm_start": True}),
            # a tensor size that is not an int
            with_header(config={**header["config"], "moment": {**moment, "s": 3.0}}),
            # records that name no CP component or carry no finite gain
            with_record(component_index=-7, b_scale="x"),
            with_record(component_index=3.5, b_scale=None),
            with_record(component_index=1),
            with_record(component_index=False),
            with_record(b_scale=float("nan")),
            with_record(b_scale=1),
            with_record(b_scale=0.0),
            # non-finite array values and non-positive standardizer scales
            with_value("tensor", float("nan")),
            with_value("mode1", float("inf")),
            with_value("out_std", 0.0),
            with_value("in_std", -1.0),
            # version 7 stored each record's model; version 8 derives it from
            # the warm-start factors, so it refuses a listed model array
            _join_checkpoint(
                {**header, "arrays": header["arrays"] + [["record0.transition", [1, 1]]]},
                payload + bytes(8),
            ),
        ]
        damaged = tmp_path / "damaged.bin"
        for blob in variants:
            damaged.write_bytes(blob)
            with pytest.raises(ParseError, match="damaged checkpoint"):
                load_checkpoint(damaged)
        # the refusal names the record
        damaged.write_bytes(with_record(b_scale=0.0))
        with pytest.raises(ParseError, match="record 0's b_scale 0.0 is not"):
            load_checkpoint(damaged)
        # the intact file still loads
        assert load_checkpoint(path).updates == 1

    def test_version_7_file_refused(self, tmp_path):
        # a file as version 7 wrote it: each record's model after the summary
        state = _adapted_state(rank=1)
        path = tmp_path / "checkpoint.bin"
        save_checkpoint(state, path)
        header, payload = _split_checkpoint(path.read_bytes())
        model = state.database.records[0].model
        parts = [
            (f"record0.{name}", getattr(model, name))
            for name in ("transition", "input_map", "output_map")
        ]
        arrays = header["arrays"] + [[name, list(part.shape)] for name, part in parts]
        payload += b"".join(part.astype("<f8").tobytes() for _, part in parts)
        blob = _join_checkpoint({**header, "arrays": arrays}, payload)
        path.write_bytes(bytes([7]) + blob[1:])
        with pytest.raises(ParseError, match="damaged checkpoint .*expected 8"):
            load_checkpoint(path)

    @pytest.mark.parametrize(
        "records, message",
        [
            # rank 2 realizes components 0 and 1, in that order
            ([0, 1, 1], r"realize components \[0, 1\], the header lists \[0, 1, 1\]"),
            ([1, 0], r"realize components \[0, 1\], the header lists \[1, 0\]"),
            ([0, 0], r"realize components \[0, 1\], the header lists \[0, 0\]"),
            ([0, 2], r"realize components \[0, 1\], the header lists \[0, 2\]"),
            ([0], r"realize components \[0, 1\], the header lists \[0\]"),
        ],
        ids=["extra", "swapped", "repeated", "unrealized", "missing"],
    )
    def test_component_indices_match_the_factors(self, tmp_path, records, message):
        path = tmp_path / "checkpoint.bin"
        state = _adapted_state(rank=2)
        assert [record.component_index for record in state.database.records] == [0, 1]
        save_checkpoint(state, path)
        header, payload = _split_checkpoint(path.read_bytes())
        entries = [{"component_index": index, "b_scale": 1.5} for index in records]
        path.write_bytes(_join_checkpoint({**header, "records": entries}, payload))
        with pytest.raises(ParseError, match=f"damaged checkpoint .*{message}"):
            load_checkpoint(path)

    def test_unfilterable_active_model_raises_parse_error(self, tmp_path):
        # every stored value is finite, but a warm-start factor whose first
        # Markov block is 1e30 times the others realizes a model whose
        # filter map cancels past what float64 holds, so no update can
        # commit it
        state = _adapted_state(rank=1)
        state.database.last_factors = replace(
            state.database.last_factors, mode1=np.array([[1e30], [1], [1], [1], [1], [1]])
        )
        path = tmp_path / "checkpoint.bin"
        save_checkpoint(state, path)
        with pytest.raises(
            ParseError,
            match="damaged checkpoint .*models cannot be filtered: filter map cancels at step 1",
        ):
            load_checkpoint(path)

    def test_state_parts_present_exactly_after_an_update(self, tmp_path):
        path = tmp_path / "checkpoint.bin"
        state = _adapted_state(rank=1)
        save_checkpoint(engine_init(state.config), path)
        empty = _split_checkpoint(path.read_bytes())
        save_checkpoint(state, path)
        header, payload = _split_checkpoint(path.read_bytes())
        scaler = ("out_mean", "out_std", "in_mean", "in_std")
        factors = ("mode1", "mode2", "mode3")
        variants = [
            # a never-updated state that claims updates
            (dict(empty[0], updates=3), empty[1]),
            # an updated state that claims none, or lacks its weight
            (dict(header, updates=0), payload),
            (dict(header, weight=0.0), payload),
            # an updated state without its standardizer or warm-start factors
            _without_arrays(header, payload, scaler),
            _without_arrays(header, payload, factors),
            # factors but no record
            (dict(header, records=[], active_index=-1), payload),
        ]
        for changed_header, changed_payload in variants:
            path.write_bytes(_join_checkpoint(changed_header, changed_payload))
            with pytest.raises(ParseError, match="damaged checkpoint .*updates="):
                load_checkpoint(path)

    def test_array_shapes_checked_against_config(self, tmp_path):
        path = tmp_path / "checkpoint.bin"
        save_checkpoint(_adapted_state(rank=1), path)
        header, payload = _split_checkpoint(path.read_bytes())
        assert dict(header["arrays"])["out_mean"] == [1]
        # each edit keeps the byte count, so only the shape check can refuse it
        for changes in (
            {"out_mean": [2], "out_std": [0]},
            {"in_mean": [0], "in_std": [2]},
        ):
            arrays = [[name, changes.get(name, shape)] for name, shape in header["arrays"]]
            path.write_bytes(_join_checkpoint({**header, "arrays": arrays}, payload))
            with pytest.raises(ParseError, match="damaged checkpoint .*the config implies"):
                load_checkpoint(path)

    def test_non_finite_derived_markov_raises_parse_error(self, tmp_path):
        # every stored value is finite, but the norms of factors scaled by
        # 1e200 overflow, so the Markov blocks derived from them are NaN,
        # which realization refuses
        state = _adapted_state(rank=1)
        factors = state.database.last_factors
        state.database.last_factors = replace(
            factors, mode2=1e200 * factors.mode2, mode3=1e200 * factors.mode3
        )
        path = tmp_path / "checkpoint.bin"
        save_checkpoint(state, path)
        with pytest.raises(
            ParseError,
            match="damaged checkpoint .*cannot be realized: .*Markov blocks hold non-finite values",
        ):
            load_checkpoint(path)

    def test_non_finite_rederived_record_raises_parse_error(self, tmp_path):
        # a finite stored gain whose product with the realized input map
        # overflows: the factor scaled by 1e6 scales the Markov blocks by
        # 100 and the input map by 10, past 1 here
        state = _adapted_state(rank=1)
        factors = state.database.last_factors
        state.database.last_factors = replace(factors, mode1=1e6 * factors.mode1)
        path = tmp_path / "checkpoint.bin"
        save_checkpoint(state, path)
        header, payload = _split_checkpoint(path.read_bytes())
        records = [{**header["records"][0], "b_scale": 1e308}]
        path.write_bytes(_join_checkpoint({**header, "records": records}, payload))
        with pytest.raises(
            ParseError,
            match="damaged checkpoint .*record 0, re-derived from the warm-start factors, "
            "holds non-finite values",
        ):
            load_checkpoint(path)

    def test_rank_checked_against_config(self, tmp_path):
        path = tmp_path / "checkpoint.bin"
        for saved_rank, claimed_rank in ((1, 2), (2, 1)):
            state = _adapted_state(rank=saved_rank)
            assert len(state.database.records) == saved_rank
            save_checkpoint(state, path)
            header, payload = _split_checkpoint(path.read_bytes())
            config = {**header["config"], "rank": claimed_rank}
            path.write_bytes(_join_checkpoint({**header, "config": config}, payload))
            with pytest.raises(ParseError, match="damaged checkpoint .*mode1 has shape"):
                load_checkpoint(path)


def _adapted_state(rank):
    traj = two_regime_traj(length=300, seed=14)
    config = default_config(d=1, dc=1, s=3, rank=rank, rho=0.5, l_c=100, l_s=1)
    state = engine_init(config)
    engine_update(state, traj.outputs[:100], traj.inputs[:101])
    return state


def assert_same_state(got, want):
    """Every counter and array of two engine states is bitwise equal."""
    assert got.updates == want.updates
    assert got.tensor.weight == want.tensor.weight
    assert np.array_equal(got.tensor.data, want.tensor.data)
    for name in ("out_mean", "out_std", "in_mean", "in_std"):
        assert np.array_equal(getattr(got.scaler, name), getattr(want.scaler, name))
    assert got.database.active_index == want.database.active_index
    for name in ("mode1", "mode2", "mode3"):
        assert np.array_equal(
            getattr(got.database.last_factors, name),
            getattr(want.database.last_factors, name),
        )
    assert len(got.database.records) == len(want.database.records)
    for mine, theirs in zip(got.database.records, want.database.records):
        assert np.array_equal(mine.model.transition, theirs.model.transition)
        assert np.array_equal(mine.model.input_map, theirs.model.input_map)
        assert np.array_equal(mine.model.output_map, theirs.model.output_map)
        assert np.array_equal(mine.markov.blocks, theirs.markov.blocks)
        assert mine.component_index == theirs.component_index
        assert mine.b_scale == theirs.b_scale
    if want.database.active_map is None:
        assert got.database.active_map is None
    else:
        assert np.array_equal(got.database.active_map, want.database.active_map)


def _without_arrays(header, payload, names):
    """A checkpoint header and payload with the named arrays taken out."""
    kept, chunks, start = [], [], 0
    for name, shape in header["arrays"]:
        size = 8 * math.prod(shape)
        if name not in names:
            kept.append([name, shape])
            chunks.append(payload[start : start + size])
        start += size
    return dict(header, arrays=kept), b"".join(chunks)


def _split_checkpoint(raw):
    """A checkpoint's decoded header and the array bytes after it."""
    start = 9 + int.from_bytes(raw[1:9], "little")
    return json.loads(raw[9:start]), raw[start:]


def _join_checkpoint(header, payload):
    text = json.dumps(header, sort_keys=True).encode("utf-8")
    return bytes([engine.CHECKPOINT_VERSION]) + len(text).to_bytes(8, "little") + text + payload
