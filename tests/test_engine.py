import copy
import sys

import numpy as np
import pytest

from delaymix import (
    MomentConfig,
    TimeDelaySystem,
    default_config,
    engine_init,
    engine_update,
    forecast,
    generate,
    run_stream,
)
from delaymix import filtering
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
    ParseError,
)
from delaymix.filtering import NoiseSpec
from delaymix.syslin import Trajectory


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
        )
        with pytest.raises(ConfigError) as info:
            engine_init(config)
        assert len(info.value.violations) >= 4


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

    def test_window_length_validation(self):
        traj = single_regime_traj(length=300, seed=5)
        config = default_config(d=1, dc=1, s=3, l_c=100, l_s=2)
        state = engine_init(config)
        with pytest.raises(ValueError, match="l_c"):
            engine_update(state, traj.outputs[:90], traj.inputs[:102])
        with pytest.raises(ValueError, match="l_s"):
            engine_update(state, traj.outputs[:100], traj.inputs[:101])

    def test_numerical_errors_carry_stage_name(self):
        traj = single_regime_traj(length=300, seed=6)
        outputs = traj.outputs[:100].copy()
        outputs[50] = np.nan
        config = default_config(d=1, dc=1, s=3, l_c=100, l_s=1)
        state = engine_init(config)
        with pytest.raises(EngineStageError, match="model_adaptation"):
            engine_update(state, outputs, traj.inputs[:101])

    def test_forecast_pass_through(self):
        traj = single_regime_traj(length=1000, seed=7)
        config = default_config(d=1, dc=1, s=3, rank=1, rho=0.5, l_c=100, l_s=4)
        state = engine_init(config)
        report = engine_update(state, traj.outputs[:100], traj.inputs[:104])
        scaler = state.scaler
        window = Trajectory(
            scaler.outputs(traj.outputs[:100]), scaler.inputs(traj.inputs[:100])
        )
        expected = forecast(
            state.database.active().model,
            window,
            scaler.inputs(traj.inputs[100:104]),
            config.noise,
        )
        assert np.array_equal(report.forecast, scaler.restore_outputs(expected))

    def test_bounded_memory(self):
        traj = single_regime_traj(length=11000, seed=8)
        config = default_config(d=1, dc=1, s=3, rank=2, rho=0.2, l_c=100, l_s=1)
        state = engine_init(config)
        sizes = set()
        for w in range(100):
            o = w * 100
            engine_update(state, traj.outputs[o : o + 100], traj.inputs[o : o + 101])
            sizes.add(state_footprint_bytes(state))
        # once the database exists the footprint never grows
        assert len(sizes) <= 2
        assert len(state.database.records) <= config.rank


class TestFilterPasses:
    def test_one_filter_pass_per_scored_model(self, monkeypatch):
        # every delaymix global bound to a filtering function counts its calls
        calls = {"kalman_forward": 0, "rts_smoother": 0}

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
            before = calls["kalman_forward"]
            report = engine_update(
                state, traj.outputs[o : o + 100], traj.inputs[o : o + 101]
            )
            passes = calls["kalman_forward"] - before
            if report.adapted:
                # the gate on the old active model, then one per new model
                expected = len(state.database.records) + int(had_models)
            else:
                expected = 1
            assert passes == expected, (w, report.adapted)
            kinds.add((report.adapted, had_models))
        assert calls["rts_smoother"] == 0
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


class TestRunStream:
    def test_too_short(self):
        traj = single_regime_traj(length=50, seed=11)
        config = default_config(d=1, dc=1, s=3, l_c=100, l_s=1)
        with pytest.raises(DataError):
            run_stream(config, traj)

    def test_single_regime_accuracy(self):
        # noise-free stationary stream with a low gate: forecasts sharpen as
        # moments accumulate, reaching the target accuracy on the late part
        traj = single_regime_traj(length=100000, seed=0)
        config = default_config(
            d=1, dc=1, s=3, rank=1, rho=1e-3, l_c=500, l_s=1, seed=0
        )
        reports, metrics = run_stream(config, traj)
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
        config = default_config(d=1, dc=1, s=3, rank=2, rho=0.5, l_c=100, l_s=1)
        reports, metrics = run_stream(config, traj)
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
        config = default_config(d=1, dc=1, s=3, rank=1, rho=0.5, l_c=100, l_s=5)
        reports, metrics = run_stream(config, traj)
        assert metrics.horizon == 5
        assert metrics.n_points == len(reports) * 5
        assert len(metrics.cumulative_se) == len(reports)
        assert metrics.cumulative_se == sorted(metrics.cumulative_se)
        assert metrics.total_se == pytest.approx(metrics.cumulative_se[-1])


class TestWarmStart:
    def test_warm_start_reduces_iterations(self):
        def run(warm):
            rng = np.random.default_rng(200)
            from delaymix.datagen import random_stable_system

            sys = random_stable_system(rng, 2, 2, 2, delay=1, spectral_radius=0.7)
            traj = generate(ScenarioSpec(regimes=(sys,), length=1300, seed=5))
            config = default_config(
                d=2, dc=2, s=3, rank=2, rho=1e-15, l_c=42, l_s=1, warm_start=warm
            )
            reports, _ = run_stream(config, traj)
            return [r.als_iters for r in reports if r.adapted][1:]

        warm_iters = run(True)
        cold_iters = run(False)
        assert np.median(warm_iters) <= 0.5 * np.median(cold_iters)


class TestCheckpoint:
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
        assert np.array_equal(restored.tensor.data, state.tensor.data)
        assert restored.tensor.sample_count == state.tensor.sample_count
        assert restored.updates == state.updates
        assert restored.database.active_index == state.database.active_index
        assert len(restored.database.records) == len(state.database.records)
        for got, want in zip(restored.database.records, state.database.records):
            assert np.allclose(got.model.transition, want.model.transition)
            assert np.allclose(got.model.input_map, want.model.input_map)
            assert np.allclose(got.model.output_map, want.model.output_map)
        assert np.allclose(restored.scaler.out_mean, state.scaler.out_mean)
        assert restored.scaler.samples_seen == state.scaler.samples_seen
        # the restored engine keeps producing forecasts
        o = 800
        r1 = engine_update(state, traj.outputs[o : o + 100], traj.inputs[o : o + 102])
        r2 = engine_update(
            restored, traj.outputs[o : o + 100], traj.inputs[o : o + 102]
        )
        assert r1.forecast.shape == r2.forecast.shape

    def test_noise_spec_round_trip(self, tmp_path):
        config = default_config(d=1, dc=1, s=3, l_c=100, l_s=1)
        config = EngineConfig(
            moment=config.moment,
            rank=config.rank,
            rho=config.rho,
            l_c=config.l_c,
            l_s=config.l_s,
            noise=NoiseSpec(process_var=3e-4, obs_var=2e-2, prior_var=0.5),
        )
        state = engine_init(config)
        path = tmp_path / "c.bin"
        save_checkpoint(state, path)
        restored = load_checkpoint(path)
        assert restored.config.noise.process_var == pytest.approx(3e-4)
        assert restored.config.noise.obs_var == pytest.approx(2e-2)

    def test_damaged_file_raises_parse_error(self, tmp_path):
        traj = single_regime_traj(length=300, seed=14)
        config = default_config(d=1, dc=1, s=3, rank=1, rho=0.5, l_c=100, l_s=2)
        state = engine_init(config)
        engine_update(state, traj.outputs[:100], traj.inputs[:102])
        path = tmp_path / "checkpoint.bin"
        save_checkpoint(state, path)
        raw = path.read_bytes()
        damaged = tmp_path / "damaged.bin"
        # cuts inside the version byte, a length prefix, the tensor, the
        # model section and the JSON echo, then a bad version and padding
        models_start = 1 + 8 + int.from_bytes(raw[1:9], "little") + 8
        cuts = [0, 1, 5, 9, 100, models_start - 4, models_start + 20, len(raw) - 10]
        variants = [raw[:cut] for cut in cuts]
        variants += [bytes([raw[0] + 1]) + raw[1:], raw + b"\x00"]
        # a model count of 0 leaves the stored model unread
        count_at = models_start + 8
        variants.append(raw[:count_at] + bytes(4) + raw[count_at + 4 :])
        for blob in variants:
            damaged.write_bytes(blob)
            with pytest.raises(ParseError, match="damaged checkpoint"):
                load_checkpoint(damaged)
        # the intact file still loads
        assert load_checkpoint(path).updates == 1
