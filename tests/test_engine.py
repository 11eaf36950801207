import copy
import functools
import json
import sys
import tempfile
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
    forecast,
    generate,
    kalman_forward,
    run_stream,
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
        ):
            with pytest.raises(error, match="non-finite|channels"):
                feed(poisoned, 5, outputs, inputs)
        assert poisoned.updates == before.updates == 5
        assert np.array_equal(poisoned.tensor.data, before.tensor.data)
        assert poisoned.tensor.sample_count == before.tensor.sample_count
        assert poisoned.tensor.weight == before.tensor.weight
        for name in ("out_mean", "out_std", "in_mean", "in_std"):
            assert np.array_equal(getattr(poisoned.scaler, name), getattr(before.scaler, name))
        assert poisoned.scaler.samples_seen == before.scaler.samples_seen
        # window 5 never happened: later forecasts match a run that skipped it
        for w in range(6, 15):
            assert np.array_equal(feed(poisoned, w).forecast, feed(clean, w).forecast)

    def test_forecast_pass_through(self):
        traj = single_regime_traj(length=1000, seed=7)
        config = default_config(d=1, dc=1, s=3, rank=1, rho=0.5, l_c=100, l_s=4)
        state = engine_init(config)
        report = engine_update(state, traj.outputs[:100], traj.inputs[:104])
        scaler = state.scaler
        window = Trajectory(
            scaler.outputs(traj.outputs[:100]), scaler.inputs(traj.inputs[:100])
        )
        model = state.database.active().model
        expected = forecast(
            model,
            window,
            scaler.inputs(traj.inputs[100:104]),
            kalman_forward(model, window, NoiseSpec()),
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
        assert np.array_equal(restored.tensor.data, state.tensor.data)
        assert restored.tensor.sample_count == state.tensor.sample_count
        assert restored.updates == state.updates
        assert restored.database.active_index == state.database.active_index
        assert len(restored.database.records) == len(state.database.records)
        assert restored.tensor.weight == state.tensor.weight
        for got, want in zip(restored.database.records, state.database.records):
            assert np.array_equal(got.model.transition, want.model.transition)
            assert np.array_equal(got.model.input_map, want.model.input_map)
            assert np.array_equal(got.model.output_map, want.model.output_map)
            assert np.array_equal(got.markov.blocks, want.markov.blocks)
            assert got.component_index == want.component_index
            assert got.b_scale == want.b_scale
        for name in ("mode1", "mode2", "mode3"):
            assert np.array_equal(
                getattr(restored.database.last_factors, name),
                getattr(state.database.last_factors, name),
            )
        for name in ("out_mean", "out_std", "in_mean", "in_std"):
            assert np.array_equal(getattr(restored.scaler, name), getattr(state.scaler, name))
        assert restored.scaler.samples_seen == state.scaler.samples_seen
        # the restored engine keeps producing forecasts
        o = 800
        r1 = engine_update(state, traj.outputs[o : o + 100], traj.inputs[o : o + 102])
        r2 = engine_update(
            restored, traj.outputs[o : o + 100], traj.inputs[o : o + 102]
        )
        assert r1.forecast.shape == r2.forecast.shape

    def test_config_round_trip(self, tmp_path):
        config = default_config(
            d=1, dc=1, s=3, l_c=100, l_s=1, seed=5, warm_start=False, forgetting=0.9
        )
        path = tmp_path / "c.bin"
        save_checkpoint(engine_init(config), path)
        header, _ = _split_checkpoint(path.read_bytes())
        assert set(header["config"]) == {
            "moment", "rank", "rho", "l_c", "l_s", "seed", "warm_start"
        }
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

        assert header["arrays"][0] == ["tensor", [6, 6, 6]]
        # cuts inside the version byte, the length prefix, the header and the
        # array payload, then version-2 and version-3 files and one trailing byte
        cuts = [0, 1, 5, start - 10, start, start + 4, len(raw) - 8]
        variants = [raw[:cut] for cut in cuts]
        variants += [bytes([2]) + raw[1:], bytes([3]) + raw[1:], raw + b"\x00"]
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
            with_header(sample_count=1.0),
            with_header(samples_seen=-100),
            with_header(samples_seen=True),
            with_header(weight=float("nan")),
            with_header(weight=-1.0),
            with_header(weight="1"),
        ]
        damaged = tmp_path / "damaged.bin"
        for blob in variants:
            damaged.write_bytes(blob)
            with pytest.raises(ParseError, match="damaged checkpoint"):
                load_checkpoint(damaged)
        # the intact file still loads
        assert load_checkpoint(path).updates == 1

    def test_array_shapes_checked_against_config(self, tmp_path):
        path = tmp_path / "checkpoint.bin"
        save_checkpoint(_adapted_state(rank=1), path)
        header, payload = _split_checkpoint(path.read_bytes())
        assert dict(header["arrays"])["out_mean"] == [1]
        # each edit keeps the byte count, so only the shape check can refuse it
        for changes in (
            {"out_mean": [2], "out_std": [0]},
            {"in_mean": [0], "in_std": [2]},
            {"record0.markov": [3, 2, 1]},
        ):
            arrays = [[name, changes.get(name, shape)] for name, shape in header["arrays"]]
            path.write_bytes(_join_checkpoint({**header, "arrays": arrays}, payload))
            with pytest.raises(ParseError, match="damaged checkpoint .*the config implies"):
                load_checkpoint(path)

    def test_rank_checked_against_config(self, tmp_path):
        path = tmp_path / "checkpoint.bin"
        for saved_rank, claimed_rank, message in ((1, 2, "mode1"), (2, 1, "exceed rank")):
            state = _adapted_state(rank=saved_rank)
            assert len(state.database.records) == saved_rank
            save_checkpoint(state, path)
            header, payload = _split_checkpoint(path.read_bytes())
            config = {**header["config"], "rank": claimed_rank}
            path.write_bytes(_join_checkpoint({**header, "config": config}, payload))
            with pytest.raises(ParseError, match=f"damaged checkpoint .*{message}"):
                load_checkpoint(path)


def _adapted_state(rank):
    traj = two_regime_traj(length=300, seed=14)
    config = default_config(d=1, dc=1, s=3, rank=rank, rho=0.5, l_c=100, l_s=1)
    state = engine_init(config)
    engine_update(state, traj.outputs[:100], traj.inputs[:101])
    return state


def _split_checkpoint(raw):
    """A checkpoint's decoded header and the array bytes after it."""
    start = 9 + int.from_bytes(raw[1:9], "little")
    return json.loads(raw[9:start]), raw[start:]


def _join_checkpoint(header, payload):
    text = json.dumps(header, sort_keys=True).encode("utf-8")
    return bytes([engine.CHECKPOINT_VERSION]) + len(text).to_bytes(8, "little") + text + payload
