import warnings

import numpy as np
import pytest

from delaymix import (
    DelayFreeModel,
    NoiseSpec,
    Trajectory,
    embed_delay,
    forecast,
    kalman_forward,
    kalman_replay,
    markov_parameters_delayed,
    select_regime,
    simulate_delay_free,
    window_error,
)
from delaymix.datagen import random_stable_system
from delaymix.errors import ConditioningError, EmptyDatabaseError, NumericalError
from delaymix.realization import ho_kalman
from oracles import per_step_checked_forward, random_stable_model


def self_generated(rng, model, steps, x0=None):
    """Noise-free data from the model itself, plus the true state sequence."""
    inputs = rng.standard_normal((steps, model.input_dim))
    x = np.zeros(model.state_dim) if x0 is None else x0
    states = np.empty((steps, model.state_dim))
    outputs = np.empty((steps, model.output_dim))
    for t in range(steps):
        states[t] = x
        outputs[t] = model.output_map @ x
        x = model.transition @ x + model.input_map @ inputs[t]
    return Trajectory(outputs, inputs), states


class NegativeObsNoise:
    """Duck-typed noise that NoiseSpec would refuse: with obs_var < 0 the
    innovation variance of a scalar model turns negative at step 1."""

    process_var = 1e-4
    obs_var = -0.5
    prior_var = 1.0


def ones_with(steps, row, value):
    array = np.ones((steps, 1))
    array[row] = value
    return array


class TestKalmanForward:
    def test_tracks_true_states_with_identity_output(self):
        rng = np.random.default_rng(0)
        a = rng.standard_normal((3, 3))
        a *= 0.7 / np.max(np.abs(np.linalg.eigvals(a)))
        model = DelayFreeModel(a, rng.standard_normal((3, 2)), np.eye(3))
        window, states = self_generated(rng, model, 40)
        noise = NoiseSpec(process_var=1e-8, obs_var=1e-12)
        trace = kalman_forward(model, window, noise)
        assert np.allclose(trace.filtered_means[5:], states[5:], atol=1e-6)

    def test_zero_data_riccati_recursion(self):
        # the per-output update against the joint update, written
        # independently with an explicit inverse, on zero and non-zero data
        rng = np.random.default_rng(1)
        steps = 12
        noise = NoiseSpec(process_var=1e-3, obs_var=1e-2, prior_var=2.0)
        gamma = 1e-3 * np.eye(2)
        for d in (2, 3):
            model = random_stable_model(rng, 2, d, 1)
            a, b, c = model.transition, model.input_map, model.output_map
            r_obs = 1e-2 * np.eye(d)
            zero = Trajectory(np.zeros((steps, d)), np.zeros((steps, 1)))
            data = Trajectory(
                rng.standard_normal((steps, d)), rng.standard_normal((steps, 1))
            )
            for window in (zero, data):
                trace = kalman_forward(model, window, noise)
                _, filtered_covs, _, predicted_covs, _, gains = per_step_checked_forward(
                    model, window, noise
                )
                assert np.array_equal(trace.gains, gains)
                mean, cov = np.zeros(2), 2.0 * np.eye(2)
                for t in range(steps):
                    if t == 0:
                        mean_pred, pred = mean, cov
                    else:
                        mean_pred = a @ mean + b @ window.inputs[t - 1]
                        pred = a @ cov @ a.T + gamma
                    pred = 0.5 * (pred + pred.T)
                    gain = pred @ c.T @ np.linalg.inv(c @ pred @ c.T + r_obs)
                    mean = mean_pred + gain @ (window.outputs[t] - c @ mean_pred)
                    cov = (np.eye(2) - gain @ c) @ pred
                    cov = 0.5 * (cov + cov.T)
                    assert np.allclose(trace.predicted_means[t], mean_pred, atol=1e-12)
                    assert np.allclose(trace.filtered_means[t], mean, atol=1e-12)
                    assert np.allclose(
                        trace.one_step_predictions[t], c @ mean_pred, atol=1e-12
                    )
                    assert np.allclose(predicted_covs[t], pred, atol=1e-12)
                    assert np.allclose(filtered_covs[t], cov, atol=1e-12)

    def test_non_positive_innovation_variance_raises(self):
        # NoiseSpec refuses obs_var <= 0; a duck-typed noise object does not
        class BadNoise:
            process_var = 1e-4
            obs_var = -10.0
            prior_var = 1.0

        model = DelayFreeModel(0.5, 1.0, 1.0)
        window = Trajectory(np.ones((5, 1)), np.ones((5, 1)))
        with pytest.raises(ConditioningError, match="at step 0"):
            kalman_forward(model, window, BadNoise())

    def test_huge_obs_variance_ignores_measurements(self):
        rng = np.random.default_rng(2)
        model = random_stable_model(rng, 2, 1, 1)
        window, _ = self_generated(rng, model, 15)
        noise = NoiseSpec(obs_var=1e12)
        trace = kalman_forward(model, window, noise)
        assert np.allclose(trace.filtered_means, trace.predicted_means, atol=1e-6)

    def test_covariances_stay_psd(self):
        rng = np.random.default_rng(3)
        model = random_stable_model(rng, 3, 2, 2)
        window, _ = self_generated(rng, model, 30)
        trace = kalman_forward(model, window, NoiseSpec())
        _, filtered_covs, _, predicted_covs, _, gains = per_step_checked_forward(
            model, window, NoiseSpec()
        )
        assert np.array_equal(trace.gains, gains)
        for covs in (filtered_covs, predicted_covs):
            for cov in covs:
                assert np.allclose(cov, cov.T)
                assert np.min(np.linalg.eigvalsh(cov)) >= -1e-9

    def test_non_finite_detected_with_step(self):
        model = DelayFreeModel(1.0, 1.0, 1.0)
        outputs = np.ones((5, 1))
        outputs[3] = np.nan
        window = Trajectory(outputs, np.ones((5, 1)))
        with pytest.raises(NumericalError) as info:
            kalman_forward(model, window, NoiseSpec())
        assert info.value.step == 3

    def test_non_finite_covariance_detected_with_step(self):
        # the predicted covariance overflows to inf at step 1
        model = DelayFreeModel(1e200, 1.0, 1.0)
        window = Trajectory(np.ones((5, 1)), np.ones((5, 1)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalError) as info:
                kalman_forward(model, window, NoiseSpec())
        assert info.value.step == 1

    def test_matches_per_step_checked_loop_bitwise(self):
        rng = np.random.default_rng(6)
        noise = NoiseSpec(process_var=1e-3, obs_var=1e-2, prior_var=2.0)
        for n in (1, 2, 3, 4):
            for d in (1, 2, 3):
                model = random_stable_model(rng, n, d, 2)
                for steps in (1, 2, 60):
                    data = Trajectory(
                        rng.standard_normal((steps, d)), rng.standard_normal((steps, 2))
                    )
                    zero = Trajectory(np.zeros((steps, d)), np.zeros((steps, 2)))
                    for window in (zero, data):
                        trace = kalman_forward(model, window, noise)
                        filtered, _, predicted, _, predictions, gains = (
                            per_step_checked_forward(model, window, noise)
                        )
                        actual = (
                            trace.filtered_means,
                            trace.predicted_means,
                            trace.one_step_predictions,
                            trace.gains,
                        )
                        expected = (filtered, predicted, predictions, gains)
                        for got, want in zip(actual, expected):
                            assert np.array_equal(got, want), (n, d, steps)

    @pytest.mark.parametrize(
        "model, outputs, inputs, noise, step",
        [
            # NaN output at the last step
            (DelayFreeModel(1.0, 1.0, 1.0), ones_with(6, -1, np.nan), np.ones((6, 1)),
             NoiseSpec(), 5),
            # the NaN mean of step 0 overflows the covariance into s at step 1
            (DelayFreeModel(1e200, 1.0, 1.0), ones_with(6, 0, np.nan), np.ones((6, 1)),
             NoiseSpec(), 0),
            # the drive overflows at step 3; inf - inf in its correction is NaN
            (DelayFreeModel(0.5, 1e300, 1.0), np.ones((6, 1)), ones_with(6, 2, 1e300),
             NoiseSpec(), 3),
            # s <= 0 at step 1 comes after the NaN mean of step 0
            (DelayFreeModel(0.5, 1.0, 1.0), ones_with(6, 0, np.nan), np.ones((6, 1)),
             NegativeObsNoise(), 0),
        ],
        ids=["nan-last-output", "nan-then-overflow", "input-overflow", "nan-then-s-negative"],
    )
    def test_non_finite_state_reports_first_bad_step(self, model, outputs, inputs, noise, step):
        window = Trajectory(outputs, inputs)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalError) as info:
                kalman_forward(model, window, noise)
        assert info.value.step == step
        assert str(info.value) == f"non-finite filter state at step {step}"
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            with pytest.raises(NumericalError) as reference:
                per_step_checked_forward(model, window, noise)
        assert reference.value.step == step

    def test_non_finite_covariance_fails_the_next_innovation(self):
        # the duplicated output's variance cancels to about obs_var, so the
        # filtered covariance of step 1 overflows while every innovation
        # variance up to there stays finite; nothing reads that covariance
        # in a 2-step window, and step 2's innovation reads it in a longer one
        model = DelayFreeModel([[3e75, -2e75], [-2e75, 3e75]], np.ones((2, 1)), [[1.0, 0.0]] * 2)
        noise = NoiseSpec(obs_var=1e-12, prior_var=1e93)
        short = Trajectory(np.ones((2, 2)), np.ones((2, 1)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            trace = kalman_forward(model, short, noise)
            filtered, filtered_covs, _, _, _, gains = per_step_checked_forward(model, short, noise)
            assert not np.isfinite(filtered_covs[1]).all()
            assert np.isfinite(trace.gains).all() and np.isfinite(trace.filtered_means).all()
            assert np.array_equal(trace.gains, gains)
            assert np.array_equal(trace.filtered_means, filtered)
            longer = Trajectory(np.ones((3, 2)), np.ones((3, 1)))
            with pytest.raises(NumericalError, match="non-finite innovation at step 2"):
                kalman_forward(model, longer, noise)

    def test_extreme_magnitudes_raise_or_stay_finite(self):
        # every input ends in a filter error or in all-finite gains and
        # means, and agrees with the per-step reference either way
        rng = np.random.default_rng(23)
        outcomes = set()
        for case in range(2000):
            if case % 2:
                n, d = int(rng.integers(1, 4)), int(rng.integers(1, 4))
                a = rng.standard_normal((n, n)) * 10.0 ** rng.uniform(-2, 160)
                c = rng.standard_normal((d, n))
                obs_var, prior_var = 10.0 ** rng.uniform(-13, 2), 10.0 ** rng.uniform(-2, 300)
            else:
                # small-integer matrices cancel exactly, which leaves some
                # innovation variances at about obs_var
                n, d = int(rng.integers(2, 5)), int(rng.integers(2, 5))
                a = rng.integers(-3, 4, (n, n)) * 10.0 ** rng.integers(0, 161)
                c = rng.integers(-2, 3, (d, n)).astype(float)
                obs_var, prior_var = 10.0 ** rng.uniform(-13, -11), 10.0 ** rng.uniform(51, 178)
            model = DelayFreeModel(a, rng.standard_normal((n, 1)), c)
            noise = NoiseSpec(10.0 ** rng.uniform(-12, 2), obs_var, prior_var)
            steps = int(rng.integers(1, 4))
            window = Trajectory(rng.standard_normal((steps, d)), rng.standard_normal((steps, 1)))
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                try:
                    trace = kalman_forward(model, window, noise)
                except (NumericalError, ConditioningError) as err:
                    with pytest.raises(type(err)) as reference:
                        per_step_checked_forward(model, window, noise)
                    assert str(reference.value) == str(err), case
                    outcomes.add(type(err))
                    continue
            assert np.isfinite(trace.gains).all() and np.isfinite(trace.filtered_means).all()
            filtered, _, predicted, _, predictions, gains = per_step_checked_forward(
                model, window, noise
            )
            actual = (
                trace.filtered_means, trace.predicted_means, trace.one_step_predictions, trace.gains
            )
            for got, want in zip(actual, (filtered, predicted, predictions, gains)):
                assert np.array_equal(got, want), case
            outcomes.add(None)
        assert outcomes == {None, NumericalError, ConditioningError}

    def test_filter_beats_open_loop(self):
        # one-step predictions with feedback beat open-loop simulation
        rng = np.random.default_rng(4)
        wins = 0
        for trial in range(20):
            model = random_stable_model(rng, 2, 2, 1, spectral_radius=0.8)
            steps = 60
            inputs = rng.standard_normal((steps, 1))
            x = rng.standard_normal(2)
            outputs = np.empty((steps, 2))
            for t in range(steps):
                outputs[t] = model.output_map @ x + 0.1 * rng.standard_normal(2)
                x = (
                    model.transition @ x
                    + model.input_map @ inputs[t]
                    + 0.01 * rng.standard_normal(2)
                )
            window = Trajectory(outputs, inputs)
            noise = NoiseSpec(process_var=1e-4, obs_var=1e-2)
            trace = kalman_forward(model, window, noise)
            filt_mse = np.mean((outputs - trace.one_step_predictions) ** 2)
            open_loop = simulate_delay_free(model, inputs).outputs
            open_mse = np.mean((outputs - open_loop) ** 2)
            if filt_mse <= open_mse:
                wins += 1
        assert wins >= 18


class TestKalmanReplay:
    def test_matches_forward_bitwise(self):
        # the grid of test_matches_per_step_checked_loop_bitwise
        rng = np.random.default_rng(6)
        noise = NoiseSpec(process_var=1e-3, obs_var=1e-2, prior_var=2.0)
        for n in (1, 2, 3, 4):
            for d in (1, 2, 3):
                model = random_stable_model(rng, n, d, 2)
                for steps in (1, 2, 60):
                    data = Trajectory(
                        rng.standard_normal((steps, d)), rng.standard_normal((steps, 2))
                    )
                    zero = Trajectory(np.zeros((steps, d)), np.zeros((steps, 2)))
                    zero_gains = kalman_forward(model, zero, noise).gains
                    for window in (zero, data):
                        trace = kalman_forward(model, window, noise)
                        assert trace.gains.shape == (steps, d, n)
                        # the covariance recursion reads no data
                        assert np.array_equal(trace.gains, zero_gains), (n, d, steps)
                        replay = kalman_replay(model, window, trace.gains)
                        for name in (
                            "one_step_predictions", "filtered_means", "predicted_means"
                        ):
                            assert np.array_equal(
                                getattr(replay, name), getattr(trace, name)
                            ), (name, n, d, steps)

    @pytest.mark.parametrize(
        "model, outputs, inputs, step",
        [
            (DelayFreeModel(1.0, 1.0, 1.0), ones_with(6, -1, np.nan), np.ones((6, 1)), 5),
            (DelayFreeModel(0.5, 1e300, 1.0), np.ones((6, 1)), ones_with(6, 2, 1e300), 3),
        ],
        ids=["nan-last-output", "input-overflow"],
    )
    def test_non_finite_state_reports_first_bad_step(self, model, outputs, inputs, step):
        # the cases of TestKalmanForward whose covariance recursion succeeds
        window = Trajectory(outputs, inputs)
        finite = Trajectory(np.ones((6, 1)), np.ones((6, 1)))
        gains = kalman_forward(model, finite, NoiseSpec()).gains
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalError) as full:
                kalman_forward(model, window, NoiseSpec())
            with pytest.raises(NumericalError) as replay:
                kalman_replay(model, window, gains)
        assert replay.value.step == full.value.step == step
        assert str(replay.value) == str(full.value) == f"non-finite filter state at step {step}"

    def test_gains_of_another_length_refused(self):
        model = DelayFreeModel(0.5, 1.0, 1.0)
        short = Trajectory(np.ones((5, 1)), np.ones((5, 1)))
        gains = kalman_forward(model, short, NoiseSpec()).gains
        window = Trajectory(np.ones((6, 1)), np.ones((6, 1)))
        with pytest.raises(ValueError, match="gains have shape"):
            kalman_replay(model, window, gains)


class TestWindowError:
    def test_self_consistency_after_warmup(self):
        rng = np.random.default_rng(8)
        model = random_stable_model(rng, 2, 2, 2, spectral_radius=0.7)
        window, _ = self_generated(rng, model, 50)
        noise = NoiseSpec(process_var=1e-10, obs_var=1e-10)
        trace = kalman_forward(model, window, noise)
        errors = np.linalg.norm(window.outputs - trace.one_step_predictions, axis=1)
        assert errors[5:].mean() < 1e-6

    def test_zero_model_on_unit_norm_outputs(self):
        model = DelayFreeModel(0.0, 0.0, 0.0)
        steps = 30
        outputs = np.ones((steps, 1))
        window = Trajectory(outputs, np.zeros((steps, 1)))
        trace = kalman_forward(model, window, NoiseSpec())
        assert window_error(window, trace) == pytest.approx(1.0)

    def test_wrong_regime_scores_worse(self):
        rng = np.random.default_rng(9)
        sys_a = random_stable_system(rng, 2, 1, 1, delay=1)
        sys_b = random_stable_system(rng, 2, 1, 1, delay=3)
        model_a = embed_delay(sys_a)
        model_b = embed_delay(sys_b)
        window, _ = self_generated(rng, model_b, 60)
        noise = NoiseSpec()
        assert window_error(window, kalman_forward(model_b, window, noise)) < window_error(
            window, kalman_forward(model_a, window, noise)
        )


class TestSelectRegime:
    def test_single_model(self):
        rng = np.random.default_rng(10)
        model = random_stable_model(rng, 2, 1, 1)
        window, _ = self_generated(rng, model, 30)
        index, error, _ = select_regime([model], window, NoiseSpec())
        assert index == 0
        assert error >= 0

    def test_two_regimes(self):
        rng = np.random.default_rng(11)
        model_a = random_stable_model(rng, 2, 1, 1)
        model_b = random_stable_model(rng, 2, 1, 1)
        window, _ = self_generated(rng, model_b, 50)
        index, error, trace = select_regime([model_a, model_b], window, NoiseSpec())
        assert index == 1
        # the returned trace is the winner's own filter pass
        winner = kalman_forward(model_b, window, NoiseSpec())
        assert np.array_equal(trace.filtered_means, winner.filtered_means)
        assert error == window_error(window, winner)

    def test_tie_break_lowest_index(self):
        rng = np.random.default_rng(12)
        model = random_stable_model(rng, 2, 1, 1)
        window, _ = self_generated(rng, model, 30)
        index, _, _ = select_regime([model, model], window, NoiseSpec())
        assert index == 0

    def test_permutation_consistency(self):
        rng = np.random.default_rng(13)
        models = [random_stable_model(rng, 2, 1, 1) for _ in range(3)]
        window, _ = self_generated(rng, models[2], 50)
        idx, err, _ = select_regime(models, window, NoiseSpec())
        perm = [2, 0, 1]
        permuted = [models[i] for i in perm]
        idx2, err2, _ = select_regime(permuted, window, NoiseSpec())
        assert permuted[idx2] is models[idx]
        assert err2 == pytest.approx(err)

    def test_empty_database(self):
        window = Trajectory(np.ones((5, 1)), np.ones((5, 1)))
        with pytest.raises(EmptyDatabaseError):
            select_regime([], window, NoiseSpec())


class TestForecast:
    def test_one_step_matches_truth(self):
        rng = np.random.default_rng(14)
        model = random_stable_model(rng, 2, 2, 2, spectral_radius=0.7)
        inputs = rng.standard_normal((61, 2))
        sim = simulate_delay_free(model, inputs)
        window = Trajectory(sim.outputs[:60], inputs[:60])
        noise = NoiseSpec(process_var=1e-10, obs_var=1e-10)
        trace = kalman_forward(model, window, noise)
        predicted = forecast(model, window, inputs[60:61], trace)
        assert np.allclose(predicted[0], sim.outputs[60], atol=1e-5)

    def test_zero_everything(self):
        rng = np.random.default_rng(15)
        model = random_stable_model(rng, 2, 1, 1)
        window = Trajectory(np.zeros((20, 1)), np.zeros((20, 1)))
        trace = kalman_forward(model, window, NoiseSpec())
        predicted = forecast(model, window, np.zeros((5, 1)), trace)
        assert np.allclose(predicted, 0.0)

    def test_split_horizon_is_exact_continuation(self):
        rng = np.random.default_rng(16)
        model = random_stable_model(rng, 3, 2, 2)
        window, _ = self_generated(rng, model, 40)
        future = rng.standard_normal((7, 2))
        trace = kalman_forward(model, window, NoiseSpec())
        full = forecast(model, window, future, trace)
        head = forecast(model, window, future[:3], trace)
        assert np.allclose(full[:3], head, atol=0)

    def test_horizons_for_metrics(self):
        rng = np.random.default_rng(17)
        model = random_stable_model(rng, 2, 1, 1)
        window, _ = self_generated(rng, model, 30)
        trace = kalman_forward(model, window, NoiseSpec())
        for horizon in (1, 10, 30):
            future = rng.standard_normal((horizon, 1))
            predicted = forecast(model, window, future, trace)
            assert predicted.shape == (horizon, 1)

    def test_equivalent_realizations_forecast_identically(self):
        # embedding vs Hankel realization of the same response, anchored by
        # filtering on the same noise-free window
        rng = np.random.default_rng(18)
        sys = random_stable_system(rng, 1, 1, 1, delay=1)
        embedded = embed_delay(sys)
        realized = ho_kalman(markov_parameters_delayed(sys, 6), 3)
        inputs = rng.standard_normal((100, 1))
        sim = simulate_delay_free(embedded, inputs)
        window = Trajectory(sim.outputs[:90], inputs[:90])
        noise = NoiseSpec(process_var=1e-12, obs_var=1e-10)
        f1 = forecast(embedded, window, inputs[90:], kalman_forward(embedded, window, noise))
        f2 = forecast(realized, window, inputs[90:], kalman_forward(realized, window, noise))
        assert np.allclose(f1, f2, atol=1e-6)

    def test_anchor_is_the_smoothed_final_state(self):
        # the smoothed mean at the final step is the filtered one, which
        # already conditions on the whole window: the forecast advances it
        rng = np.random.default_rng(19)
        noise = NoiseSpec()
        for n in range(1, 5):
            for d in (1, 2):
                model = random_stable_model(rng, n, d, 2)
                window, _ = self_generated(rng, model, 25)
                future = rng.standard_normal((6, 2))
                trace = kalman_forward(model, window, noise)
                anchor = trace.filtered_means[-1]
                a, b, c = model.transition, model.input_map, model.output_map
                state = a @ anchor + b @ window.inputs[-1]
                expected = np.empty((6, d))
                for i in range(6):
                    expected[i] = c @ state
                    state = a @ state + b @ future[i]
                assert np.array_equal(forecast(model, window, future, trace), expected)

    def test_given_trace_skips_the_pass_bitwise(self):
        # forecast always reads a given trace; one from another window is refused
        rng = np.random.default_rng(20)
        model = random_stable_model(rng, 3, 2, 1)
        window, _ = self_generated(rng, model, 30)
        future = rng.standard_normal((4, 1))
        noise = NoiseSpec()
        short = Trajectory(window.outputs[:10], window.inputs[:10])
        short_trace = kalman_forward(model, short, noise)
        with pytest.raises(ValueError):
            forecast(model, window, future, short_trace)
