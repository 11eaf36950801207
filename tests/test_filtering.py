import warnings

import numpy as np
import pytest
from scipy.linalg import cho_factor, cho_solve

from delaymix import (
    DelayFreeModel,
    NoiseSpec,
    Trajectory,
    embed_delay,
    forecast,
    kalman_forward,
    markov_parameters_delayed,
    rts_smoother,
    select_regime,
    simulate_delay_free,
    window_error,
)
from delaymix.datagen import random_stable_model, random_stable_system
from delaymix.errors import ConditioningError, EmptyDatabaseError, NumericalError
from delaymix.filtering import JITTER, _spd_solve
from delaymix.realization import RealizationOptions, ho_kalman


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
        rng = np.random.default_rng(1)
        model = random_stable_model(rng, 2, 2, 1)
        steps = 12
        window = Trajectory(np.zeros((steps, 2)), np.zeros((steps, 1)))
        noise = NoiseSpec(process_var=1e-3, obs_var=1e-2, prior_var=2.0)
        trace = kalman_forward(model, window, noise)
        assert np.allclose(trace.filtered_means, 0.0)
        # standalone covariance recursion, written independently
        a, c = model.transition, model.output_map
        gamma = 1e-3 * np.eye(2)
        r_obs = 1e-2 * np.eye(2)
        cov = 2.0 * np.eye(2)
        for t in range(steps):
            pred = cov if t == 0 else a @ cov @ a.T + gamma
            pred = 0.5 * (pred + pred.T)
            gain = pred @ c.T @ np.linalg.inv(c @ pred @ c.T + r_obs)
            cov = (np.eye(2) - gain @ c) @ pred
            cov = 0.5 * (cov + cov.T)
            assert np.allclose(trace.predicted_covs[t], pred, atol=1e-12)
            assert np.allclose(trace.filtered_covs[t], cov, atol=1e-12)

    def test_huge_obs_variance_ignores_measurements(self):
        rng = np.random.default_rng(2)
        model = random_stable_model(rng, 2, 1, 1)
        window, _ = self_generated(rng, model, 15)
        noise = NoiseSpec(obs_var=1e12)
        trace = kalman_forward(model, window, noise)
        assert np.allclose(trace.filtered_means, trace.predicted_means, atol=1e-6)
        assert np.max(np.abs(trace.gains)) < 1e-6

    def test_covariances_stay_psd(self):
        rng = np.random.default_rng(3)
        model = random_stable_model(rng, 3, 2, 2)
        window, _ = self_generated(rng, model, 30)
        trace = kalman_forward(model, window, NoiseSpec())
        for covs in (trace.filtered_covs, trace.predicted_covs):
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


class TestSpdSolve:
    def test_matches_scipy_cholesky_bitwise(self):
        rng = np.random.default_rng(21)
        for n in (1, 2, 4):
            root = rng.standard_normal((n, n))
            matrix = root @ root.T + 0.1 * np.eye(n)
            rhs = rng.standard_normal((n, 3))
            sym = 0.5 * (matrix + matrix.T)
            expected = cho_solve(cho_factor(sym, lower=True), rhs)
            assert np.array_equal(_spd_solve(matrix, rhs, "m", 0), expected)

    def test_singular_matrix_is_solved_with_jitter(self):
        matrix = np.ones((2, 2))
        rhs = np.array([[1.0], [2.0]])
        jittered = matrix + JITTER * np.eye(2)
        expected = cho_solve(cho_factor(jittered, lower=True), rhs)
        assert np.array_equal(_spd_solve(matrix, rhs, "m", 0), expected)

    def test_indefinite_matrix_raises_conditioning_error(self):
        with pytest.raises(ConditioningError, match="at step 4"):
            _spd_solve(-np.eye(2), np.ones((2, 1)), "m", 4)

    def test_non_finite_input_raises_numerical_error(self):
        for matrix, rhs in (
            (np.array([[np.nan]]), np.ones((1, 1))),
            (np.ones((1, 1)), np.array([[np.inf]])),
        ):
            with pytest.raises(NumericalError) as info:
                _spd_solve(matrix, rhs, "m", 2)
            assert info.value.step == 2


class TestRtsSmoother:
    def test_single_step_window(self):
        rng = np.random.default_rng(5)
        model = random_stable_model(rng, 2, 1, 1)
        window = Trajectory(np.ones((1, 1)), np.ones((1, 1)))
        trace = kalman_forward(model, window, NoiseSpec())
        smooth = rts_smoother(model, trace)
        assert np.allclose(smooth.smoothed_means[0], trace.filtered_means[0])

    def test_final_step_equals_filtered(self):
        rng = np.random.default_rng(6)
        model = random_stable_model(rng, 2, 2, 2)
        window, _ = self_generated(rng, model, 20)
        trace = kalman_forward(model, window, NoiseSpec())
        smooth = rts_smoother(model, trace)
        assert np.array_equal(smooth.smoothed_means[-1], trace.filtered_means[-1])

    def test_recovers_true_states_including_early_steps(self):
        rng = np.random.default_rng(7)
        a = rng.standard_normal((2, 2))
        a *= 0.6 / np.max(np.abs(np.linalg.eigvals(a)))
        model = DelayFreeModel(a, rng.standard_normal((2, 1)), np.eye(2))
        window, states = self_generated(rng, model, 40)
        noise = NoiseSpec(process_var=1e-10, obs_var=1e-12)
        trace = kalman_forward(model, window, noise)
        smooth = rts_smoother(model, trace)
        assert np.allclose(smooth.smoothed_means, states, atol=1e-6)


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
        realized = ho_kalman(
            markov_parameters_delayed(sys, 6), RealizationOptions(s=3)
        )
        inputs = rng.standard_normal((100, 1))
        sim = simulate_delay_free(embedded, inputs)
        window = Trajectory(sim.outputs[:90], inputs[:90])
        noise = NoiseSpec(process_var=1e-12, obs_var=1e-10)
        f1 = forecast(embedded, window, inputs[90:], kalman_forward(embedded, window, noise))
        f2 = forecast(realized, window, inputs[90:], kalman_forward(realized, window, noise))
        assert np.allclose(f1, f2, atol=1e-6)

    def test_anchor_is_the_smoothed_final_state(self):
        # the forecast runs no RTS pass; anchoring on the smoothed final
        # mean instead gives bitwise the same outputs
        rng = np.random.default_rng(19)
        noise = NoiseSpec()
        for n in range(1, 5):
            for d in (1, 2):
                model = random_stable_model(rng, n, d, 2)
                window, _ = self_generated(rng, model, 25)
                future = rng.standard_normal((6, 2))
                trace = kalman_forward(model, window, noise)
                anchor = rts_smoother(model, trace).smoothed_means[-1]
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
