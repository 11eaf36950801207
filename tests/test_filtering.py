import collections
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from delaymix import (
    DelayFreeModel,
    MomentConfig,
    NoiseSpec,
    Trajectory,
    embed_delay,
    filter_window,
    forecast,
    kalman_forward,
    select_regime,
    simulate_delay_free,
    window_error,
)
from delaymix.datagen import random_stable_system
from delaymix.errors import ConditioningError, EmptyDatabaseError, NumericalError
from delaymix.realization import ho_kalman
from oracles import (
    assert_close,
    filter_alone,
    markov_parameters_delayed,
    per_step_checked_forward,
    random_stable_model,
    response_alone,
)


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


def assert_map_matches_reference(filter_map, model, window, noise):
    """The map has the model's shape and reads z causally: the predictions
    of step t nothing past u_{t-1}, and no row u_{T-1}. Applied to the
    window, it matches the per-step reference."""
    (steps, d), dc, n = window.outputs.shape, window.input_dim, model.state_dim
    width = d + dc
    assert filter_map.shape == (steps * d + n, steps * width)
    for t in range(steps):
        assert not filter_map[t * d : (t + 1) * d, t * width :].any()
    assert not filter_map[:, steps * width - dc :].any()
    assert_matches_reference(filter_window(filter_map, window), model, window, noise)


def assert_matches_reference(trace, model, window, noise):
    """The map's predictions and final mean match the per-step reference."""
    filtered, _, _, _, predictions, _ = per_step_checked_forward(model, window, noise)
    assert_close(trace.one_step_predictions, predictions)
    assert_close(trace.final_mean, filtered[-1])


class TestKalmanForward:
    def test_tracks_true_states_with_identity_output(self):
        rng = np.random.default_rng(0)
        a = rng.standard_normal((3, 3))
        a *= 0.7 / np.max(np.abs(np.linalg.eigvals(a)))
        model = DelayFreeModel(a, rng.standard_normal((3, 2)), np.eye(3))
        window, states = self_generated(rng, model, 40)
        noise = NoiseSpec(process_var=1e-8, obs_var=1e-12)
        trace = filter_alone(model, window, noise)
        # with C = I the one-step predictions are the predicted states
        assert np.allclose(trace.one_step_predictions[6:], states[6:], atol=1e-6)
        assert np.allclose(trace.final_mean, states[-1], atol=1e-6)

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
                trace = filter_alone(model, window, noise)
                assert_matches_reference(trace, model, window, noise)
                filtered, filtered_covs, predicted, predicted_covs, _, _ = (
                    per_step_checked_forward(model, window, noise)
                )
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
                    assert np.allclose(predicted[t], mean_pred, atol=1e-12)
                    assert np.allclose(filtered[t], mean, atol=1e-12)
                    assert np.allclose(
                        trace.one_step_predictions[t], c @ mean_pred, atol=1e-12
                    )
                    assert np.allclose(predicted_covs[t], pred, atol=1e-12)
                    assert np.allclose(filtered_covs[t], cov, atol=1e-12)
                assert np.allclose(trace.final_mean, mean, atol=1e-12)

    def test_non_positive_innovation_variance_raises(self):
        # NoiseSpec refuses obs_var <= 0; a duck-typed noise object does not
        class BadNoise:
            process_var = 1e-4
            obs_var = -10.0
            prior_var = 1.0

        # the build reads no window; a failing record names its own step
        model = DelayFreeModel(0.5, 1.0, 1.0)
        with pytest.raises(ConditioningError, match="at step 0"):
            kalman_forward([model], 5, BadNoise())
        two_outputs = DelayFreeModel(np.eye(2), np.ones((2, 1)), [[1.0, 0.0], [0.0, 0.0]])
        with pytest.raises(ConditioningError, match="at step 0"):
            kalman_forward([two_outputs, two_outputs], 5, BadNoise())

    def test_huge_obs_variance_ignores_measurements(self):
        rng = np.random.default_rng(2)
        model = random_stable_model(rng, 2, 1, 1)
        window, _ = self_generated(rng, model, 15)
        noise = NoiseSpec(obs_var=1e12)
        [filter_map] = kalman_forward([model], 15, noise)
        # the columns of the outputs y_t in z = [y_0, u_0, y_1, u_1, ...]
        assert np.abs(filter_map[:, 0::2]).max() < 1e-6
        trace = filter_window(filter_map, window)
        open_loop = simulate_delay_free(model, window.inputs).outputs
        assert np.allclose(trace.one_step_predictions, open_loop, atol=1e-6)

    def test_covariances_stay_psd(self):
        rng = np.random.default_rng(3)
        model = random_stable_model(rng, 3, 2, 2)
        window, _ = self_generated(rng, model, 30)
        # the package keeps no covariance: its results match the reference's,
        # whose covariances must stay PSD
        trace = filter_alone(model, window, NoiseSpec())
        assert_matches_reference(trace, model, window, NoiseSpec())
        _, filtered_covs, _, predicted_covs, _, _ = per_step_checked_forward(
            model, window, NoiseSpec()
        )
        for covs in (filtered_covs, predicted_covs):
            for cov in covs:
                assert np.allclose(cov, cov.T)
                assert np.min(np.linalg.eigvalsh(cov)) >= -1e-9

    def test_non_finite_detected_with_step(self):
        model = DelayFreeModel(1.0, 1.0, 1.0)
        outputs = np.ones((5, 1))
        outputs[3] = np.nan
        window = Trajectory(outputs, np.ones((5, 1)))
        [filter_map] = kalman_forward([model], 5, NoiseSpec())
        with pytest.raises(NumericalError, match="non-finite window value at step 3") as info:
            filter_window(filter_map, window)
        assert info.value.step == 3
        # the map multiplies the last input by zero, and 0 * NaN is NaN
        inputs = np.ones((5, 1))
        inputs[4] = np.nan
        with pytest.raises(NumericalError, match="non-finite window value at step 4"):
            filter_window(filter_map, Trajectory(np.ones((5, 1)), inputs))

    def test_non_finite_covariance_detected_with_step(self):
        # the predicted covariance overflows to inf at step 1
        model = DelayFreeModel(1e200, 1.0, 1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalError, match="non-finite innovation at step 1") as info:
                kalman_forward([DelayFreeModel(0.5, 1.0, 1.0), model], 5, NoiseSpec())
        assert info.value.step == 1

    def test_matches_per_step_checked_loop(self):
        # orders 1..6 padded in one batch, for every output and input count,
        # at window lengths from the shortest the engine runs to 80 steps
        rng = np.random.default_rng(6)
        noise = NoiseSpec(process_var=1e-3, obs_var=1e-2, prior_var=2.0)
        for d in (1, 2, 3):
            for dc in (1, 2):
                for steps in (MomentConfig(d=d, dc=dc, s=1).min_window, 41, 80):
                    orders = rng.permutation(np.arange(1, 7))
                    models = [random_stable_model(rng, int(n), d, dc) for n in orders]
                    maps = kalman_forward(models, steps, noise)
                    data = Trajectory(
                        rng.standard_normal((steps, d)), rng.standard_normal((steps, dc))
                    )
                    zero = Trajectory(np.zeros((steps, d)), np.zeros((steps, dc)))
                    for model, filter_map in zip(models, maps):
                        n = model.state_dim
                        assert filter_map.shape == (steps * d + n, steps * (d + dc))
                        for window in (zero, data):
                            trace = filter_window(filter_map, window)
                            assert_matches_reference(trace, model, window, noise)

    def test_batch_matches_single_builds(self):
        # padding a record to the batch's largest order changes its map only
        # in the summation order; the padded states get exactly zero gains,
        # so their rows of the batch stay zero
        rng = np.random.default_rng(7)
        noise = NoiseSpec()
        steps = 30
        for d, dc in ((1, 1), (2, 2), (3, 1)):
            models = [random_stable_model(rng, n, d, dc) for n in (2, 5, 1, 3)]
            maps = kalman_forward(models, steps, noise)
            batch = maps[0].base
            assert batch.shape == (4, steps * d + 5, steps * (d + dc))
            for r, (model, filter_map) in enumerate(zip(models, maps)):
                assert not batch[r, steps * d + model.state_dim :].any()
                [alone] = kalman_forward([model], steps, noise)
                assert filter_map.shape == alone.shape
                assert_close(filter_map, alone)

    @pytest.mark.parametrize("steps", [1, 2, 3])
    def test_shortest_windows_match_per_step_loop(self, steps):
        # the map loop starts at step 1, and the u-blocks of the stack and
        # of the prediction rows begin there: one to three steps hold every
        # edge of both, on padded batches of unequal orders
        rng = np.random.default_rng(30 + steps)
        noise = NoiseSpec(process_var=1e-3, obs_var=1e-2, prior_var=2.0)
        for d in (1, 2, 3):
            for dc in (1, 2):
                models = [random_stable_model(rng, int(n), d, dc) for n in rng.permutation(5) + 1]
                window = Trajectory(
                    rng.standard_normal((steps, d)), rng.standard_normal((steps, dc))
                )
                for model, filter_map in zip(models, kalman_forward(models, steps, noise)):
                    assert_map_matches_reference(filter_map, model, window, noise)

    @settings(max_examples=40, deadline=None, database=None)
    @given(
        steps=st.integers(1, 12),
        d=st.integers(1, 3),
        dc=st.integers(1, 2),
        orders=st.lists(st.integers(1, 5), min_size=1, max_size=4),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_any_short_batch_matches_per_step_loop(self, steps, d, dc, orders, seed):
        rng = np.random.default_rng(seed)
        noise = NoiseSpec(process_var=1e-3, obs_var=1e-2, prior_var=2.0)
        models = [random_stable_model(rng, n, d, dc) for n in orders]
        window = Trajectory(rng.standard_normal((steps, d)), rng.standard_normal((steps, dc)))
        for model, filter_map in zip(models, kalman_forward(models, steps, noise)):
            assert_map_matches_reference(filter_map, model, window, noise)

    @pytest.mark.parametrize(
        "model, outputs, inputs, noise, error, message, step",
        [
            # NaN output at the last step
            (DelayFreeModel(1.0, 1.0, 1.0), ones_with(6, -1, np.nan), np.ones((6, 1)),
             NoiseSpec(), NumericalError, "non-finite window value at step 5", 5),
            # the covariance overflows into s at step 1; the build reads no
            # data, so the NaN output of step 0 is never reached
            (DelayFreeModel(1e200, 1.0, 1.0), ones_with(6, 0, np.nan), np.ones((6, 1)),
             NoiseSpec(), NumericalError, "non-finite innovation at step 1", 1),
            # the drive of step 2 overflows the prediction of step 3
            (DelayFreeModel(0.5, 1e300, 1.0), np.ones((6, 1)), ones_with(6, 2, 1e300),
             NoiseSpec(), NumericalError, "non-finite prediction at step 3", 3),
            # s <= 0 at step 1 fails the build before the NaN output is read
            (DelayFreeModel(0.5, 1.0, 1.0), ones_with(6, 0, np.nan), np.ones((6, 1)),
             NegativeObsNoise(), ConditioningError, "innovation variance .* <= 0 at step 1", 1),
        ],
        ids=["nan-last-output", "nan-then-overflow", "input-overflow", "nan-then-s-negative"],
    )
    def test_non_finite_state_reports_first_bad_step(
        self, model, outputs, inputs, noise, error, message, step
    ):
        window = Trajectory(outputs, inputs)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(error, match=message) as info:
                [filter_map] = kalman_forward([model], 6, noise)
                filter_window(filter_map, window)
        if error is NumericalError:
            assert info.value.step == step
        # a build error is the reference's on a zero window, where only the
        # covariance recursion can fail; an error of the window's own data
        # is the reference's on the window
        if "innovation" in message:
            window = Trajectory(np.zeros_like(outputs), np.zeros_like(inputs))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            with pytest.raises(error) as reference:
                per_step_checked_forward(model, window, noise)
        if error is NumericalError:
            assert reference.value.step == step

    def test_non_finite_covariance_fails_the_next_innovation(self):
        # the duplicated output's variance cancels to about obs_var, so its
        # gain at step 1 is about 8e239 and the filtered covariance of step 1
        # overflows while every innovation variance up to there stays
        # finite. A 2-step map reads no later innovation; it is refused for
        # its cancellation, which leaves the reference's final mean at about
        # -8e239 from y = 1. Step 2's innovation reads the covariance in a
        # longer map, and the innovation scan reports before cancellation.
        model = DelayFreeModel([[3e75, -2e75], [-2e75, 3e75]], np.ones((2, 1)), [[1.0, 0.0]] * 2)
        noise = NoiseSpec(obs_var=1e-12, prior_var=1e93)
        short = Trajectory(np.ones((2, 2)), np.ones((2, 1)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ConditioningError, match="filter map cancels at step 1"):
                kalman_forward([model], 2, noise)
            filtered, filtered_covs, _, _, _, _ = per_step_checked_forward(model, short, noise)
            assert not np.isfinite(filtered_covs[1]).all()
            assert np.abs(filtered[1]).max() > 1e200
            with pytest.raises(NumericalError, match="non-finite innovation at step 2"):
                kalman_forward([model], 3, noise)

    def test_cancelling_map_refused(self):
        # with obs_var far under the predicted variance s, a correction
        # leaves obs_var/s of the predicted map, the difference of two terms
        # about as large as that map; with a transition of 1e6 the map keeps
        # about 9 digits and is refused, naming the step
        window = Trajectory(np.ones((4, 1)), np.ones((4, 1)))
        noise = NoiseSpec(obs_var=1e-12)
        message = "filter map cancels at step 1: its terms reach 2e\\+06"
        with pytest.raises(ConditioningError, match=message):
            kalman_forward([DelayFreeModel(1e6, 1.0, 1.0)], 4, noise)
        # a stable transition cancels nothing, and the map matches the reference
        model = DelayFreeModel(0.9, 1.0, 1.0)
        assert_matches_reference(filter_alone(model, window, noise), model, window, noise)
        # a refused record refuses its whole batch
        with pytest.raises(ConditioningError, match="at step 1"):
            kalman_forward([model, DelayFreeModel(1e6, 1.0, 1.0)], 4, noise)

    def test_extreme_magnitudes_raise_or_stay_finite(self):
        # every input ends in a filter error, in a map refused for its
        # cancellation, or in all-finite results that match the per-step
        # reference. A build error is the reference's on a zero window,
        # where only the covariance recursion can fail, and an error
        # applying the map is one of the reference's state errors. Refused
        # maps are ones that disagree with the reference: without the
        # refusal, 243 of the 1092 finite results differ from it by more
        # than FILTER_RTOL, and 112 by more than half their size
        rng = np.random.default_rng(23)
        outcomes = collections.Counter()
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
                    [filter_map] = kalman_forward([model], steps, noise)
                except (NumericalError, ConditioningError) as err:
                    if str(err).startswith("filter map cancels"):
                        outcomes["cancels"] += 1
                        continue
                    zero = Trajectory(np.zeros((steps, d)), np.zeros((steps, 1)))
                    with pytest.raises(type(err)) as reference:
                        per_step_checked_forward(model, zero, noise)
                    assert str(reference.value) == str(err), case
                    outcomes[type(err)] += 1
                    continue
                try:
                    trace = filter_window(filter_map, window)
                except NumericalError:
                    with pytest.raises(NumericalError, match="non-finite filter state"):
                        per_step_checked_forward(model, window, noise)
                    outcomes["apply"] += 1
                    continue
            assert np.isfinite(trace.one_step_predictions).all(), case
            assert np.isfinite(trace.final_mean).all(), case
            assert_matches_reference(trace, model, window, noise)
            outcomes[None] += 1
        assert set(outcomes) == {None, NumericalError, ConditioningError, "apply", "cancels"}
        # the refusal stays the exception: 825 maps are compared, 270 refused
        assert outcomes[None] > 3 * outcomes["cancels"]

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
            trace = filter_alone(model, window, noise)
            filt_mse = np.mean((outputs - trace.one_step_predictions) ** 2)
            open_loop = simulate_delay_free(model, inputs).outputs
            open_mse = np.mean((outputs - open_loop) ** 2)
            if filt_mse <= open_mse:
                wins += 1
        assert wins >= 18


class TestFilterWindow:
    def test_matches_reference_filter(self):
        # one map serves every window of its length
        rng = np.random.default_rng(6)
        noise = NoiseSpec(process_var=1e-3, obs_var=1e-2, prior_var=2.0)
        for n in (1, 2, 3, 4):
            for d in (1, 2, 3):
                model = random_stable_model(rng, n, d, 2)
                for steps in (1, 2, 60):
                    [filter_map] = kalman_forward([model], steps, noise)
                    for _ in range(3):
                        window = Trajectory(
                            rng.standard_normal((steps, d)), rng.standard_normal((steps, 2))
                        )
                        trace = filter_window(filter_map, window)
                        assert_matches_reference(trace, model, window, noise)

    @pytest.mark.parametrize(
        "model, outputs, inputs, message, step",
        [
            (DelayFreeModel(1.0, 1.0, 1.0), ones_with(6, -1, np.nan), np.ones((6, 1)),
             "non-finite window value", 5),
            (DelayFreeModel(0.5, 1e300, 1.0), np.ones((6, 1)), ones_with(6, 2, 1e300),
             "non-finite prediction", 3),
            # C B = 1 keeps the prediction of the overflowing drive finite
            (DelayFreeModel(0.5, 1e300, 1e-300), np.ones((6, 1)), ones_with(6, 4, 1e300),
             "non-finite filter state", 5),
        ],
        ids=["nan-last-output", "input-overflow", "final-state-overflow"],
    )
    def test_non_finite_state_reports_first_bad_step(self, model, outputs, inputs, message, step):
        # the map of a model that filters a finite window fails on this one
        [filter_map] = kalman_forward([model], 6, NoiseSpec())
        finite = filter_window(filter_map, Trajectory(np.ones((6, 1)), np.ones((6, 1))))
        assert np.isfinite(finite.final_mean).all()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalError, match=f"^{message} at step {step}$") as info:
                filter_window(filter_map, Trajectory(outputs, inputs))
        assert info.value.step == step

    def test_map_of_another_length_refused(self):
        model = DelayFreeModel(0.5, 1.0, 1.0)
        [filter_map] = kalman_forward([model], 5, NoiseSpec())
        window = Trajectory(np.ones((6, 1)), np.ones((6, 1)))
        with pytest.raises(ValueError, match="filter map has shape"):
            filter_window(filter_map, window)


class TestWindowError:
    def test_self_consistency_after_warmup(self):
        rng = np.random.default_rng(8)
        model = random_stable_model(rng, 2, 2, 2, spectral_radius=0.7)
        window, _ = self_generated(rng, model, 50)
        noise = NoiseSpec(process_var=1e-10, obs_var=1e-10)
        trace = filter_alone(model, window, noise)
        errors = np.linalg.norm(window.outputs - trace.one_step_predictions, axis=1)
        assert errors[5:].mean() < 1e-6

    def test_zero_model_on_unit_norm_outputs(self):
        model = DelayFreeModel(0.0, 0.0, 0.0)
        steps = 30
        outputs = np.ones((steps, 1))
        window = Trajectory(outputs, np.zeros((steps, 1)))
        trace = filter_alone(model, window, NoiseSpec())
        assert window_error(window, trace) == pytest.approx(1.0)

    def test_wrong_regime_scores_worse(self):
        rng = np.random.default_rng(9)
        sys_a = random_stable_system(rng, 2, 1, 1, delay=1)
        sys_b = random_stable_system(rng, 2, 1, 1, delay=3)
        model_a = embed_delay(sys_a)
        model_b = embed_delay(sys_b)
        window, _ = self_generated(rng, model_b, 60)
        noise = NoiseSpec()
        assert window_error(window, filter_alone(model_b, window, noise)) < window_error(
            window, filter_alone(model_a, window, noise)
        )


class TestSelectRegime:
    def test_single_model(self):
        rng = np.random.default_rng(10)
        model = random_stable_model(rng, 2, 1, 1)
        window, _ = self_generated(rng, model, 30)
        index, error, _ = select_regime(kalman_forward([model], 30, NoiseSpec()), window)
        assert index == 0
        assert error >= 0

    def test_two_regimes(self):
        rng = np.random.default_rng(11)
        model_a = random_stable_model(rng, 2, 1, 1)
        model_b = random_stable_model(rng, 2, 1, 1)
        window, _ = self_generated(rng, model_b, 50)
        maps = kalman_forward([model_a, model_b], 50, NoiseSpec())
        index, error, trace = select_regime(maps, window)
        assert index == 1
        # the returned trace is the winner's: its map gives it again
        assert error == window_error(window, trace)
        again = filter_window(maps[1], window)
        assert_close(again.one_step_predictions, trace.one_step_predictions)
        assert_close(again.final_mean, trace.final_mean)
        assert_close(trace.final_mean, filter_alone(model_b, window, NoiseSpec()).final_mean)

    def test_tie_break_lowest_index(self):
        rng = np.random.default_rng(12)
        model = random_stable_model(rng, 2, 1, 1)
        window, _ = self_generated(rng, model, 30)
        index, _, _ = select_regime(kalman_forward([model, model], 30, NoiseSpec()), window)
        assert index == 0

    def test_permutation_consistency(self):
        rng = np.random.default_rng(13)
        models = [random_stable_model(rng, 2, 1, 1) for _ in range(3)]
        window, _ = self_generated(rng, models[2], 50)
        idx, err, _ = select_regime(kalman_forward(models, 50, NoiseSpec()), window)
        perm = [2, 0, 1]
        permuted = [models[i] for i in perm]
        idx2, err2, _ = select_regime(kalman_forward(permuted, 50, NoiseSpec()), window)
        assert permuted[idx2] is models[idx]
        assert err2 == pytest.approx(err)

    def test_empty_database(self):
        window = Trajectory(np.ones((5, 1)), np.ones((5, 1)))
        with pytest.raises(EmptyDatabaseError):
            select_regime([], window)


class TestForecast:
    def test_one_step_matches_truth(self):
        rng = np.random.default_rng(14)
        model = random_stable_model(rng, 2, 2, 2, spectral_radius=0.7)
        inputs = rng.standard_normal((61, 2))
        sim = simulate_delay_free(model, inputs)
        window = Trajectory(sim.outputs[:60], inputs[:60])
        noise = NoiseSpec(process_var=1e-10, obs_var=1e-10)
        trace = filter_alone(model, window, noise)
        predicted = forecast(response_alone(model, 60), window, inputs[60:61], trace)
        assert np.allclose(predicted[0], sim.outputs[60], atol=1e-5)

    def test_zero_everything(self):
        rng = np.random.default_rng(15)
        model = random_stable_model(rng, 2, 1, 1)
        window = Trajectory(np.zeros((20, 1)), np.zeros((20, 1)))
        trace = filter_alone(model, window, NoiseSpec())
        predicted = forecast(response_alone(model, 20), window, np.zeros((5, 1)), trace)
        assert np.allclose(predicted, 0.0)

    def test_split_horizon_is_exact_continuation(self):
        rng = np.random.default_rng(16)
        model = random_stable_model(rng, 3, 2, 2)
        window, _ = self_generated(rng, model, 40)
        future = rng.standard_normal((7, 2))
        trace = filter_alone(model, window, NoiseSpec())
        response = response_alone(model, 40)
        full = forecast(response, window, future, trace)
        head = forecast(response, window, future[:3], trace)
        assert np.allclose(full[:3], head, atol=0)

    def test_horizons_for_metrics(self):
        rng = np.random.default_rng(17)
        model = random_stable_model(rng, 2, 1, 1)
        window, _ = self_generated(rng, model, 30)
        trace = filter_alone(model, window, NoiseSpec())
        for horizon in (1, 10, 30):
            future = rng.standard_normal((horizon, 1))
            predicted = forecast(response_alone(model, 30), window, future, trace)
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
        f1 = forecast(
            response_alone(embedded, 90), window, inputs[90:], filter_alone(embedded, window, noise)
        )
        f2 = forecast(
            response_alone(realized, 90), window, inputs[90:], filter_alone(realized, window, noise)
        )
        assert np.allclose(f1, f2, atol=1e-6)

    def test_anchor_is_the_smoothed_final_state(self):
        # the smoothed mean at the final step is the filtered one, which
        # already conditions on the whole window: the forecast advances the
        # map's final mean, which matches the per-step reference: bitwise
        # its response map applied to [final mean; last window input; the
        # future inputs the rows read; zeros], and to rounding the per-step
        # rollout from the same mean
        rng = np.random.default_rng(19)
        noise = NoiseSpec()
        for n in range(1, 5):
            for d in (1, 2):
                model = random_stable_model(rng, n, d, 2)
                window, _ = self_generated(rng, model, 25)
                future = rng.standard_normal((6, 2))
                trace = filter_alone(model, window, noise)
                anchor = trace.final_mean
                assert_close(anchor, per_step_checked_forward(model, window, noise)[0][-1])
                a, b, c = model.transition, model.input_map, model.output_map
                state = a @ anchor + b @ window.inputs[-1]
                expected = np.empty((6, d))
                for i in range(6):
                    expected[i] = c @ state
                    state = a @ state + b @ future[i]
                response = response_alone(model, 25)
                predicted = forecast(response, window, future, trace)
                padding = np.zeros((25 - 6) * 2)
                run = np.concatenate([anchor, window.inputs[-1], future[:5].ravel(), padding])
                from_map = (response @ run)[: 25 * d].reshape(25, d)
                assert np.array_equal(predicted, from_map[1:7])
                assert_close(predicted, expected)

    def test_block_length_does_not_change_the_forecast(self):
        # chained over blocks of L steps, from one step to past the horizon,
        # the forecast matches the recursion from the same anchor
        rng = np.random.default_rng(22)
        model = random_stable_model(rng, 3, 2, 2, spectral_radius=0.95)
        window, _ = self_generated(rng, model, 30)
        future = rng.standard_normal((17, 2))
        trace = filter_alone(model, window, NoiseSpec())
        anchor = model.transition @ trace.final_mean + model.input_map @ window.inputs[-1]
        want = simulate_delay_free(model, future, x0=anchor).outputs
        for length in (1, 2, 5, 16, 17, 40):
            response = response_alone(model, length)
            assert_close(forecast(response, window, future, trace), want)

    def test_given_trace_skips_the_pass_bitwise(self):
        # forecast always reads a given trace; one from another window is refused
        rng = np.random.default_rng(20)
        model = random_stable_model(rng, 3, 2, 1)
        window, _ = self_generated(rng, model, 30)
        future = rng.standard_normal((4, 1))
        noise = NoiseSpec()
        short = Trajectory(window.outputs[:10], window.inputs[:10])
        short_trace = filter_alone(model, short, noise)
        with pytest.raises(ValueError):
            forecast(response_alone(model, 30), window, future, short_trace)
