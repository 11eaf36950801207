import numpy as np
import pytest

from delaymix import MomentConfig, TimeDelaySystem, Trajectory, simulate_delayed
from delaymix.datagen import (
    InputDistribution,
    ScenarioSpec,
    generate,
    oracle_moment_tensor,
    persistence_baseline,
    random_stable_system,
)
from delaymix.errors import ScenarioError


def two_regime_spec(length=400, seed=0, noise=0.0):
    return ScenarioSpec(
        regimes=(
            TimeDelaySystem(0.6, 1.0, 1.0, delay=1),
            TimeDelaySystem(0.5, 1.0, 1.0, delay=3),
        ),
        length=length,
        schedule=((0, 1), (length // 2, 2)),
        seed=seed,
        obs_noise_std=noise,
    )


def stepwise_outputs(spec, inputs):
    """Per-step reference for generate's noise-free outputs and labels.

    change_at keeps the last schedule entry for each time, and an entry
    naming the regime already active neither switches nor resets the state.
    """
    length, dc = inputs.shape
    labels = np.empty(length, dtype=np.int64)
    outputs = np.empty((length, spec.output_dim))
    change_at = {t: r for t, r in spec.schedule}
    active = spec.schedule[0][1]
    sys = spec.regimes[active - 1]
    state = np.zeros(sys.state_dim)
    for t in range(length):
        if t in change_at and change_at[t] != active:
            active = change_at[t]
            sys = spec.regimes[active - 1]
            state = np.zeros(sys.state_dim)
        labels[t] = active
        outputs[t] = sys.output_map @ state
        j = t - sys.delay
        u = inputs[j] if j >= 0 else np.zeros(dc)
        state = sys.transition @ state + sys.input_map @ u
    return outputs, labels


class TestGenerate:
    @pytest.mark.parametrize(
        "schedule",
        [
            # naming the active regime again keeps its state running
            ((0, 1), (100, 1), (200, 2)),
            # of two entries for one time the last wins
            ((0, 2), (0, 1), (120, 3), (120, 2), (250, 3)),
            # a regime of delay 7 starts 3 steps after a switch and reads
            # inputs from before it
            ((0, 3), (3, 1), (90, 3), (93, 2), (96, 3)),
        ],
    )
    def test_segments_match_stepwise_recursion(self, schedule):
        rng = np.random.default_rng(21)
        regimes = tuple(
            random_stable_system(rng, 2, 2, 2, delay=delay) for delay in (0, 2, 7)
        )
        spec = ScenarioSpec(regimes=regimes, length=300, schedule=schedule, seed=5)
        traj = generate(spec)
        outputs, labels = stepwise_outputs(spec, traj.inputs)
        assert np.array_equal(traj.outputs, outputs)
        assert np.array_equal(traj.regime_labels, labels)

    def test_single_regime_matches_direct_simulation(self):
        rng = np.random.default_rng(0)
        sys = random_stable_system(rng, 2, 2, 2, delay=2)
        spec = ScenarioSpec(regimes=(sys,), length=100, seed=3)
        traj = generate(spec)
        direct = simulate_delayed(sys, traj.inputs)
        assert np.array_equal(traj.outputs, direct.outputs)

    def test_deterministic_given_seed(self):
        spec = two_regime_spec(seed=9)
        t1, t2 = generate(spec), generate(spec)
        assert np.array_equal(t1.outputs, t2.outputs)
        assert np.array_equal(t1.inputs, t2.inputs)
        assert np.array_equal(t1.regime_labels, t2.regime_labels)

    def test_labels_follow_schedule(self):
        spec = two_regime_spec(length=200)
        traj = generate(spec)
        assert np.all(traj.regime_labels[:100] == 1)
        assert np.all(traj.regime_labels[100:] == 2)

    def test_state_resets_at_switch(self):
        # with zero noise the output at the switch step is exactly C @ 0,
        # and the tail replays the new regime's recursion from a zero state
        # (delayed inputs still reach back into the pre-switch stream)
        spec = two_regime_spec(length=200)
        traj = generate(spec)
        sys2 = spec.regimes[1]
        assert traj.outputs[100] == pytest.approx(0.0)
        x = np.zeros(sys2.state_dim)
        for t in range(100, 200):
            assert np.allclose(traj.outputs[t], sys2.output_map @ x, atol=1e-12)
            j = t - sys2.delay
            u = traj.inputs[j] if j >= 0 else np.zeros(sys2.input_dim)
            x = sys2.transition @ x + sys2.input_map @ u

    def test_unstable_regime_rejected(self):
        bad = TimeDelaySystem(1.01, 1.0, 1.0)
        spec = ScenarioSpec(regimes=(bad,), length=50)
        with pytest.raises(ScenarioError, match="unstable"):
            generate(spec)

    def test_observation_noise_is_output_only(self):
        spec_clean = two_regime_spec(seed=4, noise=0.0)
        spec_noisy = two_regime_spec(seed=4, noise=0.5)
        clean, noisy = generate(spec_clean), generate(spec_noisy)
        assert np.array_equal(clean.inputs, noisy.inputs)
        assert not np.allclose(clean.outputs, noisy.outputs)

    def test_input_moments(self):
        rng_len = 10**4
        for dist in (
            InputDistribution.rademacher(),
            InputDistribution.gaussian(0.7),
            InputDistribution.uniform(2.0),
        ):
            sys = TimeDelaySystem(0.5, 1.0, 1.0)
            spec = ScenarioSpec(
                regimes=(sys,), length=rng_len, input_dist=dist, seed=13
            )
            traj = generate(spec)
            u = traj.inputs
            assert abs(u.mean()) < 0.05 * max(np.sqrt(dist.variance()), 1.0)
            assert abs(u.var() - dist.variance()) < 0.05 * dist.variance()

    def test_schedule_validation(self):
        sys = TimeDelaySystem(0.5, 1.0, 1.0)
        with pytest.raises(ScenarioError):
            ScenarioSpec(regimes=(sys,), length=10, schedule=((5, 1),))
        with pytest.raises(ScenarioError):
            ScenarioSpec(regimes=(sys,), length=10, schedule=((0, 2),))


class TestOracleMomentTensor:
    def test_hand_computed_minimal_case(self):
        # d = dc = 1, s = 1 (two lags), window length 7; every admissible
        # combination enumerated by hand from the index rules
        config = MomentConfig(d=1, dc=1, s=1)
        rng = np.random.default_rng(5)
        y = rng.standard_normal(7)
        u = rng.standard_normal(7)
        window = Trajectory(y, u)
        tensor = oracle_moment_tensor(window, config)

        def m(t_out, t_in):
            return y[t_out] * u[t_in]

        expected = np.zeros((2, 2, 2))
        # (k1,k2,k3) = (1,1,1): starts 0 and 1
        expected[0, 0, 0] = m(1, 0) * m(3, 2) * m(5, 4) + m(2, 1) * m(4, 3) * m(6, 5)
        # (1,1,2): start 0
        expected[0, 0, 1] = m(1, 0) * m(3, 2) * m(6, 4)
        # (1,2,1): start 0
        expected[0, 1, 0] = m(1, 0) * m(4, 2) * m(6, 5)
        # (2,1,1): start 0
        expected[1, 0, 0] = m(2, 0) * m(4, 3) * m(6, 5)
        assert np.allclose(tensor, expected, atol=1e-12)

    def test_zero_outputs(self):
        config = MomentConfig(d=1, dc=1, s=1)
        window = Trajectory(np.zeros((9, 1)), np.ones((9, 1)))
        assert np.allclose(oracle_moment_tensor(window, config), 0.0)

    def test_minimal_window_single_contribution(self):
        # only (k_max, k_max, k_max) at start 0 fits a window of 3k+3 steps
        config = MomentConfig(d=1, dc=1, s=1)
        length = 9
        rng = np.random.default_rng(6)
        y = rng.standard_normal(length)
        u = rng.standard_normal(length)
        tensor = oracle_moment_tensor(Trajectory(y[:9], u[:9]), config)
        # assert the top-lag block has exactly the one expected contribution
        value = (y[2] * u[0]) * (y[5] * u[3]) * (y[8] * u[6])
        assert tensor[1, 1, 1] == pytest.approx(value)


class TestPersistenceBaseline:
    def test_repeats_last_output(self):
        window = Trajectory(np.array([[1.0, 2.0], [3.0, 4.0]]), np.zeros((2, 1)))
        pred = persistence_baseline(window, 3)
        assert np.array_equal(pred, np.array([[3.0, 4.0]] * 3))

    def test_exact_on_constant_stream(self):
        window = Trajectory(np.full((10, 1), 5.0), np.zeros((10, 1)))
        pred = persistence_baseline(window, 1)
        assert pred[0, 0] == 5.0

    def test_hand_computed_mse_on_decaying_impulse(self):
        # stream 1, 1/2, 1/4, 1/8, 1/16: forecasting 3 steps from the first
        # two samples repeats 1/2; true futures are 1/4, 1/8, 1/16
        outputs = np.array([1.0, 0.5, 0.25, 0.125, 0.0625]).reshape(-1, 1)
        window = Trajectory(outputs[:2], np.zeros((2, 1)))
        pred = persistence_baseline(window, 3)
        errors = pred.ravel() - outputs[2:].ravel()
        mse = float(np.mean(errors**2))
        expected = ((0.5 - 0.25) ** 2 + (0.5 - 0.125) ** 2 + (0.5 - 0.0625) ** 2) / 3
        assert mse == pytest.approx(expected)
