import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from delaymix import (
    DelayFreeModel,
    MarkovSequence,
    TimeDelaySystem,
    detect_delay,
    embed_delay,
    response_maps,
    simulate_delay_free,
    simulate_delayed,
    spectral_norm_profile,
)
from delaymix.datagen import random_stable_system
from delaymix.errors import ConfigError, NumericalError, ShapeError
from delaymix.syslin import DELAY_THRESHOLD
from oracles import (
    assert_close,
    embedded_state,
    markov_parameters_delayed,
    markov_parameters_free,
    random_stable_model,
)


def scalar_sys(a=0.5, b=1.0, c=1.0, delay=0):
    return TimeDelaySystem(a, b, c, delay=delay)


class TestTypes:
    def test_dimension_validation(self):
        with pytest.raises(ShapeError, match="transition"):
            TimeDelaySystem(np.ones((2, 3)), np.ones((2, 1)), np.ones((1, 2)))
        with pytest.raises(ShapeError, match="input_map"):
            TimeDelaySystem(np.eye(2), np.ones((3, 1)), np.ones((1, 2)))
        with pytest.raises(ShapeError, match="output_map"):
            TimeDelaySystem(np.eye(2), np.ones((2, 1)), np.ones((1, 3)))

    def test_negative_delay_rejected(self):
        with pytest.raises(ValueError, match="delay"):
            TimeDelaySystem(0.5, 1.0, 1.0, delay=-1)

    def test_dims(self):
        sys = TimeDelaySystem(np.eye(3) * 0.5, np.ones((3, 2)), np.ones((4, 3)), delay=2)
        assert (sys.state_dim, sys.input_dim, sys.output_dim) == (3, 2, 4)
        assert sys.is_stable()

    def test_model_state_dim_positive(self):
        with pytest.raises(ShapeError):
            DelayFreeModel(np.zeros((0, 0)), np.zeros((0, 1)), np.zeros((1, 0)))

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("name", ["transition", "input_map", "output_map"])
    def test_model_refuses_non_finite_matrix(self, name, value):
        matrices = {"transition": np.eye(2) * 0.5, "input_map": np.ones((2, 1)),
                    "output_map": np.ones((1, 2))}
        matrices[name][-1, -1] = value
        with pytest.raises(ConfigError, match=f"{name} holds non-finite values"):
            DelayFreeModel(**matrices)

    def test_markov_sequence_refuses_non_finite_block(self):
        blocks = np.zeros((6, 2, 1))
        blocks[3, 1, 0] = np.nan
        with pytest.raises(NumericalError, match="the 6 Markov blocks hold non-finite values"):
            MarkovSequence(blocks)


class TestSimulateDelayed:
    def test_passthrough_one_step(self):
        # A=0, B=C=1, no delay: y(t+1) = u(t)
        traj = simulate_delayed(scalar_sys(a=0.0), [1.0, 0.0, 0.0], x0=0.0)
        assert np.allclose(traj.outputs.ravel(), [0.0, 1.0, 0.0])

    def test_delayed_impulse_hand_recursion(self):
        # x(t+1) = 0.5 x(t) + u(t-2): the impulse surfaces at t=3 and decays
        sys = scalar_sys(delay=2)
        inputs = np.zeros(7)
        inputs[0] = 1.0
        traj = simulate_delayed(sys, inputs, x0=0.0, prehistory=[0.0, 0.0])
        assert np.allclose(
            traj.outputs.ravel(), [0.0, 0.0, 0.0, 1.0, 0.5, 0.25, 0.125]
        )

    def test_zero_in_zero_out(self):
        rng = np.random.default_rng(0)
        sys = random_stable_system(rng, 3, 2, 2, delay=2)
        traj = simulate_delayed(sys, np.zeros((10, 2)))
        assert np.allclose(traj.outputs, 0.0)

    def test_prehistory_feeds_early_steps(self):
        sys = scalar_sys(a=0.0, delay=1)
        traj = simulate_delayed(sys, [0.0, 0.0], x0=0.0, prehistory=[3.0])
        # x(1) = u(-1) = 3
        assert np.allclose(traj.outputs.ravel(), [0.0, 3.0])

    def test_shape_errors_name_operand(self):
        sys = scalar_sys(delay=1)
        with pytest.raises(ShapeError, match="x0"):
            simulate_delayed(sys, [1.0], x0=[1.0, 2.0])
        with pytest.raises(ShapeError, match="prehistory"):
            simulate_delayed(sys, [1.0], prehistory=[1.0, 2.0])
        with pytest.raises(ShapeError, match="inputs"):
            simulate_delayed(scalar_sys(), np.ones((4, 3)))

    def test_linearity(self):
        rng = np.random.default_rng(7)
        sys = random_stable_system(rng, 2, 2, 2, delay=1)
        u1 = rng.standard_normal((20, 2))
        u2 = rng.standard_normal((20, 2))
        a, b = 1.7, -0.4
        left = simulate_delayed(sys, a * u1 + b * u2).outputs
        right = (
            a * simulate_delayed(sys, u1).outputs
            + b * simulate_delayed(sys, u2).outputs
        )
        assert np.allclose(left, right, atol=1e-12)


class TestSimulateDelayFree:
    def test_impulse(self):
        model = DelayFreeModel(0.0, 1.0, 1.0)
        traj = simulate_delay_free(model, [1.0, 0.0, 0.0, 0.0])
        assert np.allclose(traj.outputs.ravel(), [0.0, 1.0, 0.0, 0.0])

    def test_matches_embedded_delayed(self):
        sys = scalar_sys(delay=2)
        inputs = np.zeros(7)
        inputs[0] = 1.0
        embedded = embed_delay(sys)
        free = simulate_delay_free(embedded, inputs)
        delayed = simulate_delayed(sys, inputs)
        assert np.allclose(free.outputs, delayed.outputs)

    def test_zero(self):
        model = DelayFreeModel(np.eye(2) * 0.3, np.ones((2, 1)), np.ones((1, 2)))
        traj = simulate_delay_free(model, np.zeros((5, 1)))
        assert np.allclose(traj.outputs, 0.0)


class TestMarkovParameters:
    def test_delayed_hand_values(self):
        seq = markov_parameters_delayed(scalar_sys(delay=2), 6)
        assert np.allclose(seq.blocks.ravel(), [0, 0, 1, 0.5, 0.25, 0.125])

    def test_zero_delay_matches_powers(self):
        rng = np.random.default_rng(1)
        sys = random_stable_system(rng, 3, 2, 2, delay=0)
        seq = markov_parameters_delayed(sys, 5)
        for j in range(1, 6):
            expected = sys.output_map @ np.linalg.matrix_power(
                sys.transition, j - 1
            ) @ sys.input_map
            assert np.allclose(seq.blocks[j - 1], expected)

    def test_horizon_equals_delay_gives_zeros(self):
        seq = markov_parameters_delayed(scalar_sys(delay=4), 4)
        assert np.allclose(seq.blocks, 0.0)

    def test_free_identity(self):
        model = DelayFreeModel(np.eye(2), np.eye(2), np.eye(2))
        seq = markov_parameters_free(model, 4)
        for block in seq.blocks:
            assert np.allclose(block, np.eye(2))

    def test_free_nilpotent(self):
        a = np.zeros((3, 3))
        a[0, 1] = a[1, 2] = 1.0
        model = DelayFreeModel(a, np.eye(3), np.eye(3))
        seq = markov_parameters_free(model, 6)
        assert np.any(seq.blocks[2] != 0)
        assert np.allclose(seq.blocks[3:], 0.0)

    def test_free_matches_impulse_simulation(self):
        rng = np.random.default_rng(2)
        model = DelayFreeModel(
            rng.standard_normal((2, 2)) * 0.4,
            rng.standard_normal((2, 2)),
            rng.standard_normal((2, 2)),
        )
        seq = markov_parameters_free(model, 6)
        for channel in range(2):
            inputs = np.zeros((7, 2))
            inputs[0, channel] = 1.0
            outs = simulate_delay_free(model, inputs).outputs
            for j in range(1, 7):
                assert np.allclose(seq.blocks[j - 1][:, channel], outs[j], atol=1e-12)


class TestEmbedDelay:
    def test_zero_delay_unchanged(self):
        rng = np.random.default_rng(3)
        sys = random_stable_system(rng, 3, 2, 2, delay=0)
        model = embed_delay(sys)
        assert model.state_dim == 3
        assert np.array_equal(model.transition, sys.transition)
        assert np.array_equal(model.input_map, sys.input_map)
        assert np.array_equal(model.output_map, sys.output_map)

    def test_markov_match_scalar(self):
        model = embed_delay(scalar_sys(delay=2))
        seq = markov_parameters_free(model, 6)
        assert np.allclose(seq.blocks.ravel(), [0, 0, 1, 0.5, 0.25, 0.125])
        assert model.state_dim == 3

    def test_trajectory_equivalence_random(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            k = rng.integers(1, 5)
            d = rng.integers(1, 4)
            dc = rng.integers(1, 4)
            tau = rng.integers(0, 6)
            sys = random_stable_system(rng, k, d, dc, delay=tau)
            inputs = rng.standard_normal((50, dc))
            delayed = simulate_delayed(sys, inputs)
            free = simulate_delay_free(embed_delay(sys), inputs)
            assert np.allclose(delayed.outputs, free.outputs, atol=1e-10)

    def test_nonzero_initial_conditions(self):
        rng = np.random.default_rng(5)
        sys = random_stable_system(rng, 2, 1, 2, delay=3)
        x0 = rng.standard_normal(2)
        pre = rng.standard_normal((3, 2))
        inputs = rng.standard_normal((30, 2))
        delayed = simulate_delayed(sys, inputs, x0=x0, prehistory=pre)
        z0 = embedded_state(sys, x0, pre)
        free = simulate_delay_free(embed_delay(sys), inputs, x0=z0)
        assert np.allclose(delayed.outputs, free.outputs, atol=1e-10)

    def test_markov_consistency_property(self):
        rng = np.random.default_rng(6)
        for _ in range(8):
            k = rng.integers(1, 4)
            dc = rng.integers(1, 3)
            tau = rng.integers(0, 5)
            sys = random_stable_system(rng, k, 2, dc, delay=tau)
            horizon = 2 * (k + tau * dc)
            a = markov_parameters_delayed(sys, horizon)
            b = markov_parameters_free(embed_delay(sys), horizon)
            assert np.allclose(a.blocks, b.blocks, atol=1e-12)

    def test_leading_zero_law(self):
        rng = np.random.default_rng(8)
        for tau in (0, 1, 3, 5):
            sys = random_stable_system(rng, 2, 2, 2, delay=tau)
            seq = markov_parameters_delayed(sys, tau + 4)
            assert np.array_equal(seq.blocks[:tau], np.zeros((tau, 2, 2)))


class TestDelayReadout:
    def test_profile_all_zero(self):
        seq = markov_parameters_delayed(scalar_sys(delay=4), 4)
        assert np.allclose(spectral_norm_profile(seq), 0.0)

    def test_profile_scalar_delay_one(self):
        seq = markov_parameters_delayed(scalar_sys(delay=1), 4)
        assert np.allclose(spectral_norm_profile(seq), [0, 1, 0.5, 0.25])

    def test_profile_scale_invariant(self):
        rng = np.random.default_rng(9)
        sys = random_stable_system(rng, 2, 2, 3, delay=2)
        seq = markov_parameters_delayed(sys, 8)
        prof = spectral_norm_profile(seq)
        scaled = type(seq)(seq.blocks * 37.5)
        assert np.allclose(spectral_norm_profile(scaled), prof, atol=1e-12)

    def test_profile_reveals_delay(self):
        rng = np.random.default_rng(10)
        for tau in (1, 3):
            sys = random_stable_system(rng, 1, 1, 1, delay=tau)
            prof = spectral_norm_profile(markov_parameters_delayed(sys, 6))
            assert detect_delay(prof) == tau

    def test_detect_delay_examples(self):
        assert detect_delay([0, 0, 1, 0.5]) == 2
        assert detect_delay([1, 0.5, 0.25]) == 0
        # an entry at DELAY_THRESHOLD ends the delay
        assert detect_delay([0.05, DELAY_THRESHOLD, 1.0]) == 1


def _unpadded(batch_map, model, steps):
    """Model r's map from its padded slice of a batch: without the padded
    state's rows and columns."""
    k, n = model.state_dim, batch_map.shape[0] - steps * model.output_dim
    rows = steps * model.output_dim + k
    return np.concatenate([batch_map[:rows, :k], batch_map[:rows, n:]], axis=1)


class TestResponseMaps:
    @settings(max_examples=60, deadline=None, database=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        orders=st.lists(st.integers(1, 4), min_size=1, max_size=3),
        d=st.integers(1, 3),
        dc=st.integers(1, 3),
        radius=st.floats(0.05, 0.999),
        steps=st.integers(1, 70),
    )
    def test_map_matches_the_recursion(self, seed, orders, d, dc, radius, steps):
        # a batch of unequal orders: each model's map times [x0; u] gives the
        # recursion's outputs and its state after the last step
        rng = np.random.default_rng(seed)
        models = [random_stable_model(rng, k, d, dc, spectral_radius=radius) for k in orders]
        batch = response_maps(models, steps)
        n = max(orders)
        assert batch.shape == (len(models), steps * d + n, n + steps * dc)
        for model, batch_map in zip(models, batch):
            k = model.state_dim
            # the padded state's rows and columns are exactly zero
            assert not batch_map[steps * d + k :].any()
            assert not batch_map[:, k:n].any()
            x0, inputs = rng.standard_normal(k), rng.standard_normal((steps, dc))
            got = _unpadded(batch_map, model, steps) @ np.concatenate([x0, inputs.ravel()])
            want = simulate_delay_free(model, inputs, x0=x0).outputs
            assert_close(got[: steps * d].reshape(steps, d), want)
            state = x0
            for u in inputs:
                state = model.transition @ state + model.input_map @ u
            assert_close(got[steps * d :], state)

    def test_markov_blocks_match_the_oracle(self):
        # output t reads u_i through C A^(t-1-i) B for i < t and through
        # exact zeros for i >= t
        rng = np.random.default_rng(21)
        for steps in (1, 2, 5, 33):
            models = [random_stable_model(rng, k, 2, 3, spectral_radius=0.95) for k in (3, 1)]
            for model, batch_map in zip(models, response_maps(models, steps)):
                toeplitz = _unpadded(batch_map, model, steps)[: steps * 2, model.state_dim :]
                blocks = toeplitz.reshape(steps, 2, steps, 3).transpose(0, 2, 1, 3)
                truth = markov_parameters_free(model, steps).blocks
                for t in range(steps):
                    assert not blocks[t, t:].any()
                    for i in range(t):
                        assert_close(blocks[t, i], truth[t - 1 - i])

    def test_delayed_system_shows_its_delay(self):
        # the embedded model of a delay-3 system answers an impulse three
        # steps later than the delay-free part does
        sys = TimeDelaySystem(0.6, 1.0, 1.0, delay=3)
        [batch_map] = response_maps([embed_delay(sys)], 8)
        impulse = np.zeros(embed_delay(sys).state_dim + 8)
        impulse[embed_delay(sys).state_dim] = 1.0
        want = markov_parameters_delayed(sys, 7).blocks.ravel()
        assert_close((batch_map @ impulse)[1:8], want)
