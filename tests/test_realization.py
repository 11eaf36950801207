import numpy as np
import pytest

from delaymix import (
    MomentConfig,
    TimeDelaySystem,
    detect_delay,
    embed_delay,
    markov_parameters_delayed,
    markov_parameters_free,
    simulate_delay_free,
    spectral_norm_profile,
)
from delaymix.cpd import CPFactors
from delaymix.datagen import random_stable_system
from delaymix.errors import (
    DegenerateSequenceError,
    EmptyDatabaseError,
    HorizonError,
    NumericalError,
    RankError,
    ShapeError,
)
from delaymix.realization import (
    ModelRecord,
    factor_to_markov,
    ho_kalman,
    realize_components,
)
from delaymix.syslin import MarkovSequence
from oracles import factors_from_components, random_stable_model


def stacked_component(seq, config, rng=None):
    """Build a CP component whose mode-1 vector stacks the given blocks."""
    q1 = seq.blocks.reshape(config.mode_dim)
    if rng is None:
        q2 = np.zeros(config.mode_dim)
        q2[0] = 1.0
        q3 = q2.copy()
    else:
        q2 = rng.standard_normal(config.mode_dim)
        q2 /= np.linalg.norm(q2)
        q3 = rng.standard_normal(config.mode_dim)
        q3 /= np.linalg.norm(q3)
    return q1, q2, q3


class TestFactorToMarkov:
    def test_single_block_support(self):
        config = MomentConfig(d=1, dc=1, s=3)
        q1 = np.zeros(6)
        q1[2] = 4.0  # block 3 for p = 1
        q2 = np.full(6, 1 / np.sqrt(6))
        q3 = q2.copy()
        seq = factor_to_markov((q1, q2, q3), config)
        assert seq.blocks[2] != 0
        mask = np.ones(6, dtype=bool)
        mask[2] = False
        assert np.allclose(seq.blocks.reshape(6)[mask], 0.0)

    def test_known_scalar_markov_recovered_up_to_scale(self):
        sys = TimeDelaySystem(0.5, 1.0, 1.0, delay=2)
        config = MomentConfig(d=1, dc=1, s=3)
        truth = markov_parameters_delayed(sys, 6)
        component = stacked_component(truth, config)
        seq = factor_to_markov(component, config)
        got = seq.blocks.ravel()
        want = truth.blocks.ravel()
        scale = got[2] / want[2]
        assert scale > 0
        assert np.allclose(got, scale * want, atol=1e-12)

    def test_zero_component(self):
        config = MomentConfig(d=2, dc=1, s=2)
        zeros = np.zeros(config.mode_dim)
        seq = factor_to_markov((zeros, zeros, zeros), config)
        assert np.allclose(seq.blocks, 0.0)

    def test_signs_restored_from_mode_one(self):
        config = MomentConfig(d=1, dc=1, s=1)
        q1 = np.array([1.0, -2.0])
        q2 = np.array([0.6, 0.8])
        q3 = np.array([1.0, 0.0])
        seq = factor_to_markov((q1, q2, q3), config)
        assert seq.blocks[0] > 0
        assert seq.blocks[1] < 0

    def test_scale_covariance_and_delay_invariance(self):
        rng = np.random.default_rng(0)
        config = MomentConfig(d=1, dc=2, s=2)
        sys = random_stable_system(rng, 1, 1, 2, delay=1)
        truth = markov_parameters_delayed(sys, config.k_max)
        q1, q2, q3 = stacked_component(truth, config, rng)
        base = factor_to_markov((q1, q2, q3), config)
        scaled = factor_to_markov((3.0 * q1, q2, q3), config)
        ratio = np.abs(scaled.blocks[1]) / np.abs(base.blocks[1])
        factor = ratio[np.isfinite(ratio) & (ratio > 0)].mean()
        assert factor > 0
        assert np.allclose(np.abs(scaled.blocks), factor * np.abs(base.blocks), atol=1e-10)
        assert detect_delay(spectral_norm_profile(scaled)) == detect_delay(
            spectral_norm_profile(base)
        )

    def test_length_mismatch(self):
        config = MomentConfig(d=1, dc=1, s=2)
        with pytest.raises(ShapeError, match="q1"):
            factor_to_markov((np.zeros(3), np.zeros(4), np.zeros(4)), config)


class TestHoKalman:
    def test_round_trip_fixed_order(self):
        rng = np.random.default_rng(1)
        model = random_stable_model(rng, 2, 2, 2)
        seq = markov_parameters_free(model, 6)
        realized = ho_kalman(seq, 3, order=2)
        regen = markov_parameters_free(realized, 6)
        assert np.allclose(regen.blocks, seq.blocks, atol=1e-8)

    def test_scalar_delayed_auto_order(self):
        sys = TimeDelaySystem(0.5, 1.0, 1.0, delay=2)
        seq = markov_parameters_delayed(sys, 6)
        realized = ho_kalman(seq, 3)
        assert realized.state_dim == 3  # k + tau * dc
        regen = markov_parameters_free(realized, 6)
        assert np.allclose(regen.blocks.ravel(), [0, 0, 1, 0.5, 0.25, 0.125], atol=1e-8)

    def test_memoryless_identity(self):
        blocks = np.zeros((4, 2, 2))
        blocks[0] = np.eye(2)
        realized = ho_kalman(MarkovSequence(blocks), 2)
        cb = realized.output_map @ realized.input_map
        assert np.allclose(cb, np.eye(2), atol=1e-8)
        assert np.allclose(realized.transition, 0.0, atol=1e-8)

    def test_round_trip_property(self):
        # with the true order supplied, the first 2s blocks reproduce exactly
        rng = np.random.default_rng(2)
        for _ in range(10):
            n = int(rng.integers(1, 4))
            d = int(rng.integers(1, 3))
            dc = int(rng.integers(1, 3))
            model = random_stable_model(rng, n, d, dc)
            seq = markov_parameters_free(model, 6)
            order = min(n, 3 * min(d, dc))
            realized = ho_kalman(seq, 3, order=order)
            regen = markov_parameters_free(realized, 6)
            assert np.allclose(regen.blocks, seq.blocks, atol=1e-8)

    def test_similarity_invariance(self):
        # a delayed system's embedding and its Hankel realization share the
        # same input-output map from zero initial state
        rng = np.random.default_rng(3)
        sys = random_stable_system(rng, 1, 1, 1, delay=1)
        seq = markov_parameters_delayed(sys, 6)
        realized = ho_kalman(seq, 3)
        embedded = embed_delay(sys)
        inputs = rng.standard_normal((40, 1))
        y1 = simulate_delay_free(realized, inputs).outputs
        y2 = simulate_delay_free(embedded, inputs).outputs
        assert np.allclose(y1, y2, atol=1e-8)

    def test_delay_preservation(self):
        rng = np.random.default_rng(4)
        # tau < 2s - 1 and k + tau * dc <= s * min(d, dc)
        for tau in (1, 2):
            sys = random_stable_system(rng, 1, 2, 2, delay=tau)
            seq = markov_parameters_delayed(sys, 6)
            realized = ho_kalman(seq, 3)
            profile = spectral_norm_profile(markov_parameters_free(realized, 6))
            assert np.all(profile[:tau] < 1e-6)
            assert profile[tau] > 1e-6

    def test_horizon_error(self):
        seq = markov_parameters_free(
            random_stable_model(np.random.default_rng(5), 2, 1, 1), 4
        )
        with pytest.raises(HorizonError):
            ho_kalman(seq, 3)

    def test_degenerate_error(self):
        seq = MarkovSequence(np.zeros((6, 1, 1)))
        with pytest.raises(DegenerateSequenceError):
            ho_kalman(seq, 3)

    @pytest.mark.parametrize("index, value", [(0, np.nan), (5, np.inf)])
    def test_non_finite_block_raises_numerical_error(self, index, value):
        # NaN fails the degeneracy test's comparison, so a NaN block among
        # zeros would otherwise pass for an all-zero sequence
        dynamic = markov_parameters_free(
            random_stable_model(np.random.default_rng(7), 2, 1, 1), 6
        ).blocks.copy()
        for blocks in (dynamic, np.zeros((6, 1, 1))):
            blocks[index] = value
            with pytest.raises(NumericalError, match="6 Markov blocks hold non-finite"):
                ho_kalman(MarkovSequence(blocks), 3)

    def test_fixed_order_beyond_rank_bound(self):
        seq = markov_parameters_free(
            random_stable_model(np.random.default_rng(6), 2, 1, 1), 6
        )
        with pytest.raises(RankError):
            ho_kalman(seq, 3, order=4)

    def test_sizing_validation(self):
        seq = markov_parameters_free(
            random_stable_model(np.random.default_rng(6), 2, 1, 1), 6
        )
        with pytest.raises(ValueError, match="s must be >= 1"):
            ho_kalman(seq, 0)
        with pytest.raises(ValueError, match="order must be positive"):
            ho_kalman(seq, 3, order=0)


class TestRealizeAll:
    def test_single_known_component(self):
        rng = np.random.default_rng(7)
        config = MomentConfig(d=1, dc=1, s=3)
        sys = TimeDelaySystem(0.5, 1.0, 1.0, delay=1)
        truth = markov_parameters_delayed(sys, 6)
        q1, q2, q3 = stacked_component(truth, config, rng)
        factors = CPFactors(q1[:, None], q2[:, None], q3[:, None])
        realized = realize_components(factors, config)
        assert len(realized) == 1
        assert isinstance(realized[0], ModelRecord)
        assert realized[0].b_scale == 1.0
        regen = markov_parameters_free(realized[0].model, 6)
        scale = regen.blocks[1, 0, 0] / truth.blocks[1, 0, 0]
        assert np.allclose(regen.blocks, scale * truth.blocks, atol=1e-8)

    def test_two_regimes_reveal_delays(self):
        rng = np.random.default_rng(8)
        config = MomentConfig(d=1, dc=1, s=3)
        seq1 = markov_parameters_delayed(
            TimeDelaySystem(0.6, 1.0, 1.0, delay=1), 6
        )
        seq3 = markov_parameters_delayed(
            TimeDelaySystem(0.5, 1.0, 1.0, delay=3), 6
        )
        c1 = stacked_component(seq1, config, rng)
        c3 = stacked_component(seq3, config, rng)
        factors = factors_from_components([c1, c3])
        realized = realize_components(factors, config)
        delays = sorted(
            detect_delay(spectral_norm_profile(item.markov)) for item in realized
        )
        assert delays == [1, 3]

    def test_zero_factors_empty_database(self):
        config = MomentConfig(d=1, dc=1, s=2)
        dim = config.mode_dim
        zeros = CPFactors(np.zeros((dim, 2)), np.zeros((dim, 2)), np.zeros((dim, 2)))
        with pytest.raises(EmptyDatabaseError):
            realize_components(zeros, config)

    def test_degenerate_component_skipped(self, caplog):
        rng = np.random.default_rng(9)
        config = MomentConfig(d=1, dc=1, s=3)
        seq = markov_parameters_delayed(TimeDelaySystem(0.5, 1.0, 1.0, delay=1), 6)
        good = stacked_component(seq, config, rng)
        dim = config.mode_dim
        bad = (np.zeros(dim), np.zeros(dim), np.zeros(dim))
        factors = factors_from_components([bad, good])
        with caplog.at_level("WARNING"):
            realized = realize_components(factors, config)
        assert len(realized) == 1
        assert realized[0].component_index == 1
        assert any("skipping component 0" in r.message for r in caplog.records)
