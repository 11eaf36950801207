import numpy as np
import pytest

from delaymix import MomentConfig, Trajectory
from delaymix.datagen import oracle_moment_tensor
from delaymix.errors import (
    CapacityError,
    EmptyTensorError,
    ShapeError,
    WindowLengthError,
)
from delaymix.moments import accumulate_window, new_tensor, normalized_view


def random_window(rng, config, extra=0):
    length = config.min_window + extra
    return Trajectory(
        rng.standard_normal((length, config.d)),
        rng.standard_normal((length, config.dc)),
    )


class TestConfigAndAllocation:
    def test_mode_sizes(self):
        assert MomentConfig(d=1, dc=1, s=3).mode_dim == 6
        assert MomentConfig(d=2, dc=2, s=3).mode_dim == 24
        assert MomentConfig(d=4, dc=4, s=3).mode_dim == 96

    def test_shapes(self):
        tensor = new_tensor(MomentConfig(d=1, dc=1, s=3))
        assert tensor.data.shape == (6, 6, 6)
        assert tensor.sample_count == 0
        assert np.allclose(tensor.data, 0.0)

    def test_capacity_cap(self):
        with pytest.raises(CapacityError):
            new_tensor(MomentConfig(d=8, dc=8, s=3))
        # explicit cap override allows it
        tensor = new_tensor(MomentConfig(d=8, dc=8, s=3), mode_cap=400)
        assert tensor.data.shape == (384, 384, 384)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            MomentConfig(d=0, dc=1, s=1)
        with pytest.raises(ValueError):
            MomentConfig(d=1, dc=1, s=1, forgetting=0.0)
        with pytest.raises(ValueError):
            MomentConfig(d=1, dc=1, s=1, forgetting=1.2)


class TestAccumulate:
    def test_window_too_short(self):
        config = MomentConfig(d=1, dc=1, s=3)
        tensor = new_tensor(config)
        window = Trajectory(np.ones((10, 1)), np.ones((10, 1)))
        with pytest.raises(WindowLengthError, match=str(config.min_window)):
            accumulate_window(tensor, window)

    def test_zero_outputs_only_bump_count(self):
        config = MomentConfig(d=1, dc=1, s=1)
        tensor = new_tensor(config)
        window = Trajectory(np.zeros((9, 1)), np.ones((9, 1)))
        accumulate_window(tensor, window)
        assert tensor.sample_count > 0
        assert np.allclose(tensor.data, 0.0)

    @pytest.mark.parametrize(
        "d,dc,s", [(1, 1, 1), (1, 1, 2), (2, 1, 2), (1, 2, 2), (2, 2, 3)]
    )
    def test_oracle_equivalence(self, d, dc, s):
        rng = np.random.default_rng(42 + d * 10 + dc * 100 + s)
        config = MomentConfig(d=d, dc=dc, s=s)
        window = random_window(rng, config, extra=3)
        tensor = accumulate_window(new_tensor(config), window)
        oracle = oracle_moment_tensor(window, config)
        assert np.allclose(tensor.data, oracle, atol=1e-10)

    def test_two_calls_additive(self):
        rng = np.random.default_rng(0)
        config = MomentConfig(d=1, dc=1, s=1)
        w1 = random_window(rng, config)
        w2 = random_window(rng, config)
        both = new_tensor(config)
        accumulate_window(both, w1)
        accumulate_window(both, w2)
        t1 = accumulate_window(new_tensor(config), w1)
        t2 = accumulate_window(new_tensor(config), w2)
        assert np.allclose(both.data, t1.data + t2.data, atol=1e-12)
        assert both.sample_count == t1.sample_count + t2.sample_count

    def test_order_invariance_with_unit_forgetting(self):
        rng = np.random.default_rng(1)
        config = MomentConfig(d=1, dc=2, s=1)
        windows = [random_window(rng, config) for _ in range(4)]
        forward = new_tensor(config)
        for w in windows:
            accumulate_window(forward, w)
        backward = new_tensor(config)
        for w in reversed(windows):
            accumulate_window(backward, w)
        assert np.allclose(forward.data, backward.data, atol=1e-9)

    def test_forgetting_decays_existing_mass(self):
        rng = np.random.default_rng(2)
        config = MomentConfig(d=1, dc=1, s=1, forgetting=0.5)
        w1 = random_window(rng, config)
        w2 = random_window(rng, config)
        t1 = accumulate_window(new_tensor(config), w1)
        snapshot = t1.data.copy()
        accumulate_window(t1, w2)
        raw2 = accumulate_window(
            new_tensor(MomentConfig(d=1, dc=1, s=1)), w2
        )
        assert np.allclose(t1.data, 0.5 * snapshot + raw2.data, atol=1e-12)

    def test_single_contribution_lands_in_its_block(self):
        # d = dc = 1, s = 1: outputs vanish except at t in {1, 4, 6}, so the
        # only admissible combination with a nonzero product is
        # (k1, k2, k3) = (1, 2, 1) at start 0, landing in block [0, 1, 0].
        config = MomentConfig(d=1, dc=1, s=1)
        y = np.zeros((9, 1))
        y[[1, 4, 6]] = 1.0
        window = Trajectory(y, np.ones((9, 1)))
        tensor = accumulate_window(new_tensor(config), window)
        expected = np.zeros((2, 2, 2))
        expected[0, 1, 0] = 1.0
        assert np.array_equal(tensor.data, expected)

    def test_channel_mismatch(self):
        config = MomentConfig(d=2, dc=1, s=1)
        tensor = new_tensor(config)
        window = Trajectory(np.ones((9, 1)), np.ones((9, 1)))
        with pytest.raises(ShapeError):
            accumulate_window(tensor, window)

    def test_memory_footprint_constant(self):
        rng = np.random.default_rng(3)
        config = MomentConfig(d=1, dc=1, s=1)
        tensor = new_tensor(config)
        sizes = set()
        for _ in range(100):
            accumulate_window(tensor, random_window(rng, config))
            sizes.add(tensor.data.nbytes)
        assert sizes == {tensor.config.mode_dim**3 * 8}


class TestNormalizedView:
    def test_single_call_mean(self):
        rng = np.random.default_rng(4)
        config = MomentConfig(d=1, dc=1, s=1)
        window = random_window(rng, config)
        tensor = accumulate_window(new_tensor(config), window)
        assert np.allclose(normalized_view(tensor), tensor.data / tensor.sample_count)

    def test_repeated_window_mean_unchanged(self):
        rng = np.random.default_rng(5)
        config = MomentConfig(d=1, dc=1, s=1)
        window = random_window(rng, config)
        once = accumulate_window(new_tensor(config), window)
        view_once = normalized_view(once).copy()
        for _ in range(4):
            accumulate_window(once, window)
        assert np.allclose(normalized_view(once), view_once, atol=1e-12)

    def test_discounted_mean_matches_direct_computation(self):
        rng = np.random.default_rng(6)
        lam = 0.5
        config = MomentConfig(d=1, dc=1, s=1, forgetting=lam)
        plain = MomentConfig(d=1, dc=1, s=1)
        w1, w2 = random_window(rng, config), random_window(rng, config)
        t1 = accumulate_window(new_tensor(plain), w1)
        t2 = accumulate_window(new_tensor(plain), w2)
        mixed = new_tensor(config)
        accumulate_window(mixed, w1)
        accumulate_window(mixed, w2)
        expected = (lam * t1.data + t2.data) / (
            lam * t1.sample_count + t2.sample_count
        )
        assert np.allclose(normalized_view(mixed), expected, atol=1e-12)

    def test_view_does_not_mutate(self):
        rng = np.random.default_rng(7)
        config = MomentConfig(d=1, dc=1, s=1)
        tensor = accumulate_window(new_tensor(config), random_window(rng, config))
        before = tensor.data.copy()
        normalized_view(tensor)
        assert np.array_equal(tensor.data, before)

    def test_empty_tensor_error(self):
        with pytest.raises(EmptyTensorError):
            normalized_view(new_tensor(MomentConfig(d=1, dc=1, s=1)))

