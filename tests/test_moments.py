import numpy as np
import pytest

from delaymix import MomentConfig, Trajectory
from delaymix.errors import (
    ConfigError,
    EmptyTensorError,
    NumericalError,
    ShapeError,
    WindowLengthError,
)
from delaymix.moments import SystemTensor, accumulate_window, new_tensor, normalized_view
from oracles import assert_close, oracle_moment_tensor


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
        assert tensor.weight == 0.0
        assert np.allclose(tensor.data, 0.0)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            MomentConfig(d=0, dc=1, s=1)
        with pytest.raises(ValueError):
            MomentConfig(d=1, dc=1, s=1, forgetting=0.0)
        with pytest.raises(ValueError):
            MomentConfig(d=1, dc=1, s=1, forgetting=1.2)
        for sizes in (dict(d=1.0, dc=1, s=3), dict(d=1, dc=1, s=3.0), dict(d=1, dc=True, s=3)):
            with pytest.raises(ConfigError, match="d, dc and s must be ints"):
                MomentConfig(**sizes)
        with pytest.raises(ConfigError, match="forgetting must be a number"):
            MomentConfig(d=1, dc=1, s=3, forgetting=True)


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
        tensor = accumulate_window(tensor, window)
        assert tensor.weight > 0
        assert np.allclose(tensor.data, 0.0)

    @pytest.mark.parametrize(
        "d,dc,s", [(1, 1, 1), (1, 1, 2), (2, 1, 2), (1, 2, 2), (2, 2, 3), (2, 2, 4)]
    )
    def test_oracle_equivalence(self, d, dc, s):
        rng = np.random.default_rng(42 + d * 10 + dc * 100 + s)
        config = MomentConfig(d=d, dc=dc, s=s)
        window = random_window(rng, config, extra=3)
        tensor = accumulate_window(new_tensor(config), window)
        oracle = oracle_moment_tensor(window, config)
        assert np.allclose(tensor.data, oracle, atol=1e-10)

    @pytest.mark.parametrize("length", [27, 78])
    def test_oracle_equivalence_window_lengths(self, length):
        # d = dc = 2, s = 4 (D = 32) is the cli_multi_horizon sizing: 27 is
        # its min_window and 78 its l_c
        rng = np.random.default_rng(length)
        config = MomentConfig(d=2, dc=2, s=4)
        window = random_window(rng, config, extra=length - config.min_window)
        tensor = accumulate_window(new_tensor(config), window)
        assert np.allclose(tensor.data, oracle_moment_tensor(window, config), atol=1e-10)

    def test_oracle_equivalence_with_forgetting(self):
        rng = np.random.default_rng(9)
        lam = 0.9
        config = MomentConfig(d=1, dc=2, s=2, forgetting=lam)
        windows = [random_window(rng, config, extra=extra) for extra in (0, 5, 11)]
        tensor = new_tensor(config)
        for window in windows:
            tensor = accumulate_window(tensor, window)
        expected = sum(
            lam ** (2 - i) * oracle_moment_tensor(w, config) for i, w in enumerate(windows)
        )
        assert np.allclose(tensor.data, expected, atol=1e-10)

    @pytest.mark.parametrize("d,dc,s,extra", [(1, 1, 1, 0), (1, 2, 3, 7), (2, 2, 4, 51)])
    def test_weight_counts_admissible_combinations(self, d, dc, s, extra):
        config = MomentConfig(d=d, dc=dc, s=s)
        window = random_window(np.random.default_rng(10), config, extra=extra)
        length, lags = len(window), range(1, config.k_max + 1)
        admissible = 0
        for k1 in lags:
            for k2 in lags:
                for k3 in lags:
                    for tau in range(length):
                        admissible += tau + k1 + k2 + k3 + 2 <= length - 1
        assert accumulate_window(new_tensor(config), window).weight == admissible

    def test_two_calls_additive(self):
        rng = np.random.default_rng(0)
        config = MomentConfig(d=1, dc=1, s=1)
        w1 = random_window(rng, config)
        w2 = random_window(rng, config)
        both = accumulate_window(accumulate_window(new_tensor(config), w1), w2)
        t1 = accumulate_window(new_tensor(config), w1)
        t2 = accumulate_window(new_tensor(config), w2)
        assert np.allclose(both.data, t1.data + t2.data, atol=1e-12)
        assert both.weight == t1.weight + t2.weight

    def test_order_invariance_with_unit_forgetting(self):
        rng = np.random.default_rng(1)
        config = MomentConfig(d=1, dc=2, s=1)
        windows = [random_window(rng, config) for _ in range(4)]
        forward = new_tensor(config)
        for w in windows:
            forward = accumulate_window(forward, w)
        backward = new_tensor(config)
        for w in reversed(windows):
            backward = accumulate_window(backward, w)
        assert np.allclose(forward.data, backward.data, atol=1e-9)

    def test_forgetting_decays_existing_mass(self):
        rng = np.random.default_rng(2)
        config = MomentConfig(d=1, dc=1, s=1, forgetting=0.5)
        w1 = random_window(rng, config)
        w2 = random_window(rng, config)
        t1 = accumulate_window(new_tensor(config), w1)
        both = accumulate_window(t1, w2)
        raw2 = accumulate_window(
            new_tensor(MomentConfig(d=1, dc=1, s=1)), w2
        )
        assert np.allclose(both.data, 0.5 * t1.data + raw2.data, atol=1e-12)

    @pytest.mark.parametrize("forgetting", [1.0, 0.5])
    def test_argument_is_not_mutated(self, forgetting):
        rng = np.random.default_rng(8)
        config = MomentConfig(d=1, dc=1, s=1, forgetting=forgetting)
        tensor = accumulate_window(new_tensor(config), random_window(rng, config))
        data, weight = tensor.data.copy(), tensor.weight
        folded = accumulate_window(tensor, random_window(rng, config))
        assert np.array_equal(tensor.data, data) and tensor.weight == weight
        assert folded.data is not tensor.data and folded.weight > weight

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_tensor_refuses_non_finite_data(self, value):
        config = MomentConfig(d=1, dc=1, s=1)
        data = np.zeros((config.mode_dim,) * 3)
        data[1, 0, 1] = value
        with pytest.raises(NumericalError, match="tensor data holds non-finite values"):
            SystemTensor(data, 1.0, config)

    def test_overflowing_window_raises_and_leaves_the_argument(self):
        # every input is finite, but a product of three pairs, each near
        # 1e110, passes float64's range
        rng = np.random.default_rng(9)
        config = MomentConfig(d=1, dc=1, s=1)
        tensor = accumulate_window(new_tensor(config), random_window(rng, config))
        data, weight = tensor.data.copy(), tensor.weight
        window = random_window(rng, config)
        window.inputs[:] = 1e110
        with pytest.raises(NumericalError, match="tensor data holds non-finite values"):
            accumulate_window(tensor, window)
        assert np.array_equal(tensor.data, data) and tensor.weight == weight

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

    @pytest.mark.parametrize("min_windows", [1, 3])
    @pytest.mark.parametrize("s", [1, 2])
    @pytest.mark.parametrize("dc", [1, 2, 3])
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_oracle_relative_to_largest_entry(self, d, dc, s, min_windows):
        # an absolute tolerance passes anything at small scales and fails
        # rounding at large ones; the error bound scales with the entries
        config = MomentConfig(d=d, dc=dc, s=s, forgetting=0.9)
        rng = np.random.default_rng(100 * d + 10 * dc + s + min_windows)
        length = min_windows * config.min_window
        for scale in (1e-3, 1.0, 1e3):
            first, second = (
                Trajectory(
                    scale * rng.standard_normal((length, d)),
                    scale * rng.standard_normal((length, dc)),
                )
                for _ in range(2)
            )
            once = accumulate_window(new_tensor(config), first)
            expected = oracle_moment_tensor(first, config)
            assert_close(once.data, expected, rtol=1e-12)
            twice = accumulate_window(once, second)
            expected = 0.9 * expected + oracle_moment_tensor(second, config)
            assert_close(twice.data, expected, rtol=1e-12)

    @pytest.mark.parametrize("forgetting", [1.0, 0.9])
    def test_result_owns_its_memory(self, forgetting):
        # the fold reads the window through strided views; none may leak out
        config = MomentConfig(d=2, dc=2, s=2, forgetting=forgetting)
        rng = np.random.default_rng(11)
        tensor = accumulate_window(new_tensor(config), random_window(rng, config))
        window = random_window(rng, config, extra=4)
        folded = accumulate_window(tensor, window)
        assert folded.data.flags.writeable and folded.data.flags.c_contiguous
        for other in (window.outputs, window.inputs, tensor.data):
            assert not np.shares_memory(folded.data, other)

    def test_window_layout_does_not_change_a_bit(self):
        # the fold's strided views read its own buffers: a Fortran-ordered
        # window, or every other row of a larger array whose rows between
        # and future inputs after hold NaN, folds to the same bits
        config = MomentConfig(d=2, dc=3, s=2, forgetting=0.9)
        rng = np.random.default_rng(12)
        tensor = accumulate_window(new_tensor(config), random_window(rng, config))
        y = rng.standard_normal((config.min_window + 5, config.d))
        u = rng.standard_normal((config.min_window + 5, config.dc))
        sparse_y = np.full((2 * len(y), config.d), np.nan)
        sparse_u = np.full((2 * len(u) + 6, config.dc), np.nan)
        sparse_y[::2], sparse_u[: 2 * len(u) : 2] = y, u
        layouts = [
            (y, u),
            (np.asfortranarray(y), np.asfortranarray(u)),
            (sparse_y[::2], sparse_u[::2]),
        ]
        want = accumulate_window(tensor, Trajectory(y, u))
        for outputs, inputs in layouts:
            window = Trajectory(outputs, inputs)
            before = window.outputs.copy(), window.inputs.copy()
            got = accumulate_window(tensor, window)
            assert np.array_equal(got.data, want.data) and got.weight == want.weight
            assert np.array_equal(window.outputs, before[0])
            assert np.array_equal(window.inputs, before[1], equal_nan=True)

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
            tensor = accumulate_window(tensor, random_window(rng, config))
            sizes.add(tensor.data.nbytes)
        assert sizes == {tensor.config.mode_dim**3 * 8}


class TestNormalizedView:
    def test_single_call_mean(self):
        rng = np.random.default_rng(4)
        config = MomentConfig(d=1, dc=1, s=1)
        window = random_window(rng, config)
        tensor = accumulate_window(new_tensor(config), window)
        assert np.allclose(normalized_view(tensor), tensor.data / tensor.weight)

    def test_repeated_window_mean_unchanged(self):
        rng = np.random.default_rng(5)
        config = MomentConfig(d=1, dc=1, s=1)
        window = random_window(rng, config)
        once = accumulate_window(new_tensor(config), window)
        repeated = once
        for _ in range(4):
            repeated = accumulate_window(repeated, window)
        assert np.allclose(normalized_view(repeated), normalized_view(once), atol=1e-12)

    def test_discounted_mean_matches_direct_computation(self):
        rng = np.random.default_rng(6)
        lam = 0.5
        config = MomentConfig(d=1, dc=1, s=1, forgetting=lam)
        plain = MomentConfig(d=1, dc=1, s=1)
        w1, w2 = random_window(rng, config), random_window(rng, config)
        t1 = accumulate_window(new_tensor(plain), w1)
        t2 = accumulate_window(new_tensor(plain), w2)
        mixed = accumulate_window(accumulate_window(new_tensor(config), w1), w2)
        expected = (lam * t1.data + t2.data) / (lam * t1.weight + t2.weight)
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

