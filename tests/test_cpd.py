import numpy as np
import pytest

from delaymix.cpd import (
    CPFactors,
    cp_als,
    reconstruct,
)
from delaymix.errors import DataError, RankError, ShapeError
from oracles import align_components


def rank_one(a, b, c):
    return np.einsum("a,b,c->abc", a, b, c)


def unit(rng, dim):
    v = rng.standard_normal(dim)
    return v / np.linalg.norm(v)


def rotated_unit(rng, base, angle):
    """A unit vector at the given angle from base."""
    ortho = rng.standard_normal(base.shape[0])
    ortho -= ortho @ base * base
    ortho /= np.linalg.norm(ortho)
    return np.cos(angle) * base + np.sin(angle) * ortho


class TestCpAls:
    def test_exact_rank_one(self):
        rng = np.random.default_rng(0)
        dim = 8
        a, b, c = (unit(rng, dim) for _ in range(3))
        tensor = 2.5 * rank_one(a, b, c)
        factors, _, residual = cp_als(tensor, 1, seed=1)
        assert residual < 1e-8
        q1, _, _ = factors.component(0)
        cos = abs(q1 @ a) / np.linalg.norm(q1)
        assert cos > 1 - 1e-8

    def test_rank_two_recovery_with_alignment(self):
        rng = np.random.default_rng(1)
        dim = 10
        base = [unit(rng, dim) for _ in range(3)]
        other = [rotated_unit(rng, v, np.deg2rad(60)) for v in base]
        truth = CPFactors(
            np.column_stack([base[0], other[0]]),
            np.column_stack([base[1], other[1]]),
            np.column_stack([base[2], other[2]]),
        )
        tensor = reconstruct(truth)
        factors, _, residual = cp_als(tensor, 2, seed=2)
        assert residual < 1e-6
        alignment = align_components(factors, truth)
        assert sorted(alignment.permutation.tolist()) == [0, 1]
        assert np.all(alignment.cosines > 0.99)

    def test_init_at_truth_converges_immediately(self):
        rng = np.random.default_rng(2)
        dim = 7
        truth = CPFactors(
            rng.standard_normal((dim, 2)),
            rng.standard_normal((dim, 2)),
            rng.standard_normal((dim, 2)),
        )
        tensor = reconstruct(truth)
        _, iters, residual = cp_als(tensor, 2, tol=1e-8, init=truth)
        assert iters <= 3
        assert residual < 1e-8

    @pytest.mark.parametrize("case", ["exact_rank_one", "warm_from_truth", "noisy"])
    def test_returned_residual_is_direct(self, case):
        # the expanded ||T||^2 - 2<T,rec> + ||rec||^2 form reads ~1.2e-8 or 0
        # here, whatever the fit; the promise is the true relative residual
        rng = np.random.default_rng(12)
        dim = 7
        truth = CPFactors(*(rng.standard_normal((dim, 2)) for _ in range(3)))
        if case == "exact_rank_one":
            tensor = 2.5 * rank_one(*(unit(rng, dim) for _ in range(3)))
            opts, rank = dict(seed=1), 1
        elif case == "warm_from_truth":
            tensor = reconstruct(truth)
            opts, rank = dict(tol=1e-8, init=truth), 2
        else:
            tensor = reconstruct(truth) + 1e-8 * rng.standard_normal((dim,) * 3)
            opts, rank = dict(tol=1e-10, seed=3), 2
        factors, iters, residual = cp_als(tensor, rank, **opts)
        direct = np.linalg.norm(tensor - reconstruct(factors)) / np.linalg.norm(tensor)
        assert residual < 1e-6
        assert residual == pytest.approx(direct, rel=1e-6)
        if case == "warm_from_truth":
            assert iters <= 3

    def test_monotone_residual(self):
        rng = np.random.default_rng(3)
        dim = 6
        tensor = rng.standard_normal((dim, dim, dim))
        residuals = []
        for iters in range(1, 12):
            _, _, residual = cp_als(tensor, 2, max_iters=iters, tol=1e-14, seed=5)
            residuals.append(residual)
        diffs = np.diff(residuals)
        assert np.all(diffs <= 1e-10)

    def test_determinism_bitwise(self):
        rng = np.random.default_rng(4)
        tensor = rng.standard_normal((6, 6, 6))
        f1, i1, r1 = cp_als(tensor, 2, seed=9)
        f2, i2, r2 = cp_als(tensor, 2, seed=9)
        assert i1 == i2
        assert r1 == r2
        assert np.array_equal(f1.mode1, f2.mode1)
        assert np.array_equal(f1.mode2, f2.mode2)
        assert np.array_equal(f1.mode3, f2.mode3)

    def test_strided_tensor_matches_contiguous_copy(self):
        tensor = np.random.default_rng(13).standard_normal((6, 6, 6)).transpose(2, 0, 1)
        f1, i1, r1 = cp_als(tensor, 2, seed=4)
        f2, i2, r2 = cp_als(tensor.copy(), 2, seed=4)
        assert (i1, r1) == (i2, r2)
        assert np.array_equal(f1.mode1, f2.mode1) and np.array_equal(f1.mode3, f2.mode3)

    def test_scale_indifference(self):
        rng = np.random.default_rng(5)
        tensor = rng.standard_normal((6, 6, 6))
        scale = 7.3
        f1, i1, _ = cp_als(tensor, 2, seed=3)
        f2, i2, _ = cp_als(scale * tensor, 2, seed=3)
        assert i1 == i2
        assert np.allclose(reconstruct(f2), scale * reconstruct(f1), atol=1e-8)
        for mode in ("mode1", "mode2", "mode3"):
            a = getattr(f1, mode)
            b = getattr(f2, mode)
            for r in range(2):
                va = a[:, r] / np.linalg.norm(a[:, r])
                vb = b[:, r] / np.linalg.norm(b[:, r])
                assert min(
                    np.linalg.norm(va - vb), np.linalg.norm(va + vb)
                ) < 1e-6

    def test_fidelity_on_reconstruction(self):
        rng = np.random.default_rng(6)
        dim = 9
        truth = CPFactors(
            rng.standard_normal((dim, 3)),
            rng.standard_normal((dim, 3)),
            rng.standard_normal((dim, 3)),
        )
        _, _, residual = cp_als(reconstruct(truth), 3, init=truth)
        assert residual < 1e-8

    def test_sign_convention(self):
        rng = np.random.default_rng(7)
        tensor = rng.standard_normal((5, 5, 5))
        factors, _, _ = cp_als(tensor, 2, seed=0)
        for r in range(2):
            column = factors.mode1[:, r]
            assert column[np.argmax(np.abs(column))] > 0

    def test_rank_errors(self):
        tensor = np.zeros((4, 4, 4))
        with pytest.raises(RankError):
            cp_als(tensor, 5)
        with pytest.raises(RankError):
            cp_als(tensor, 0)

    def test_non_finite_rejected(self):
        tensor = np.zeros((4, 4, 4))
        tensor[0, 0, 0] = np.nan
        with pytest.raises(DataError):
            cp_als(tensor, 1)

    def test_non_cubical_rejected(self):
        with pytest.raises(ShapeError):
            cp_als(np.zeros((3, 4, 3)), 1)

    def test_options_validation(self, monkeypatch):
        from delaymix import cpd

        tensor = np.random.default_rng(8).standard_normal((5, 5, 5))
        with pytest.raises(ValueError):
            cp_als(tensor, 2, max_iters=0)
        with pytest.raises(ValueError):
            cp_als(tensor, 2, tol=0.0)
        assert (cpd.COLD_MAX_ITERS, cpd.WARM_MAX_ITERS) == (200, 50)
        # the caps are read at call time: a cold start runs to the one, a
        # warm start to the other, and max_iters overrides both
        monkeypatch.setattr(cpd, "COLD_MAX_ITERS", 2)
        monkeypatch.setattr(cpd, "WARM_MAX_ITERS", 1)
        cold, iters, _ = cp_als(tensor, 2, tol=1e-14)
        assert iters == 2
        assert cp_als(tensor, 2, init=cold, tol=1e-14)[1] == 1
        assert cp_als(tensor, 2, max_iters=3, tol=1e-14)[1] == 3

    def test_singular_solve_carries_last_factors(self, monkeypatch):
        from delaymix import cpd
        from delaymix.errors import ConvergenceError

        def always_singular(*args, **kwargs):
            raise np.linalg.LinAlgError("singular")

        monkeypatch.setattr(np.linalg, "solve", always_singular)
        rng = np.random.default_rng(0)
        tensor = rng.standard_normal((4, 4, 4))
        with pytest.raises(ConvergenceError) as info:
            cpd.cp_als(tensor, 2, seed=0)
        assert info.value.factors is not None
        assert info.value.factors.rank == 2


class TestMttkrp:
    # the unfolding GEMMs against the definition sum_{j,k} T[i,j,k] a[j,r] b[k,r]
    DEFINITIONS = ("abc,br,cr->ar", "abc,ar,cr->br", "abc,ar,br->cr")

    @pytest.mark.parametrize("dim", [4, 6, 32])
    @pytest.mark.parametrize("rank", [1, 2, 3])
    @pytest.mark.parametrize("mode", [0, 1, 2])
    def test_matches_einsum_definition(self, dim, rank, mode):
        from delaymix.cpd import _mttkrp

        rng = np.random.default_rng(100 * dim + 10 * rank + mode)
        tensor = rng.standard_normal((dim, dim, dim))
        a, b = rng.standard_normal((2, dim, rank))
        fast = _mttkrp(tensor, mode, a, b)
        slow = np.einsum(self.DEFINITIONS[mode], tensor, a, b)
        assert fast.shape == (dim, rank)
        assert np.linalg.norm(fast - slow) <= 1e-12 * np.linalg.norm(slow)


class TestReconstruct:
    def test_all_ones(self):
        ones = np.ones((5, 1))
        factors = CPFactors(ones, ones, ones)
        assert np.array_equal(reconstruct(factors), np.ones((5, 5, 5)))

    def test_zero(self):
        zeros = np.zeros((4, 2))
        factors = CPFactors(zeros, zeros, zeros)
        assert np.array_equal(reconstruct(factors), np.zeros((4, 4, 4)))

    def test_matches_triple_loop(self):
        self.check_triple_loop(4, 3)

    @pytest.mark.parametrize("dim, rank", [(3, 3), (5, 1), (6, 2)])
    def test_matches_triple_loop_other_shapes(self, dim, rank):
        self.check_triple_loop(dim, rank)

    @staticmethod
    def check_triple_loop(dim, rank):
        rng = np.random.default_rng(8)
        factors = CPFactors(
            rng.standard_normal((dim, rank)),
            rng.standard_normal((dim, rank)),
            rng.standard_normal((dim, rank)),
        )
        fast = reconstruct(factors)
        slow = np.zeros((dim, dim, dim))
        for a in range(dim):
            for b in range(dim):
                for c in range(dim):
                    for r in range(rank):
                        slow[a, b, c] += (
                            factors.mode1[a, r]
                            * factors.mode2[b, r]
                            * factors.mode3[c, r]
                        )
        assert np.allclose(fast, slow, atol=1e-12)


class TestAlignComponents:
    def test_identity(self):
        rng = np.random.default_rng(9)
        factors = CPFactors(
            rng.standard_normal((6, 2)),
            rng.standard_normal((6, 2)),
            rng.standard_normal((6, 2)),
        )
        alignment = align_components(factors, factors)
        assert alignment.permutation.tolist() == [0, 1]
        assert np.allclose(alignment.scales, 1.0, atol=1e-12)
        assert np.allclose(alignment.cosines, 1.0, atol=1e-12)

    def test_swap_and_scale(self):
        rng = np.random.default_rng(10)
        reference = CPFactors(
            rng.standard_normal((6, 2)),
            rng.standard_normal((6, 2)),
            rng.standard_normal((6, 2)),
        )
        # estimated: components swapped, first one scaled by (2, 3, 1/6)
        estimated = CPFactors(
            np.column_stack([reference.mode1[:, 1], 2.0 * reference.mode1[:, 0]]),
            np.column_stack([reference.mode2[:, 1], 3.0 * reference.mode2[:, 0]]),
            np.column_stack([reference.mode3[:, 1], reference.mode3[:, 0] / 6.0]),
        )
        alignment = align_components(estimated, reference)
        assert alignment.permutation.tolist() == [1, 0]
        # mapping estimated -> reference inverts the applied scaling
        assert np.allclose(alignment.scales[0], [0.5, 1 / 3, 6.0], atol=1e-12)
        # the transform preserved the reconstruction, so scales multiply to 1
        assert np.prod(alignment.scales[0]) == pytest.approx(1.0)
        assert np.allclose(alignment.scales[1], 1.0, atol=1e-12)

    def test_noisy_orthogonal_reference(self):
        rng = np.random.default_rng(11)
        dim = 8
        q = np.linalg.qr(rng.standard_normal((dim, 2)))[0]
        reference = CPFactors(q.copy(), q.copy(), q.copy())
        estimated = CPFactors(
            q + 1e-3 * rng.standard_normal((dim, 2)),
            q + 1e-3 * rng.standard_normal((dim, 2)),
            q + 1e-3 * rng.standard_normal((dim, 2)),
        )
        alignment = align_components(estimated, reference)
        assert alignment.permutation.tolist() == [0, 1]
        assert np.all(alignment.cosines > 0.999)

    def test_rank_mismatch(self):
        a = CPFactors(np.ones((4, 1)), np.ones((4, 1)), np.ones((4, 1)))
        b = CPFactors(np.ones((4, 2)), np.ones((4, 2)), np.ones((4, 2)))
        with pytest.raises(ShapeError):
            align_components(a, b)
