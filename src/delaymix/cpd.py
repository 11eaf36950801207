"""Rank-R CP decomposition of the system tensor by alternating least squares."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ConvergenceError, DataError, RankError, ShapeError

COLD_MAX_ITERS = 200
WARM_MAX_ITERS = 50
RIDGE_SCALE = 1e-10
# Relative residual below which cp_als measures ||T - rec|| directly: the
# expanded form cancels to rounding noise near sqrt(eps) ~ 1.5e-8.
DIRECT_RESIDUAL_BELOW = 1e-6


@dataclass(frozen=True)
class CPFactors:
    """Factor matrices of a CP decomposition; column r of each mode is component r."""

    mode1: np.ndarray  # (D, R)
    mode2: np.ndarray
    mode3: np.ndarray

    def __post_init__(self):
        m1 = np.asarray(self.mode1, dtype=np.float64)
        m2 = np.asarray(self.mode2, dtype=np.float64)
        m3 = np.asarray(self.mode3, dtype=np.float64)
        if m1.ndim != 2 or m2.shape != m1.shape or m3.shape != m1.shape:
            raise ShapeError(
                f"factor matrices must share shape (D, R), got "
                f"{m1.shape}, {m2.shape}, {m3.shape}"
            )
        if m1.shape[1] < 1:
            raise RankError("rank must be at least 1")
        object.__setattr__(self, "mode1", m1)
        object.__setattr__(self, "mode2", m2)
        object.__setattr__(self, "mode3", m3)

    @property
    def rank(self) -> int:
        return self.mode1.shape[1]

    @property
    def dim(self) -> int:
        return self.mode1.shape[0]

    def component(self, i: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        return self.mode1[:, i], self.mode2[:, i], self.mode3[:, i]


def _cold_init(dim: int, rank: int, seed: int) -> CPFactors:
    rng = np.random.default_rng(seed)
    mats = []
    for _ in range(3):
        mat = rng.standard_normal((dim, rank))
        mat /= np.linalg.norm(mat, axis=0, keepdims=True)
        mats.append(mat)
    return CPFactors(*mats)


def _khatri_rao(left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """Column-wise Kronecker product: row (i, j) of column r is left[i, r] * right[j, r]."""
    return (left[:, None, :] * right[None, :, :]).reshape(-1, left.shape[1])


def _mttkrp(tensor: np.ndarray, mode: int, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Mode-`mode` MTTKRP (D, R) with the other modes' factors a, b: one GEMM on a view."""
    dim, rank = a.shape
    cols = tensor.reshape(dim * dim, dim)  # T[(i, j), k]; its transpose unfolds mode 3
    if mode == 1:
        return ((cols @ b).reshape(dim, dim, rank) * a[:, None, :]).sum(axis=0)
    unfolding = tensor.reshape(dim, dim * dim) if mode == 0 else cols.T
    return unfolding @ _khatri_rao(a, b)


def _solve_normal(
    gram: np.ndarray, rhs: np.ndarray, eye: np.ndarray, sweep_start: tuple
) -> np.ndarray:
    """Solve (gram + ridge I) x = rhs for each rhs row, with a rescue ridge.

    eye is the rank x rank identity, built once per `cp_als` call.
    sweep_start holds the (mode1, mode2, mode3) arrays the sweep began from;
    they are the ConvergenceError's factors when the rescue fails too.
    """
    trace = gram.trace()
    for eps in (RIDGE_SCALE * trace, 1e-6 * trace + 1e-12):
        try:
            return np.linalg.solve(gram + eps * eye, rhs)
        except np.linalg.LinAlgError:
            pass
    raise ConvergenceError(
        "normal equations stayed singular beyond ridge rescue",
        factors=CPFactors(*sweep_start),
    )


def _fix_signs(m1: np.ndarray, m2: np.ndarray) -> None:
    """Flip components so mode-1's largest-magnitude entry is positive."""
    for r in range(m1.shape[1]):
        column = m1[:, r]
        peak = np.argmax(np.abs(column))
        if column[peak] < 0.0:
            m1[:, r] = -column
            m2[:, r] = -m2[:, r]


def cp_als(
    tensor: np.ndarray,
    rank: int,
    *,
    seed: int = 0,
    init: CPFactors | None = None,
    max_iters: int | None = None,
    tol: float = 1e-6,
) -> tuple[CPFactors, int, float]:
    """Fit a rank-R CP decomposition by cyclic per-mode least squares.

    init = None draws a cold start from seed; passing previous factors
    warm-starts the sweep. max_iters = None resolves to COLD_MAX_ITERS or,
    with init, WARM_MAX_ITERS. Returns (factors, iterations used, final
    relative residual ||T - reconstruct(factors)|| / ||T||). Deterministic
    given seed and init.

    Each mode update is one GEMM on a reshape view of the tensor, the
    unfolding MTTKRP of Kolda & Bader (2009, sec. 3.4); each mode's Gram
    matrix is formed once per sweep, and the next two solves reuse it.
    Each sweep then evaluates the residual in the cheap expanded form
    ||T||^2 - 2<T, rec> + ||rec||^2 from the mode-3 MTTKRP and the three
    Gram matrices. That form cannot resolve a relative residual below
    about sqrt(eps), so once it reads below DIRECT_RESIDUAL_BELOW (1e-6) the
    residual is computed directly from the dense reconstruction, and that
    value drives both the stopping test and the return value.

    The sweep stops when the relative change of the residual drops below
    tol, when the residual fails to decrease, when it falls below
    1e-14, or at max_iters. Exact ALS never increases the residual, since
    each mode update is a least-squares minimiser; a rise means only the
    RIDGE_SCALE bias or rounding is still acting. That bias also keeps the
    residual of an exact low-rank fit at about 1e-10 relative, not 0.
    """
    if max_iters is not None and max_iters < 1:
        raise ConfigError(f"max_iters must be >= 1, got {max_iters}")
    if tol <= 0.0:
        raise ConfigError(f"tol must be positive, got {tol}")
    if max_iters is None:
        max_iters = COLD_MAX_ITERS if init is None else WARM_MAX_ITERS
    tensor = np.ascontiguousarray(tensor, dtype=np.float64)  # the unfoldings are views
    if tensor.ndim != 3 or len(set(tensor.shape)) != 1:
        raise ShapeError(f"expected a cubical order-3 tensor, got shape {tensor.shape}")
    dim = tensor.shape[0]
    if rank < 1:
        raise RankError(f"rank must be >= 1, got {rank}")
    if rank > dim:
        raise RankError(f"rank {rank} exceeds tensor mode size {dim}")
    if not np.all(np.isfinite(tensor)):
        raise DataError("tensor contains non-finite values")

    if init is not None:
        if init.dim != dim:
            raise ShapeError(f"warm-start factors have mode size {init.dim}, tensor has {dim}")
        if init.rank != rank:
            raise RankError(f"warm-start factors have rank {init.rank}, requested {rank}")
        m1, m2, m3 = init.mode1.copy(), init.mode2.copy(), init.mode3.copy()
    else:
        cold = _cold_init(dim, rank, seed)
        m1, m2, m3 = cold.mode1, cold.mode2, cold.mode3

    norm_sq = float(np.sum(tensor * tensor))
    scale = float(np.sqrt(norm_sq)) if norm_sq > 0.0 else 1.0

    prev = None
    iters = 0
    final = 0.0
    eye = np.eye(rank)
    g2, g3 = m2.T @ m2, m3.T @ m3
    for iteration in range(1, max_iters + 1):
        current = (m1, m2, m3)
        m1 = _solve_normal(g2 * g3, _mttkrp(tensor, 0, m2, m3).T, eye, current).T
        g1 = m1.T @ m1

        m2 = _solve_normal(g1 * g3, _mttkrp(tensor, 1, m1, m3).T, eye, current).T
        g2 = m2.T @ m2

        mttkrp3 = _mttkrp(tensor, 2, m1, m2)
        m3 = _solve_normal(g1 * g2, mttkrp3.T, eye, current).T
        g3 = m3.T @ m3

        # ||T - rec||^2 = ||T||^2 - 2 <T, rec> + ||rec||^2 via the mode-3 MTTKRP
        res_sq = norm_sq - 2.0 * float(np.sum(mttkrp3 * m3)) + float(np.sum(g1 * g2 * g3))
        rel_res = float(np.sqrt(max(res_sq, 0.0))) / scale
        if rel_res < DIRECT_RESIDUAL_BELOW:
            rel_res = float(np.linalg.norm(tensor - reconstruct(CPFactors(m1, m2, m3)))) / scale
        iters = iteration
        final = rel_res
        if prev is not None and (
            rel_res >= prev or prev - rel_res < tol * max(prev, 1e-300)
        ):
            break
        if rel_res < 1e-14:
            break
        prev = rel_res

    _fix_signs(m1, m2)
    return CPFactors(m1, m2, m3), iters, final


def reconstruct(factors: CPFactors) -> np.ndarray:
    """Dense tensor sum_r q1_r x q2_r x q3_r."""
    product = factors.mode1 @ _khatri_rao(factors.mode2, factors.mode3).T
    return product.reshape((factors.dim,) * 3)

