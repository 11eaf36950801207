"""Rank-R CP decomposition of the system tensor by alternating least squares.

Each ALS sweep reads the D x D x D tensor in two contiguous passes (the
dimension-tree MTTKRP): W = T x3 C serves the mode-1 and mode-2 updates and
T x1 A the mode-3 update. Inside the sweep loop the factors are held
component-major, (R, D). The mode-3 unfolding is copied contiguous once per
`cp_als` call, D^3 floats of transient memory beside the tensor.
"""

from __future__ import annotations

import math
import numbers
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


def _unfoldings(tensor: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The mode-1 and mode-3 unfoldings of a C-contiguous tensor, both C-contiguous (D, D^2).

    Row i of the first is T[i, :, :] flattened over (j, k), and row k of the
    second is T[:, :, k] flattened over (i, j). The first is a view. The
    second is a copy, D^3 floats, because the same GEMM over the transposed
    view ran about 3x slower at D = 32.
    """
    dim = tensor.shape[0]
    mode3 = np.ascontiguousarray(tensor.transpose(2, 0, 1))
    return tensor.reshape(dim, dim * dim), mode3.reshape(dim, dim * dim)


def _solve_normal(
    gram: np.ndarray, rhs: np.ndarray, eye: np.ndarray, sweep_start: tuple
) -> np.ndarray:
    """Solve (gram + ridge I) x = rhs, rhs a component-major (R, D) MTTKRP,
    with a rescue ridge; x is the mode's new (R, D) factor.

    eye is the rank x rank identity, built once per `cp_als` call.
    sweep_start holds the component-major (mode1, mode2, mode3) arrays the
    sweep began from; transposed to (D, R), they are the ConvergenceError's
    factors when the rescue fails too.
    """
    trace = gram.trace()
    for eps in (RIDGE_SCALE * trace, 1e-6 * trace + 1e-12):
        try:
            return np.linalg.solve(gram + eps * eye, rhs)
        except np.linalg.LinAlgError:
            pass
    raise ConvergenceError(
        "normal equations stayed singular beyond ridge rescue",
        factors=CPFactors(*(m.T for m in sweep_start)),
    )


def _fix_signs(m1: np.ndarray, m2: np.ndarray) -> None:
    """Flip components so mode-1's largest-magnitude entry is positive."""
    for r in range(m1.shape[1]):
        column = m1[:, r]
        peak = np.argmax(np.abs(column))
        if column[peak] < 0.0:
            m1[:, r] = -column
            m2[:, r] = -m2[:, r]


def _is_int(value) -> bool:
    """An int or numpy integer; a bool is no count."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


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
    given seed and init. A rank, seed, max_iters or tol that is not a
    number of the right kind and range raises ConfigError (RankError for
    rank).

    Each sweep reads the tensor in two contiguous passes, the dimension-tree
    MTTKRP of Phan, Tichavsky & Cichocki (IEEE TSP 61(19), 2013): W = T x3 C
    gives the mode-1 and, after the mode-1 update, the mode-2 MTTKRP by
    batched products over its R slices of D x D, and V = T x1 A gives the
    mode-3 MTTKRP the same way. Inside the loop the factors are held
    component-major, (R, D), so both passes are one (R, D) x (D, D^2) GEMM
    over a C-contiguous unfolding. The mode-3 unfolding is copied contiguous
    once per call: D^3 floats of transient memory beside the tensor.
    Each mode's Gram matrix is formed once per sweep, and the next two
    solves reuse it. Each sweep then evaluates the residual in the cheap
    expanded form ||T||^2 - 2<T, rec> + ||rec||^2 from the mode-3 MTTKRP
    and the three Gram matrices. That form cannot resolve a relative
    residual below about sqrt(eps), so once it reads below
    DIRECT_RESIDUAL_BELOW (1e-6) the residual is computed directly from the
    dense reconstruction, and that value drives both the stopping test and
    the return value.

    The sweep stops when the relative change of the residual drops below
    tol, when the residual fails to decrease, when it falls below
    1e-14, or at max_iters. Exact ALS never increases the residual, since
    each mode update is a least-squares minimiser; a rise means only the
    RIDGE_SCALE bias or rounding is still acting. That bias also keeps the
    residual of an exact low-rank fit at about 1e-10 relative, not 0.
    """
    if not _is_int(rank):
        raise RankError(f"rank must be an integer, got {rank!r}")
    if not _is_int(seed) or seed < 0:
        raise ConfigError(f"seed must be a non-negative integer, got {seed!r}")
    if max_iters is not None and (not _is_int(max_iters) or max_iters < 1):
        raise ConfigError(f"max_iters must be None or an integer >= 1, got {max_iters!r}")
    # nan would turn the relative-change stop off, and inf would stop every
    # fit after its second sweep
    if isinstance(tol, bool) or not isinstance(tol, numbers.Real) or not 0.0 < tol < math.inf:
        raise ConfigError(f"tol must be a positive finite number, got {tol!r}")
    if max_iters is None:
        max_iters = COLD_MAX_ITERS if init is None else WARM_MAX_ITERS
    tensor = np.ascontiguousarray(tensor, dtype=np.float64)  # the mode-1 unfolding is a view
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
        start = init
    else:
        start = _cold_init(dim, rank, seed)
    # component-major (R, D); the first sweep replaces all three
    a, b, c = start.mode1.T, start.mode2.T, start.mode3.T

    norm_sq = float(np.sum(tensor * tensor))
    scale = float(np.sqrt(norm_sq)) if norm_sq > 0.0 else 1.0
    unfold1, unfold3 = _unfoldings(tensor)
    slices = (rank, dim, dim)

    prev = None
    iters = 0
    final = 0.0
    eye = np.eye(rank)
    gb, gc = b @ b.T, c @ c.T
    for iteration in range(1, max_iters + 1):
        current = (a, b, c)
        w = (c @ unfold3).reshape(slices)  # w[r, i, j] = sum_k T[i, j, k] c[r, k]
        a = _solve_normal(gb * gc, (w @ b[:, :, None])[:, :, 0], eye, current)
        ga = a @ a.T

        b = _solve_normal(ga * gc, (a[:, None, :] @ w)[:, 0, :], eye, current)
        gb = b @ b.T

        v = (a @ unfold1).reshape(slices)  # v[r, j, k] = sum_i a[r, i] T[i, j, k]
        mttkrp3 = (b[:, None, :] @ v)[:, 0, :]
        c = _solve_normal(ga * gb, mttkrp3, eye, current)
        gc = c @ c.T

        # ||T - rec||^2 = ||T||^2 - 2 <T, rec> + ||rec||^2 via the mode-3 MTTKRP
        res_sq = norm_sq - 2.0 * float(np.vdot(mttkrp3, c)) + float(np.sum(ga * gb * gc))
        rel_res = float(np.sqrt(max(res_sq, 0.0))) / scale
        if rel_res < DIRECT_RESIDUAL_BELOW:
            rel_res = float(np.linalg.norm(tensor - reconstruct(CPFactors(a.T, b.T, c.T)))) / scale
        iters = iteration
        final = rel_res
        if prev is not None and (
            rel_res >= prev or prev - rel_res < tol * max(prev, 1e-300)
        ):
            break
        if rel_res < 1e-14:
            break
        prev = rel_res

    m1, m2, m3 = a.T, b.T, c.T
    _fix_signs(m1, m2)
    return CPFactors(m1, m2, m3), iters, final


def reconstruct(factors: CPFactors) -> np.ndarray:
    """Dense tensor sum_r q1_r x q2_r x q3_r."""
    product = factors.mode1 @ _khatri_rao(factors.mode2, factors.mode3).T
    return product.reshape((factors.dim,) * 3)
