"""Rank-R CP decomposition of the system tensor by alternating least squares."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ConvergenceError, DataError, RankError, ShapeError

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

    @classmethod
    def from_components(cls, triples: Sequence[tuple]) -> "CPFactors":
        m1 = np.column_stack([np.asarray(t[0], dtype=np.float64) for t in triples])
        m2 = np.column_stack([np.asarray(t[1], dtype=np.float64) for t in triples])
        m3 = np.column_stack([np.asarray(t[2], dtype=np.float64) for t in triples])
        return cls(m1, m2, m3)


@dataclass(frozen=True)
class AlsOptions:
    """Alternating least squares controls.

    init = None draws a seeded random cold start; passing previous factors
    warm-starts the sweep. max_iters = None resolves to 200 (cold) or 50
    (warm). tol is the relative residual-change stopping threshold; the
    sweep also stops, whatever tol is, once the residual fails to decrease
    (see cp_als).
    """

    max_iters: int | None = None
    tol: float = 1e-6
    seed: int = 0
    init: CPFactors | None = None

    def __post_init__(self):
        if self.max_iters is not None and self.max_iters < 1:
            raise ValueError(f"max_iters must be >= 1, got {self.max_iters}")
        if self.tol <= 0.0:
            raise ValueError(f"tol must be positive, got {self.tol}")

    @property
    def resolved_max_iters(self) -> int:
        if self.max_iters is not None:
            return self.max_iters
        return WARM_MAX_ITERS if self.init is not None else COLD_MAX_ITERS


def _cold_init(dim: int, rank: int, seed: int) -> CPFactors:
    rng = np.random.default_rng(seed)
    mats = []
    for _ in range(3):
        mat = rng.standard_normal((dim, rank))
        mat /= np.linalg.norm(mat, axis=0, keepdims=True)
        mats.append(mat)
    return CPFactors(*mats)


def _solve_normal(gram: np.ndarray, rhs: np.ndarray, factors: CPFactors) -> np.ndarray:
    """Solve (gram + ridge I) x = rhs for each rhs row, with a rescue ridge."""
    rank = gram.shape[0]
    ridge = RIDGE_SCALE * np.trace(gram)
    for attempt, eps in enumerate((ridge, 1e-6 * np.trace(gram) + 1e-12)):
        try:
            return np.linalg.solve(gram + eps * np.eye(rank), rhs)
        except np.linalg.LinAlgError:
            if attempt == 1:
                raise ConvergenceError(
                    "normal equations stayed singular beyond ridge rescue",
                    factors=factors,
                )
    raise AssertionError("unreachable")


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
    opts: AlsOptions | None = None,
) -> tuple[CPFactors, int, float]:
    """Fit a rank-R CP decomposition by cyclic per-mode least squares.

    Returns (factors, iterations used, final relative residual
    ||T - reconstruct(factors)|| / ||T||). Deterministic given seed and init.

    Each sweep first evaluates the residual in the cheap expanded form
    ||T||^2 - 2<T, rec> + ||rec||^2 from the mode-3 MTTKRP (Kolda & Bader
    2009, sec. 3.4). That form cannot resolve a relative residual below
    about sqrt(eps), so once it reads below DIRECT_RESIDUAL_BELOW (1e-6) the
    residual is computed directly from the dense reconstruction, and that
    value drives both the stopping test and the return value.

    The sweep stops when the relative change of the residual drops below
    opts.tol, when the residual fails to decrease, when it falls below
    1e-14, or at max_iters. Exact ALS never increases the residual, since
    each mode update is a least-squares minimiser; a rise means only the
    RIDGE_SCALE bias or rounding is still acting. That bias also keeps the
    residual of an exact low-rank fit at about 1e-10 relative, not 0.
    """
    opts = opts or AlsOptions()
    tensor = np.asarray(tensor, dtype=np.float64)
    if tensor.ndim != 3 or len(set(tensor.shape)) != 1:
        raise ShapeError(f"expected a cubical order-3 tensor, got shape {tensor.shape}")
    dim = tensor.shape[0]
    if rank < 1:
        raise RankError(f"rank must be >= 1, got {rank}")
    if rank > dim:
        raise RankError(f"rank {rank} exceeds tensor mode size {dim}")
    if not np.all(np.isfinite(tensor)):
        raise DataError("tensor contains non-finite values")

    if opts.init is not None:
        if opts.init.dim != dim:
            raise ShapeError(
                f"warm-start factors have mode size {opts.init.dim}, tensor has {dim}"
            )
        if opts.init.rank != rank:
            raise RankError(
                f"warm-start factors have rank {opts.init.rank}, requested {rank}"
            )
        m1 = opts.init.mode1.copy()
        m2 = opts.init.mode2.copy()
        m3 = opts.init.mode3.copy()
    else:
        cold = _cold_init(dim, rank, opts.seed)
        m1, m2, m3 = cold.mode1, cold.mode2, cold.mode3

    norm_sq = float(np.sum(tensor * tensor))
    scale = np.sqrt(norm_sq) if norm_sq > 0.0 else 1.0

    def relative_residual(mttkrp3: np.ndarray) -> float:
        # ||T - rec||^2 = ||T||^2 - 2 <T, rec> + ||rec||^2 via the mode-3 MTTKRP
        inner = float(np.sum(mttkrp3 * m3))
        rec_sq = float(np.sum((m1.T @ m1) * (m2.T @ m2) * (m3.T @ m3)))
        expanded = float(np.sqrt(max(norm_sq - 2.0 * inner + rec_sq, 0.0))) / scale
        if expanded >= DIRECT_RESIDUAL_BELOW:
            return expanded
        rec = reconstruct(CPFactors(m1, m2, m3))
        return float(np.linalg.norm(tensor - rec)) / scale

    prev = None
    iters = 0
    final = 0.0
    for iteration in range(1, opts.resolved_max_iters + 1):
        current = CPFactors(m1, m2, m3)
        gram = (m2.T @ m2) * (m3.T @ m3)
        rhs = np.einsum("abc,br,cr->ra", tensor, m2, m3, optimize=True)
        m1 = _solve_normal(gram, rhs, current).T

        gram = (m1.T @ m1) * (m3.T @ m3)
        rhs = np.einsum("abc,ar,cr->rb", tensor, m1, m3, optimize=True)
        m2 = _solve_normal(gram, rhs, current).T

        gram = (m1.T @ m1) * (m2.T @ m2)
        mttkrp3 = np.einsum("abc,ar,br->cr", tensor, m1, m2, optimize=True)
        m3 = _solve_normal(gram, mttkrp3.T, current).T

        rel_res = relative_residual(mttkrp3)
        iters = iteration
        final = rel_res
        if prev is not None and (
            rel_res >= prev or prev - rel_res < opts.tol * max(prev, 1e-300)
        ):
            break
        if rel_res < 1e-14:
            break
        prev = rel_res

    _fix_signs(m1, m2)
    return CPFactors(m1, m2, m3), iters, final


def reconstruct(factors: CPFactors, dim: int | None = None) -> np.ndarray:
    """Dense tensor sum_r q1_r x q2_r x q3_r."""
    if dim is not None and factors.dim != dim:
        raise ShapeError(f"factor length {factors.dim} does not match D={dim}")
    return np.einsum(
        "ar,br,cr->abc", factors.mode1, factors.mode2, factors.mode3, optimize=True
    )


@dataclass(frozen=True)
class Alignment:
    """Greedy matching of estimated components onto reference components.

    permutation[j] is the estimated component matched to reference component
    j. scales[j] holds the three per-mode least-squares scalars mapping the
    estimated vectors onto the reference ones; cosines[j] the per-mode
    absolute cosine similarities of the matched pair.
    """

    permutation: np.ndarray
    scales: np.ndarray
    cosines: np.ndarray


def align_components(estimated: CPFactors, reference: CPFactors) -> Alignment:
    """Match components by maximum absolute cosine of the mode-1 vectors."""
    if estimated.dim != reference.dim:
        raise ShapeError(
            f"mode sizes differ: estimated {estimated.dim}, reference {reference.dim}"
        )
    if estimated.rank != reference.rank:
        raise ShapeError(
            f"ranks differ: estimated {estimated.rank}, reference {reference.rank}"
        )
    rank = reference.rank
    est1, ref1 = estimated.mode1, reference.mode1
    sim = np.zeros((rank, rank))
    for j in range(rank):
        for i in range(rank):
            denom = np.linalg.norm(ref1[:, j]) * np.linalg.norm(est1[:, i])
            sim[j, i] = (
                abs(float(ref1[:, j] @ est1[:, i])) / denom if denom > 0.0 else 0.0
            )
    permutation = np.full(rank, -1, dtype=np.int64)
    available = sim.copy()
    for _ in range(rank):
        j, i = np.unravel_index(np.argmax(available), available.shape)
        permutation[j] = i
        available[j, :] = -1.0
        available[:, i] = -1.0

    est_modes = (estimated.mode1, estimated.mode2, estimated.mode3)
    ref_modes = (reference.mode1, reference.mode2, reference.mode3)
    scales = np.zeros((rank, 3))
    cosines = np.zeros((rank, 3))
    for j in range(rank):
        i = permutation[j]
        for m in range(3):
            est = est_modes[m][:, i]
            ref = ref_modes[m][:, j]
            denom = float(est @ est)
            scales[j, m] = float(ref @ est) / denom if denom > 0.0 else 0.0
            norms = np.linalg.norm(est) * np.linalg.norm(ref)
            cosines[j, m] = abs(float(ref @ est)) / norms if norms > 0.0 else 0.0
    return Alignment(permutation, scales, cosines)
