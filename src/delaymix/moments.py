"""Incremental construction of the order-3 system tensor.

The system tensor summarizes higher-order input-output moments of the
stream. For a sub-window start tau and lags (k1, k2, k3), three output-input
pairs are formed at times

    t1 = tau + k1,              paired with u(tau)
    t2 = tau + k1 + k2 + 1,     paired with u(tau + k1 + 1)
    t3 = tau + k1 + k2 + k3 + 2, paired with u(tau + k1 + k2 + 2)

so each pair spans a gap of exactly k1, k2, k3 steps. Each pair is grouped
into a single vector m(j) = vec(y(t_j) u(t~_j)^T) of length p = d * dc, and
the rank-one cube of the three vectors is added into the tensor block
indexed by (k1, k2, k3). Mode axis i of the block runs over m(i), so block
k of a mode-1 factor carries the k-step impulse response and the leading
zero blocks of a delayed system survive in the factors.

Storage is a dense D x D x D array with D = 2 s d dc, independent of the
stream length.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

import numpy as np

from .errors import (
    CapacityError,
    EmptyTensorError,
    ShapeError,
    WindowLengthError,
)
from .syslin import Trajectory

DEFAULT_MODE_CAP = 256


@dataclass(frozen=True)
class MomentConfig:
    """Sizing of the moment tensor.

    d and dc are the output/input channel counts, s is the maximum lag
    parameter. The lag count is k_max = 2 s (the realization step consumes
    2 s impulse-response blocks), the pair dimension is p = d * dc, and the
    tensor mode size is D = k_max * p. forgetting is the per-window decay
    factor applied to previously accumulated mass (1.0 keeps everything).
    """

    d: int
    dc: int
    s: int
    forgetting: float = 1.0

    def __post_init__(self):
        if self.d < 1 or self.dc < 1 or self.s < 1:
            raise ValueError(
                f"d, dc and s must be positive, got d={self.d} dc={self.dc} s={self.s}"
            )
        if not 0.0 < self.forgetting <= 1.0:
            raise ValueError(f"forgetting must lie in (0, 1], got {self.forgetting}")

    @property
    def k_max(self) -> int:
        return 2 * self.s

    @property
    def p(self) -> int:
        return self.d * self.dc

    @property
    def mode_dim(self) -> int:
        return self.k_max * self.p

    @property
    def min_window(self) -> int:
        """Shortest window granting one admissible tau for every lag triplet."""
        return 3 * self.k_max + 3


class SystemTensor:
    """Dense order-3 moment tensor and its forgetting-discounted
    contribution count, the weight used to form the normalized view."""

    __slots__ = ("data", "weight", "config")

    def __init__(self, data: np.ndarray, weight: float, config: MomentConfig):
        dim = config.mode_dim
        if data.shape != (dim, dim, dim):
            raise ShapeError(
                f"tensor data must have shape {(dim, dim, dim)}, got {data.shape}"
            )
        self.data = data
        self.weight = float(weight)
        self.config = config


def new_tensor(config: MomentConfig, mode_cap: int = DEFAULT_MODE_CAP) -> SystemTensor:
    """Allocate a zero tensor for the given configuration."""
    dim = config.mode_dim
    if dim > mode_cap:
        raise CapacityError(
            f"mode size {dim} exceeds the cap {mode_cap}; reduce s, d or dc"
        )
    return SystemTensor(np.zeros((dim, dim, dim)), 0.0, config)


def _pair_products(y: np.ndarray, u: np.ndarray, config: MomentConfig) -> np.ndarray:
    """pairs[k-1, t] = vec(y(t+k) u(t)^T) for every valid start t."""
    length = y.shape[0]
    pairs = np.zeros((config.k_max, length, config.p))
    for k in range(1, config.k_max + 1):
        count = length - k
        if count <= 0:
            continue
        outer = y[k : k + count, :, None] * u[:count, None, :]
        pairs[k - 1, :count] = outer.reshape(count, config.p)
    return pairs


def accumulate_window(tensor: SystemTensor, window: Trajectory) -> SystemTensor:
    """The tensor with one data window folded in; the argument is not
    mutated.

    Existing mass is decayed by the forgetting factor once per call, then
    every admissible (k1, k2, k3, tau) combination contributes one rank-one
    term to its lag block.
    """
    cfg = tensor.config
    y = window.outputs
    length = y.shape[0]
    if length < cfg.min_window:
        raise WindowLengthError(
            f"window length {length} is too short; need at least {cfg.min_window} "
            f"(= 3 * k_max + 3) so every lag triplet has an admissible start"
        )
    if y.shape[1] != cfg.d:
        raise ShapeError(f"window outputs have {y.shape[1]} channels, expected {cfg.d}")
    u = window.inputs[:length]
    if u.shape[1] != cfg.dc:
        raise ShapeError(f"window inputs have {u.shape[1]} channels, expected {cfg.dc}")

    pairs = _pair_products(y, u, cfg)
    # a new array leaves the argument untouched; times 1.0 changes no bit
    data = tensor.data * cfg.forgetting

    k_max, p = cfg.k_max, cfg.p
    blocks = data.reshape(k_max, p, k_max, p, k_max, p)
    count = 0
    for k1, k2, k3 in product(range(1, k_max + 1), repeat=3):
        n_tau = length - (k1 + k2 + k3 + 2)
        if n_tau <= 0:
            continue
        taus = np.arange(n_tau)
        m1 = pairs[k1 - 1, taus]
        m2 = pairs[k2 - 1, taus + k1 + 1]
        m3 = pairs[k3 - 1, taus + k1 + k2 + 2]
        blocks[k1 - 1, :, k2 - 1, :, k3 - 1, :] += np.einsum(
            "ta,tb,tc->abc", m1, m2, m3
        )
        count += n_tau
    return SystemTensor(data, tensor.weight * cfg.forgetting + count, cfg)


def normalized_view(tensor: SystemTensor) -> np.ndarray:
    """Tensor divided by the discounted contribution count. Does not mutate."""
    if tensor.weight == 0:
        raise EmptyTensorError("tensor holds no accumulated samples yet")
    return tensor.data / tensor.weight
