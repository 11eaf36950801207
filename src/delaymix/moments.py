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

One batched matrix product folds a window in (MTTKRP batching, Kolda &
Bader 2009). The pair products of every lag are laid out (lag, channel,
time): one product of a lag-shifted view of the transposed, zero-padded
outputs with the transposed inputs, so every elementwise product runs
along a contiguous row of time. m1 and m2 for every (k1, k2) are read-only
strided views of that array, and m3 of its one row-major (time, lag,
channel) copy. Over the starts tau, the product z of m1 and m2, laid out
(k1, k2, a, b, tau), is contracted with m3 (all k3) in one matmul whose
batch runs over (k1, k2). No mask is needed for the ragged starts
tau < len - (k1+k2+k3+2): the lag-k pair product is zero from time
len - k on, so m3 is zero there.

Storage is a dense D x D x D array with D = 2 s d dc, independent of the
stream length. The fold's working memory is z, k_max^2 p^2 len floats
(640 KB at D = 32 and len = 78), freed before the new tensor is
allocated.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, EmptyTensorError, NumericalError, ShapeError, WindowLengthError
from .syslin import Trajectory

DEFAULT_MODE_CAP = 256  # largest mode size D engine_init accepts


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
        # a bool is an int to Python, and a float size fails only when the
        # tensor is allocated
        if not all(type(value) is int for value in (self.d, self.dc, self.s)):
            raise ConfigError(
                f"d, dc and s must be ints, got d={self.d!r} dc={self.dc!r} s={self.s!r}"
            )
        if isinstance(self.forgetting, bool) or not isinstance(self.forgetting, (int, float)):
            raise ConfigError(f"forgetting must be a number, got {self.forgetting!r}")
        if self.d < 1 or self.dc < 1 or self.s < 1:
            raise ConfigError(
                f"d, dc and s must be positive, got d={self.d} dc={self.dc} s={self.s}"
            )
        if not 0.0 < self.forgetting <= 1.0:
            raise ConfigError(f"forgetting must lie in (0, 1], got {self.forgetting}")

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
    contribution count, the weight used to form the normalized view. The
    data is finite: non-finite data raises NumericalError."""

    __slots__ = ("data", "weight", "config")

    def __init__(self, data: np.ndarray, weight: float, config: MomentConfig):
        dim = config.mode_dim
        if data.shape != (dim, dim, dim):
            raise ShapeError(
                f"tensor data must have shape {(dim, dim, dim)}, got {data.shape}"
            )
        if not np.isfinite(data).all():
            raise NumericalError("tensor data holds non-finite values")
        self.data = data
        self.weight = float(weight)
        self.config = config


def new_tensor(config: MomentConfig) -> SystemTensor:
    """Allocate a zero tensor for the given configuration."""
    dim = config.mode_dim
    return SystemTensor(np.zeros((dim, dim, dim)), 0.0, config)


@np.errstate(over="ignore", invalid="ignore")
def accumulate_window(tensor: SystemTensor, window: Trajectory) -> SystemTensor:
    """The tensor with one data window folded in; the argument is not
    mutated.

    Existing mass is decayed by the forgetting factor once per call, then
    every admissible (k1, k2, k3, tau) combination contributes one rank-one
    term to its lag block (one batched product, see the module notes).
    Overflow warnings are silenced: products that overflow make non-finite
    data, which SystemTensor refuses, so the update commits nothing."""
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

    k_max, p, d = cfg.k_max, cfg.p, cfg.d
    # lag_t[k-1, (i, c), t] = y(t+k)_i u(t)_c, from a view of the transposed
    # y shifted by each lag over zero padding, so it is zero for
    # t >= len - k; the 2 k_max + 2 zero columns after the window are the
    # furthest the lagged views reach
    steps = length + 2 * k_max + 2
    y_t = np.zeros((d, length + k_max))
    y_t[:, :length] = y.T
    y_lag = np.ndarray((k_max, d, length), np.float64, y_t, 8, (8, y_t.strides[0], 8))
    lag_t = np.zeros((k_max, p, steps))
    np.multiply(y_lag[:, :, None, :], u.T, out=lag_t[:, :, :length].reshape(k_max, d, -1, length))
    # pairs[t, k-1] = lag_t[k-1, :, t], the row-major copy m3 reads
    pairs = np.ascontiguousarray(lag_t.transpose(2, 0, 1))
    # read-only views m2[k1-1, k2-1, b, t] = lag_t[k2-1, b, t + k1 + 1] and
    # m3[k1-1, k2-1, t] = pairs[t + k1 + k2 + 2] (flattened over (k3, c));
    # the ndarray constructor refuses a view that runs past its buffer
    lag_t.flags.writeable = pairs.flags.writeable = False
    lag, col = lag_t.strides[:2]
    m1 = lag_t[:, :, :length]  # (k1, a, t)
    m2 = np.ndarray((k_max, k_max, p, length), np.float64, lag_t, 16, (8, lag, col, 8))
    row = pairs.strides[0]
    m3 = np.ndarray(
        (k_max, k_max, length, k_max * p), np.float64, pairs, 4 * row, (row, row, row, 8)
    )
    # every product runs along a contiguous row of t
    z = m1[:, None, :, None, :] * m2[:, :, None, :, :]  # (k1, k2, a, b, t)
    # one GEMM per (k1, k2), ((a, b), t) @ (t, (k3, c))
    block = np.matmul(z.reshape(k_max, k_max, p * p, length), m3)  # (k1, k2, (a, b), (k3, c))
    # z is freed before the new tensor is allocated, so the fold peaks at
    # the larger of the two
    del z
    # a new array leaves the argument untouched; times 1.0 changes no bit
    data = tensor.data * cfg.forgetting
    lagged = data.reshape(k_max, p, k_max, p, -1)  # [k1-1, a, k2-1, b, (k3-1, c)]
    lagged += block.reshape(k_max, k_max, p, p, -1).swapaxes(1, 2)
    # length >= min_window admits every triplet: sum of len - (k1 + k2 + k3 + 2)
    count = k_max**3 * (length - 2) - 3 * k_max**3 * (k_max + 1) // 2
    return SystemTensor(data, tensor.weight * cfg.forgetting + count, cfg)


def normalized_view(tensor: SystemTensor) -> np.ndarray:
    """Tensor divided by the discounted contribution count. Does not mutate."""
    if tensor.weight == 0:
        raise EmptyTensorError("tensor holds no accumulated samples yet")
    return tensor.data / tensor.weight
