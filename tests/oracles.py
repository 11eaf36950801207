"""Reference implementations the tests compare the package against, the
helpers that build their inputs, and the tolerance of the comparison.

Each oracle is written apart from the code it checks, as plain loops with
no shared precomputation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from delaymix.cpd import CPFactors
from delaymix.datagen import random_stable_system
from delaymix.errors import ConditioningError, ConfigError, NumericalError, ShapeError
from delaymix.filtering import filter_window, kalman_forward
from delaymix.moments import MomentConfig
from delaymix.syslin import (
    DelayFreeModel,
    MarkovSequence,
    TimeDelaySystem,
    Trajectory,
    embed_delay,
    response_maps,
    simulate_delay_free,
)

# The filter map sums the window's terms in another order than the per-step
# recursion, so the two agree to a tolerance, not bitwise.
FILTER_RTOL = 1e-12


def assert_close(got, want, rtol=FILTER_RTOL):
    """got equals want to rtol relative to want's largest magnitude: a
    one-step prediction can cancel to near zero, and its own relative error
    then says nothing about the filter."""
    np.testing.assert_allclose(got, want, rtol=rtol, atol=rtol * np.abs(want).max())


def response_alone(model, steps):
    """The model's open-loop response map over `steps` steps, built in a
    batch of its own."""
    [response_map] = response_maps([model], steps)
    return response_map


def least_squares_gain(model, window) -> float:
    """The scalar g minimizing ||y - g p||^2 over the window, where p is the
    model's zero-state response to the window inputs, run step by step; 1.0
    when p vanishes (||p||^2 < 1e-12) or g is 0."""
    steps = window.outputs.shape[0]
    predicted = simulate_delay_free(model, window.inputs[:steps]).outputs
    denom = float(np.sum(predicted * predicted))
    if denom < 1e-12:
        return 1.0
    scale = float(np.sum(window.outputs * predicted) / denom)
    return 1.0 if scale == 0.0 else scale


def filter_alone(model, window, noise):
    """The model's filter map, built in a batch of its own, applied to the
    window."""
    [filter_map] = kalman_forward([model], window.outputs.shape[0], noise)
    return filter_window(filter_map, window)


def random_stable_model(
    rng, state_dim, output_dim, input_dim, spectral_radius=0.9
) -> DelayFreeModel:
    """A delay-free model drawn as `random_stable_system` draws one."""
    return embed_delay(
        random_stable_system(
            rng, state_dim, output_dim, input_dim, delay=0, spectral_radius=spectral_radius
        )
    )


def factors_from_components(triples) -> CPFactors:
    """CP factors whose component r is the vector triple triples[r]."""
    return CPFactors(*(np.column_stack([t[mode] for t in triples]) for mode in range(3)))


def markov_parameters_free(model: DelayFreeModel, horizon: int) -> MarkovSequence:
    """Impulse response of a delay-free model, blocks C A^(j-1) B, one
    matrix power per block."""
    if horizon < 1:
        raise ConfigError(f"horizon must be at least 1, got {horizon}")
    blocks = np.zeros((horizon, model.output_dim, model.input_dim))
    power = np.eye(model.state_dim)
    for j in range(1, horizon + 1):
        blocks[j - 1] = model.output_map @ power @ model.input_map
        power = model.transition @ power
    return MarkovSequence(blocks)


def markov_parameters_delayed(sys: TimeDelaySystem, horizon: int) -> MarkovSequence:
    """Impulse response of a delayed system: tau zero blocks, then C A^(j-tau-1) B."""
    if horizon < 1:
        raise ConfigError(f"horizon must be at least 1, got {horizon}")
    blocks = np.zeros((horizon, sys.output_dim, sys.input_dim))
    if horizon > sys.delay:
        free = DelayFreeModel(sys.transition, sys.input_map, sys.output_map)
        blocks[sys.delay :] = markov_parameters_free(free, horizon - sys.delay).blocks
    return MarkovSequence(blocks)


def embedded_state(sys: TimeDelaySystem, x0=None, prehistory=None) -> np.ndarray:
    """Initial state of embed_delay(sys) matching simulate_delayed(sys, ., x0,
    prehistory): the state followed by the tau prehistory inputs, oldest first."""
    x = np.zeros(sys.state_dim) if x0 is None else np.asarray(x0, dtype=np.float64).ravel()
    if prehistory is None:
        prehistory = np.zeros((sys.delay, sys.input_dim))
    return np.concatenate([x, np.asarray(prehistory, dtype=np.float64).ravel()])


def oracle_moment_tensor(window: Trajectory, config: MomentConfig) -> np.ndarray:
    """Reference moment tensor built by plain nested loops.

    Mathematically identical to moments.accumulate_window starting from a
    zero tensor, with no shared precomputation or vectorized gathering, so
    it can serve as an independent oracle.
    """
    y = window.outputs
    length = y.shape[0]
    u = window.inputs[:length]
    if y.shape[1] != config.d or u.shape[1] != config.dc:
        raise ShapeError(
            f"window channels ({y.shape[1]}, {u.shape[1]}) do not match "
            f"config ({config.d}, {config.dc})"
        )
    k_max, p = config.k_max, config.p
    dim = config.mode_dim
    tensor = np.zeros((dim, dim, dim))
    for k1 in range(1, k_max + 1):
        for k2 in range(1, k_max + 1):
            for k3 in range(1, k_max + 1):
                for tau in range(length):
                    t3 = tau + k1 + k2 + k3 + 2
                    if t3 > length - 1:
                        break
                    m1 = np.outer(y[tau + k1], u[tau]).ravel()
                    m2 = np.outer(y[tau + k1 + k2 + 1], u[tau + k1 + 1]).ravel()
                    m3 = np.outer(y[t3], u[tau + k1 + k2 + 2]).ravel()
                    cube = np.einsum("a,b,c->abc", m1, m2, m3)
                    s1 = slice((k1 - 1) * p, k1 * p)
                    s2 = slice((k2 - 1) * p, k2 * p)
                    s3 = slice((k3 - 1) * p, k3 * p)
                    tensor[s1, s2, s3] += cube
    return tensor


def per_step_checked_forward(model, window, noise):
    """Reference forward pass in one loop, testing the innovation variance of
    every output and the filtered mean at the end of every step. The filter
    map's one-step predictions and final mean must match it to
    FILTER_RTOL, and a map build must raise its error on a zero window,
    where only the covariance recursion can fail.

    Returns the filtered means, filtered covariances, predicted means,
    predicted covariances, one-step predictions and gains. A non-finite
    covariance is not tested: it makes the next step's innovation variance
    non-finite, and at the last step nothing reads it.
    """
    a, b, c = model.transition, model.input_map, model.output_map
    n, d = model.state_dim, model.output_dim
    y, u = window.outputs, window.inputs
    steps = y.shape[0]
    gamma = noise.process_var * np.eye(n)
    filtered_means = np.empty((steps, n))
    filtered_covs = np.empty((steps, n, n))
    predicted_means = np.empty((steps, n))
    predicted_covs = np.empty((steps, n, n))
    predictions = np.empty((steps, d))
    gains = np.empty((steps, d, n))
    mean_pred = np.zeros(n)
    cov_pred = noise.prior_var * np.eye(n)
    with np.errstate(over="ignore", invalid="ignore"):
        for t in range(steps):
            if t > 0:
                mean_pred = a @ mean + b @ u[t - 1]
                cov_pred = a @ cov @ a.T + gamma
            cov_pred = 0.5 * (cov_pred + cov_pred.T)
            mean, cov = mean_pred, cov_pred
            for i, c_i in enumerate(c):
                pc = cov @ c_i
                s = c_i @ pc + noise.obs_var
                if not math.isfinite(s):
                    raise NumericalError(f"non-finite innovation at step {t}", step=t)
                if s <= 0.0:
                    raise ConditioningError(f"innovation variance {s} <= 0 at step {t}")
                k = pc / s
                mean = mean + k * (y[t, i] - c_i @ mean)
                cov = cov - k[:, None] * pc
                gains[t, i] = k
            cov = 0.5 * (cov + cov.T)
            if not np.all(np.isfinite(mean)):
                raise NumericalError(f"non-finite filter state at step {t}", step=t)
            predicted_means[t] = mean_pred
            predicted_covs[t] = cov_pred
            filtered_means[t] = mean
            filtered_covs[t] = cov
            predictions[t] = c @ mean_pred
    return filtered_means, filtered_covs, predicted_means, predicted_covs, predictions, gains


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
