"""Kalman filtering, RTS smoothing, window scoring and forecasting.

A filter pass has two recursions, each written once. The covariance
recursion (`_covariance_pass`) is given the model, the noise and a step
count, never a window, so it cannot read data; it corrects with one output
at a time and yields every per-step, per-output gain. The mean recursion
(`_mean_pass`) runs over given gains and reads the data. `kalman_forward`
runs the first and then the second, and keeps the gains on its
`BeliefTrace`; `kalman_replay` runs the second alone over gains a full pass
left, so its means are bitwise that pass's. The covariance loop tests only
each innovation variance and the mean loop tests nothing; one scan of the
stored states after the mean recursion finds the first step whose state
went non-finite. `window_error` and `forecast` read the `MeanTrace` of a
pass already run, and `select_regime` returns the winner's trace so the
caller can forecast from it, and keep its gains, without filtering again.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ConditioningError, EmptyDatabaseError, NumericalError
from .syslin import DelayFreeModel, Trajectory, simulate_delay_free

JITTER = 1e-9


@dataclass(frozen=True)
class NoiseSpec:
    """Isotropic noise model for state inference.

    Process covariance is process_var * I, observation covariance is
    obs_var * I, and the prior is N(0, prior_var * I).
    """

    process_var: float = 1e-4
    obs_var: float = 1e-2
    prior_var: float = 1.0

    def __post_init__(self):
        for name in ("process_var", "obs_var", "prior_var"):
            value = getattr(self, name)
            if not value > 0.0:
                raise ValueError(f"{name} must be positive, got {value}")


@dataclass(frozen=True)
class MeanTrace:
    """Per-step means of one filter pass over a window (all length T): what
    `window_error` and `forecast` read."""

    filtered_means: np.ndarray      # (T, n)
    predicted_means: np.ndarray     # (T, n)
    one_step_predictions: np.ndarray  # (T, d)


@dataclass(frozen=True)
class BeliefTrace(MeanTrace):
    """A `kalman_forward` pass: the means, the covariances, and the gain
    k = P c_i / s each output i corrected with at each step."""

    filtered_covs: np.ndarray       # (T, n, n)
    predicted_covs: np.ndarray      # (T, n, n)
    gains: np.ndarray               # (T, d, n)


def _spd_solve(matrix: np.ndarray, rhs: np.ndarray, what: str, step: int):
    """Solve matrix @ x = rhs for symmetric positive definite matrix.

    A Cholesky factorization tests positive definiteness and `solve` gives
    the result. A matrix that fails the test is retried once with JITTER
    added to its diagonal, then raises ConditioningError. `rts_smoother` is
    the only caller.
    """
    sym = 0.5 * (matrix + matrix.T)
    if not (np.isfinite(sym).all() and np.isfinite(rhs).all()):
        raise NumericalError(f"non-finite {what} at step {step}", step=step)
    for candidate in (sym, sym + JITTER * np.eye(sym.shape[0])):
        try:
            np.linalg.cholesky(candidate)
        except np.linalg.LinAlgError:
            continue
        return np.linalg.solve(candidate, rhs)
    raise ConditioningError(f"{what} not positive definite after jitter at step {step}")


def _check_states(steps: int, *states: np.ndarray):
    """Raise NumericalError at the first of steps [0, steps) at which one of
    the per-step state arrays holds a non-finite value."""
    finite = np.ones(steps, dtype=bool)
    for state in states:
        finite &= np.isfinite(state[:steps]).all(axis=tuple(range(1, state.ndim)))
    if not finite.all():
        step = int(np.argmin(finite))
        raise NumericalError(f"non-finite filter state at step {step}", step=step)


def _covariance_pass(model: DelayFreeModel, steps: int, noise: NoiseSpec):
    """The covariance recursion over `steps` steps, one output at a time.

    Output i corrects with gain k = P c_i / s, s = c_i P c_i + obs_var.
    Returns the (steps, d, n) gains, the filtered and predicted (steps, n, n)
    covariances, the number of whole steps run, and the error of the first
    s outside (0, inf) or None: a NumericalError for a non-finite s, a
    ConditioningError for s <= 0. That s ends the pass, leaving its step's
    rows unwritten. A non-finite covariance carries on as NaN or inf, so
    numpy's overflow and invalid-value warnings are silenced.
    """
    a, c = model.transition, model.output_map
    n, d = model.state_dim, model.output_dim
    a_t = a.T
    c_rows = list(c)
    obs_var = noise.obs_var
    gamma = noise.process_var * np.eye(n)

    filtered_covs = np.empty((steps, n, n))
    predicted_covs = np.empty((steps, n, n))
    gains = np.empty((steps, d, n))

    cov_pred = noise.prior_var * np.eye(n)
    with np.errstate(over="ignore", invalid="ignore"):
        for t in range(steps):
            if t > 0:
                cov_pred = a @ cov @ a_t + gamma
            cov_pred = 0.5 * (cov_pred + cov_pred.T)
            cov = cov_pred
            for i, c_i in enumerate(c_rows):
                pc = cov @ c_i
                s = c_i @ pc + obs_var
                if not 0.0 < s < math.inf:
                    if math.isfinite(s):
                        error = ConditioningError(f"innovation variance {s} <= 0 at step {t}")
                    else:
                        error = NumericalError(f"non-finite innovation at step {t}", step=t)
                    return gains, filtered_covs, predicted_covs, t, error
                k = pc / s
                cov = cov - k[:, None] * pc
                gains[t, i] = k
            cov = 0.5 * (cov + cov.T)
            predicted_covs[t] = cov_pred
            filtered_covs[t] = cov
    return gains, filtered_covs, predicted_covs, steps, None


def _mean_pass(model: DelayFreeModel, window: Trajectory, gains: np.ndarray) -> MeanTrace:
    """The mean recursion over the first len(gains) steps of the window.

    The zero-mean prior plays the role of the first predicted state, so the
    first one-step prediction is zero; from t >= 1 the prediction uses the
    previous filtered state and the input at t-1. Each output i then
    corrects the mean with gains[t, i]. Only the window's channel count is
    checked; the callers scan the means it returns.
    """
    a, b, c = model.transition, model.input_map, model.output_map
    steps, n, d = gains.shape[0], model.state_dim, model.output_dim
    y = window.outputs
    if y.shape[1] != d:
        raise ValueError(f"window outputs have {y.shape[1]} channels, model emits {d}")
    c_rows = list(c)

    filtered_means = np.empty((steps, n))
    predicted_means = np.empty((steps, n))
    predictions = np.empty((steps, d))

    mean_pred = np.zeros(n)
    with np.errstate(over="ignore", invalid="ignore"):
        drives = [b @ u_t for u_t in window.inputs[: max(steps - 1, 0)]]
        for t, (y_t, k_t) in enumerate(zip(y[:steps].tolist(), gains)):
            if t > 0:
                mean_pred = a @ mean + drives[t - 1]
            mean = mean_pred
            for c_i, y_ti, k in zip(c_rows, y_t, k_t):
                mean = mean + k * (y_ti - c_i @ mean)
            predicted_means[t] = mean_pred
            filtered_means[t] = mean
            predictions[t] = c @ mean_pred
    return MeanTrace(filtered_means, predicted_means, predictions)


def kalman_forward(
    model: DelayFreeModel, window: Trajectory, noise: NoiseSpec
) -> BeliefTrace:
    """Forward pass: the covariance recursion, then the mean recursion over
    its gains, which the trace keeps for `kalman_replay`.

    The observation noise is obs_var * I, so each output corrects alone
    (Anderson & Moore 1979, ch. 6) and its innovation variance s is at least
    obs_var > 0 in exact arithmetic. The means are run up to the first s
    outside (0, inf), if any. One scan of the states up to there raises
    NumericalError at the first non-finite one; only then is the s error
    raised, with no jitter retry. Each failure names the step where the
    filter first went bad.
    """
    steps = window.outputs.shape[0]
    gains, filtered_covs, predicted_covs, stop, error = _covariance_pass(model, steps, noise)
    means = _mean_pass(model, window, gains[:stop])
    _check_states(stop, means.filtered_means, filtered_covs)
    if error is not None:
        raise error
    return BeliefTrace(
        **vars(means), filtered_covs=filtered_covs, predicted_covs=predicted_covs, gains=gains
    )


def kalman_replay(model: DelayFreeModel, window: Trajectory, gains: np.ndarray) -> MeanTrace:
    """The mean recursion alone, over given gains.

    gains is the `BeliefTrace.gains` of a `kalman_forward` pass of this
    model, with the same noise, over any window of this one's length: the
    covariance recursion never reads the data, and both functions run the
    same mean recursion, so the replay's means are bitwise that pass's on
    this window. It allocates no covariance. A non-finite filtered mean
    raises NumericalError naming the first step that holds one, as
    `kalman_forward` does.
    """
    expected = (window.outputs.shape[0], model.output_dim, model.state_dim)
    if gains.shape != expected:
        raise ValueError(
            f"gains have shape {gains.shape}, expected {expected} for this model and window"
        )
    trace = _mean_pass(model, window, gains)
    _check_states(expected[0], trace.filtered_means)
    return trace


def rts_smoother(model: DelayFreeModel, trace: BeliefTrace) -> np.ndarray:
    """Backward pass refining filtered means with future information.

    Returns the (T, n) smoothed means; the last equals the last filtered mean.
    """
    a = model.transition
    steps, n = trace.filtered_means.shape
    smoothed = np.empty((steps, n))
    smoothed[-1] = trace.filtered_means[-1]
    for t in range(steps - 2, -1, -1):
        # V(t) = P(t) A^T inv(P_pred(t+1)), computed via an SPD solve
        gain = _spd_solve(
            trace.predicted_covs[t + 1],
            a @ trace.filtered_covs[t],
            "predicted covariance",
            t + 1,
        ).T
        smoothed[t] = trace.filtered_means[t] + gain @ (
            smoothed[t + 1] - trace.predicted_means[t + 1]
        )
    return smoothed


def window_error(window: Trajectory, trace: MeanTrace) -> float:
    """Mean Euclidean one-step prediction error of a filter trace over the
    window it was run on.

    The mean (rather than a raw sum) keeps the value comparable across
    window lengths, so a fit threshold on it is length independent.
    """
    errors = np.linalg.norm(window.outputs - trace.one_step_predictions, axis=1)
    return float(errors.mean())


def select_regime(
    database: Sequence[DelayFreeModel], window: Trajectory, noise: NoiseSpec
) -> tuple[int, float, BeliefTrace]:
    """Index, window error and filter trace of the model with the lowest
    window error; ties keep the lowest index.

    Each model is filtered once; the returned trace lets the caller
    forecast from the winner without another pass.
    """
    if len(database) == 0:
        raise EmptyDatabaseError("cannot select a regime from an empty model database")
    traces = [kalman_forward(model, window, noise) for model in database]
    errors = [window_error(window, trace) for trace in traces]
    best = int(np.argmin(errors))
    return best, float(errors[best]), traces[best]


def forecast(
    model: DelayFreeModel, window: Trajectory, future_inputs, trace: MeanTrace
) -> np.ndarray:
    """Multi-step prediction anchored at the filter's final state.

    trace is a `kalman_forward` or `kalman_replay` pass of this model on
    this window. Its filtered mean at the final window index is the state
    estimate there; an RTS backward pass would return that same vector as
    its last smoothed mean, so none is run. Advancing it once with the final
    window input gives the state at the first forecast step, from which the
    delay-free recursion consumes the future inputs, emitting one output per
    step.
    """
    steps = window.outputs.shape[0]
    if trace.filtered_means.shape != (steps, model.state_dim):
        raise ValueError(
            f"trace holds filtered means of shape {trace.filtered_means.shape}, "
            f"expected {(steps, model.state_dim)} for this model and window"
        )
    a, b = model.transition, model.input_map
    state = a @ trace.filtered_means[-1] + b @ window.inputs[steps - 1]
    return simulate_delay_free(model, future_inputs, x0=state).outputs
