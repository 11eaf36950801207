"""Kalman filtering, window scoring and forecasting.

A filter pass has two recursions, each written once. The covariance
recursion (`_covariance_pass`) is given the model, the noise and a step
count, never a window, so it cannot read data; it corrects with one output
at a time and yields every per-step, per-output gain, keeping its
covariance only as a loop local. The mean recursion (`_mean_pass`) runs
over given gains and reads the data. `kalman_forward` runs the first and
then the second; `kalman_replay` runs the second alone over gains a full
pass left, so its means are bitwise that pass's. Both return a
`FilterTrace`: the means and the gains they were corrected with. The
covariance loop tests only each innovation variance; every entry of the
covariance feeds it, so a covariance that goes non-finite fails the next
one. The mean loop tests nothing; one scan of the filtered means after the
mean recursion finds the first step whose state went non-finite.
`window_error` and `forecast` read the trace of a pass already run, and
`select_regime` returns the winner's trace so the caller can forecast from
it, and keep its gains, without filtering again.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import (
    ConditioningError,
    ConfigError,
    EmptyDatabaseError,
    NumericalError,
    ShapeError,
)
from .syslin import DelayFreeModel, Trajectory, simulate_delay_free


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
            if not 0.0 < value < math.inf:
                raise ConfigError(f"{name} must be positive and finite, got {value}")


@dataclass(frozen=True)
class FilterTrace:
    """One filter pass over a window of T steps: the per-step means, which
    `window_error` and `forecast` read, and the gain k = P c_i / s each
    output i corrected the mean with at each step, which `kalman_replay`
    reads."""

    filtered_means: np.ndarray      # (T, n)
    predicted_means: np.ndarray     # (T, n)
    one_step_predictions: np.ndarray  # (T, d)
    gains: np.ndarray               # (T, d, n)


def _check_states(filtered_means: np.ndarray):
    """Raise NumericalError at the first step whose filtered mean holds a
    non-finite value."""
    finite = np.isfinite(filtered_means).all(axis=1)
    if not finite.all():
        step = int(np.argmin(finite))
        raise NumericalError(f"non-finite filter state at step {step}", step=step)


def _covariance_pass(model: DelayFreeModel, steps: int, noise: NoiseSpec):
    """The covariance recursion over `steps` steps, one output at a time.

    Output i corrects with gain k = P c_i / s, s = c_i P c_i + obs_var.
    Returns the gains of the whole steps run, shape (run, d, n), and the
    error of the first s outside (0, inf) or None: a NumericalError for a
    non-finite s, a ConditioningError for s <= 0. That s ends the pass, so
    run < steps exactly when there is an error. A non-finite covariance
    carries on as NaN or inf into the next step's s, so numpy's overflow and
    invalid-value warnings are silenced.
    """
    a, c = model.transition, model.output_map
    n, d = model.state_dim, model.output_dim
    a_t = a.T
    c_rows = list(c)
    obs_var = noise.obs_var
    gamma = noise.process_var * np.eye(n)

    gains = np.empty((steps, d, n))
    cov_pred = noise.prior_var * np.eye(n)
    with np.errstate(over="ignore", invalid="ignore"):
        for t in range(steps):
            if t > 0:
                cov_pred = a @ cov @ a_t + gamma
            cov = 0.5 * (cov_pred + cov_pred.T)
            for i, c_i in enumerate(c_rows):
                pc = cov @ c_i
                s = c_i @ pc + obs_var
                if not 0.0 < s < math.inf:
                    if math.isfinite(s):
                        error = ConditioningError(f"innovation variance {s} <= 0 at step {t}")
                    else:
                        error = NumericalError(f"non-finite innovation at step {t}", step=t)
                    return gains[:t], error
                k = pc / s
                cov = cov - k[:, None] * pc
                gains[t, i] = k
            cov = 0.5 * (cov + cov.T)
    return gains, None


def _mean_pass(model: DelayFreeModel, window: Trajectory, gains: np.ndarray) -> FilterTrace:
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
        raise ShapeError(f"window outputs have {y.shape[1]} channels, model emits {d}")
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
    return FilterTrace(filtered_means, predicted_means, predictions, gains)


def kalman_forward(
    model: DelayFreeModel, window: Trajectory, noise: NoiseSpec
) -> FilterTrace:
    """Forward pass: the covariance recursion, then the mean recursion over
    its gains, which the trace keeps for `kalman_replay`.

    The observation noise is obs_var * I, so each output corrects alone
    (Anderson & Moore 1979, ch. 6) and its innovation variance s is at least
    obs_var > 0 in exact arithmetic. The means are run up to the first s
    outside (0, inf), if any. One scan of the means up to there raises
    NumericalError at the first non-finite one; only then is the s error
    raised. Each failure names the step where the filter first went bad. A
    covariance that goes non-finite fails the next step's s; at the last
    step nothing reads it, and the gains and means returned are finite.
    """
    gains, error = _covariance_pass(model, window.outputs.shape[0], noise)
    trace = _mean_pass(model, window, gains)
    _check_states(trace.filtered_means)
    if error is not None:
        raise error
    return trace


def kalman_replay(model: DelayFreeModel, window: Trajectory, gains: np.ndarray) -> FilterTrace:
    """The mean recursion alone, over given gains; the trace carries them.

    gains is the `FilterTrace.gains` of a `kalman_forward` pass of this
    model, with the same noise, over any window of this one's length: the
    covariance recursion never reads the data, and both functions run the
    same mean recursion, so the replay's means are bitwise that pass's on
    this window. A non-finite filtered mean raises NumericalError naming
    the first step that holds one, as `kalman_forward` does.
    """
    expected = (window.outputs.shape[0], model.output_dim, model.state_dim)
    if gains.shape != expected:
        raise ShapeError(
            f"gains have shape {gains.shape}, expected {expected} for this model and window"
        )
    trace = _mean_pass(model, window, gains)
    _check_states(trace.filtered_means)
    return trace


def window_error(window: Trajectory, trace: FilterTrace) -> float:
    """Mean Euclidean one-step prediction error of a filter trace over the
    window it was run on.

    The mean (rather than a raw sum) keeps the value comparable across
    window lengths, so a fit threshold on it is length independent.
    """
    errors = np.linalg.norm(window.outputs - trace.one_step_predictions, axis=1)
    return float(errors.mean())


def select_regime(
    database: Sequence[DelayFreeModel], window: Trajectory, noise: NoiseSpec
) -> tuple[int, float, FilterTrace]:
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
    model: DelayFreeModel, window: Trajectory, future_inputs, trace: FilterTrace
) -> np.ndarray:
    """Multi-step prediction anchored at the filter's final state.

    trace is a `kalman_forward` or `kalman_replay` pass of this model on
    this window. Its filtered mean at the final window index is the state
    estimate there, and it already conditions on every output of the
    window. Advancing it once with the final window input gives the state
    at the first forecast step, from which the delay-free recursion consumes
    the future inputs, emitting one output per step.
    """
    steps = window.outputs.shape[0]
    if trace.filtered_means.shape != (steps, model.state_dim):
        raise ShapeError(
            f"trace holds filtered means of shape {trace.filtered_means.shape}, "
            f"expected {(steps, model.state_dim)} for this model and window"
        )
    a, b = model.transition, model.input_map
    state = a @ trace.filtered_means[-1] + b @ window.inputs[steps - 1]
    return simulate_delay_free(model, future_inputs, x0=state).outputs
