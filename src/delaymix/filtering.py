"""Kalman filtering, RTS smoothing, window scoring and forecasting.

One forward pass per model and window carries all the scoring and
forecasting: `window_error` and `forecast` accept the `BeliefTrace` of a pass
already run, and `select_regime` returns the winner's trace so the caller can
forecast from it without filtering again.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy.linalg.lapack import dpotrf, dpotrs

from .errors import ConditioningError, EmptyDatabaseError, NumericalError
from .syslin import DelayFreeModel, Trajectory, _input_array

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
class BeliefTrace:
    """Per-step filter quantities over one window (all length T)."""

    filtered_means: np.ndarray      # (T, n)
    filtered_covs: np.ndarray       # (T, n, n)
    predicted_means: np.ndarray     # (T, n)
    predicted_covs: np.ndarray      # (T, n, n)
    gains: np.ndarray               # (T, n, d)
    one_step_predictions: np.ndarray  # (T, d)


@dataclass(frozen=True)
class SmoothedTrace:
    """Backward-pass state estimates; the final mean equals the filtered one."""

    smoothed_means: np.ndarray  # (T, n)
    smoother_gains: np.ndarray  # (T, n, n); the last entry is unused


def _spd_solve(matrix: np.ndarray, rhs: np.ndarray, what: str, step: int):
    """Solve matrix @ x = rhs for symmetric positive definite matrix.

    Calls LAPACK's Cholesky factorization and solve (potrf/potrs) directly,
    the same routines scipy's cho_factor/cho_solve dispatch to, without
    their per-call wrapper checks. A matrix that fails to factor is retried
    once with JITTER added to its diagonal.
    """
    sym = 0.5 * (matrix + matrix.T)
    if not (np.isfinite(sym).all() and np.isfinite(rhs).all()):
        raise NumericalError(f"non-finite {what} at step {step}", step=step)
    factor, info = dpotrf(sym, lower=1, clean=0)
    if info != 0:
        factor, info = dpotrf(sym + JITTER * np.eye(sym.shape[0]), lower=1, clean=0)
        if info != 0:
            raise ConditioningError(
                f"{what} not positive definite after jitter at step {step}"
            )
    solution, info = dpotrs(factor, rhs, lower=1)
    if info != 0:
        raise ValueError(f"illegal value in argument {-info} of LAPACK potrs")
    return solution


def kalman_forward(
    model: DelayFreeModel, window: Trajectory, noise: NoiseSpec
) -> BeliefTrace:
    """Forward pass: predict with the dynamics, correct with each output.

    The zero-mean prior plays the role of the first predicted state, so the
    first one-step prediction is zero; from t >= 1 the prediction uses the
    previous filtered state and the input at t-1.
    """
    a, b, c = model.transition, model.input_map, model.output_map
    n, d = model.state_dim, model.output_dim
    y = window.outputs
    steps = y.shape[0]
    if y.shape[1] != d:
        raise ValueError(f"window outputs have {y.shape[1]} channels, model emits {d}")
    u = window.inputs
    gamma = noise.process_var * np.eye(n)
    r_obs = noise.obs_var * np.eye(d)
    eye_n = np.eye(n)

    filtered_means = np.empty((steps, n))
    filtered_covs = np.empty((steps, n, n))
    predicted_means = np.empty((steps, n))
    predicted_covs = np.empty((steps, n, n))
    gains = np.empty((steps, n, d))
    predictions = np.empty((steps, d))

    mean = np.zeros(n)
    cov = noise.prior_var * eye_n
    # an overflow reaches the finiteness checks as inf and raises NumericalError
    with np.errstate(over="ignore"):
        for t in range(steps):
            if t == 0:
                mean_pred = mean
                cov_pred = cov
            else:
                mean_pred = a @ mean + b @ u[t - 1]
                cov_pred = a @ cov @ a.T + gamma
            cov_pred = 0.5 * (cov_pred + cov_pred.T)
            innovation_cov = c @ cov_pred @ c.T + r_obs
            gain = _spd_solve(innovation_cov, c @ cov_pred, "innovation covariance", t).T
            y_pred = c @ mean_pred
            mean = mean_pred + gain @ (y[t] - y_pred)
            cov = (eye_n - gain @ c) @ cov_pred
            cov = 0.5 * (cov + cov.T)
            if not (np.all(np.isfinite(mean)) and np.all(np.isfinite(cov))):
                raise NumericalError(f"non-finite filter state at step {t}", step=t)
            predicted_means[t] = mean_pred
            predicted_covs[t] = cov_pred
            gains[t] = gain
            filtered_means[t] = mean
            filtered_covs[t] = cov
            predictions[t] = y_pred
    return BeliefTrace(
        filtered_means, filtered_covs, predicted_means, predicted_covs, gains, predictions
    )


def rts_smoother(model: DelayFreeModel, trace: BeliefTrace) -> SmoothedTrace:
    """Backward pass refining filtered means with future information."""
    a = model.transition
    steps, n = trace.filtered_means.shape
    smoothed = np.empty((steps, n))
    gains = np.zeros((steps, n, n))
    smoothed[-1] = trace.filtered_means[-1]
    for t in range(steps - 2, -1, -1):
        # V(t) = P(t) A^T inv(P_pred(t+1)), computed via an SPD solve
        gain = _spd_solve(
            trace.predicted_covs[t + 1],
            a @ trace.filtered_covs[t],
            "predicted covariance",
            t + 1,
        ).T
        gains[t] = gain
        smoothed[t] = trace.filtered_means[t] + gain @ (
            smoothed[t + 1] - trace.predicted_means[t + 1]
        )
    return SmoothedTrace(smoothed, gains)


def window_error(
    model: DelayFreeModel,
    window: Trajectory,
    noise: NoiseSpec,
    trace: BeliefTrace | None = None,
) -> float:
    """Mean Euclidean one-step prediction error over the window.

    The mean (rather than a raw sum) keeps the value comparable across
    window lengths, so a fit threshold on it is length independent. Pass
    the `kalman_forward` trace of this model on this window as `trace` to
    score it without filtering again.
    """
    if trace is None:
        trace = kalman_forward(model, window, noise)
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
    errors = [
        window_error(model, window, noise, trace=trace)
        for model, trace in zip(database, traces)
    ]
    best = int(np.argmin(errors))
    return best, float(errors[best]), traces[best]


def forecast(
    model: DelayFreeModel,
    window: Trajectory,
    future_inputs,
    noise: NoiseSpec,
    trace: BeliefTrace | None = None,
) -> np.ndarray:
    """Multi-step prediction anchored at the filter's final state.

    The filtered mean at the final window index is the state estimate
    there; an RTS backward pass would return that same vector as its last
    smoothed mean, so none is run. Advancing it once with the final window
    input gives the state at the first forecast step. From there the
    deterministic recursion consumes the future inputs, emitting one output
    per step. Pass the `kalman_forward` trace of this model on this window
    as `trace` to skip the filter pass.
    """
    future = _input_array(future_inputs, model.input_dim, "future_inputs")
    horizon = future.shape[0]
    if horizon < 1:
        raise ValueError("future_inputs must contain at least one step")
    steps = window.outputs.shape[0]
    if trace is None:
        trace = kalman_forward(model, window, noise)
    elif trace.filtered_means.shape != (steps, model.state_dim):
        raise ValueError(
            f"trace holds filtered means of shape {trace.filtered_means.shape}, "
            f"expected {(steps, model.state_dim)} for this model and window"
        )
    a, b, c = model.transition, model.input_map, model.output_map
    state = a @ trace.filtered_means[-1] + b @ window.inputs[steps - 1]
    outputs = np.empty((horizon, model.output_dim))
    for i in range(horizon):
        outputs[i] = c @ state
        state = a @ state + b @ future[i]
    return outputs
