"""Kalman filtering as a linear map, window scoring and forecasting.

With a zero prior mean, the filter over a window of T steps is linear in the
window. Stack the window as z = [y_0, u_0, y_1, u_1, ...], of length
T·(d+dc); then the one-step predictions and the last filtered mean are
M @ z for a matrix M, the model's filter map, that depends only on the
model, the noise and T (Anderson & Moore 1979, ch. 4 and 6). Its first T·d
rows give the predictions, step by step, and its last n rows the final
filtered mean.

`kalman_forward` builds the maps of a list of models, with the models on a
leading axis, in two loops over the steps. The first is the covariance
recursion alone, one output at a time; one scan of its innovation
variances then raises at the first one outside (0, inf). From the finished
gains, each step's closed-loop products are formed for every step at once,
and the second loop stacks the filtered mean map of every step, one product
per step. The prediction rows, the final mean and each step's largest
entry are read off that stack, and one scan of the steps' cancellation
refuses a map whose entries float64 cannot hold. `filter_window` applies
one map to a window, one matrix-vector product, and raises at the first
step whose result is not finite.
`window_error` and `forecast` read what it returns, and `select_regime`
scores a batch of maps it is handed and returns the winner's trace, so the
caller can forecast from it without filtering again. Only `kalman_forward`
reads a model; everything after it reads maps and windows.

The forecast is linear too: from the state after the window, the model's
open-loop response map over L steps (`syslin.response_maps`) gives the
next L outputs and the state after them in one product, so `forecast`
takes one product per L steps of horizon and steps no model in Python.
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
from .syslin import DelayFreeModel, Trajectory, padded_stack, step_count

# A build step whose largest entry is smaller than the largest term it sums
# by more than this factor keeps fewer than 42 of float64's 52 bits, and
# `kalman_forward` refuses the map. The engine's maps stay near 2^7.
MAX_CANCELLATION = 2.0**10


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
            number = isinstance(value, (int, float)) and not isinstance(value, bool)
            if not (number and 0.0 < value < math.inf):
                raise ConfigError(f"{name} must be positive and finite, got {value!r}")


@dataclass(frozen=True)
class FilterTrace:
    """One model's filter map applied to a window of T steps: the one-step
    predictions, which `window_error` reads, and the filtered mean at the
    last step, which `forecast` advances."""

    one_step_predictions: np.ndarray  # (T, d)
    final_mean: np.ndarray            # (n,)


def kalman_forward(
    models: Sequence[DelayFreeModel], steps: int, noise: NoiseSpec
) -> list[np.ndarray]:
    """The filter maps of the models over windows of `steps` steps, built
    together as one batch.

    The models are zero-padded by `syslin.padded_stack`; the padded states
    get exactly zero gains, so their rows of the mean map stay zero. The
    build runs two loops over the steps.

    The first is the covariance recursion alone. Each step predicts the
    covariance, then corrects it with one output at a time:
    k_i = P c_i / s_i, s_i = c_i P c_i + obs_var (Anderson & Moore 1979,
    ch. 6). Its gains and innovation variances are all the mean map needs.

    Correcting a mean with outputs 0 ... d-1 in turn multiplies it by
    G_t = (I - k_{d-1} c_{d-1}) ... (I - k_0 c_0) and adds the gain columns
    K_t, of which column i is (I - k_{d-1} c_{d-1}) ... (I - k_{i+1}
    c_{i+1}) k_i. These products are formed for every step at once, in d
    batched passes over the steps. The filtered mean map of step t, X_t,
    a map of z, then is F_t X_{t-1}, F_t = G_t A, plus G_t B in the columns
    of u_{t-1} and K_t in those of y_t, with X_0 = K_0 in the columns of
    y_0. The second loop stacks X_t for every step, one product F_t X_{t-1}
    per step; the G_t B and K_t blocks are written before it. The map is
    read off the stack: the prediction rows of step t >= 1 are
    (C A) X_{t-1}, plus C B in the columns of u_{t-1}, those of step 0 are
    zero, and the final mean is X_{T-1}. Model r's map is a view of rows
    :T*d + n_r of its slice of the batch. The maps of a batch are not
    bitwise those of each model built alone, so a caller that must
    reproduce a map rebuilds the same batch.

    s is at least obs_var > 0 in exact arithmetic. The first s outside
    (0, inf), of the lowest-indexed model that has one, raises
    ConditioningError for s <= 0 or NumericalError for a non-finite s, each
    naming its step, before the mean map is built. A covariance that goes
    non-finite carries on as NaN or inf into the next step's s, so numpy's
    overflow and invalid-value warnings are silenced.

    An entry summed from terms far larger than itself holds only their
    rounding, and a map built from such entries disagrees with the per-step
    filter in its leading digits. So each step's largest entry, max|X_t|
    from two reductions over the stack, is held against a bound on the
    largest term the per-step filter sums: a_norm max|X_{t-1}| + max|B|
    from predicting, plus max|k| max|c_i X| from each correction, with
    c_i X bounded by prediction row i and the corrections before it. The
    prediction rows' terms, C times that bound on the predicted map, are
    held against the largest prediction, as `window_error` reads the rows
    together. The first step of the lowest-indexed model whose ratio
    exceeds MAX_CANCELLATION raises ConditioningError naming the step.
    """
    a, b, c = padded_stack(models, "kalman_forward")
    steps = step_count(steps, "a filter map")
    (count, d, n), dc = c.shape, b.shape[2]
    width = d + dc
    a_t = a.transpose(0, 2, 1)
    c_cols = [c[:, i, :, None] for i in range(d)]
    c_rows = [c[:, i, None, :] for i in range(d)]
    gamma = noise.process_var * np.eye(n)
    obs_var = noise.obs_var

    innovations = np.empty((steps, d, count))
    gains = np.empty((steps, d, count, n))
    cov_pred = np.broadcast_to(noise.prior_var * np.eye(n), (count, n, n))
    with np.errstate(over="ignore", invalid="ignore"):
        for t in range(steps):
            if t > 0:
                cov_pred = a @ cov @ a_t + gamma
            cov = 0.5 * (cov_pred + cov_pred.transpose(0, 2, 1))
            for i, (c_col, c_row) in enumerate(zip(c_cols, c_rows)):
                pc = cov @ c_col
                # s and k are written into their records in place
                s = np.add(c_row @ pc, obs_var, out=innovations[t, i, :, None, None])
                k = np.divide(pc, s, out=gains[t, i, :, :, None])
                cov = cov - k * pc.transpose(0, 2, 1)
            cov = 0.5 * (cov + cov.transpose(0, 2, 1))
    valid = (innovations > 0.0) & (innovations < math.inf)
    if not valid.all():
        r = int(np.argmin(valid.all(axis=(0, 1))))
        first = int(np.argmin(valid[:, :, r].ravel()))
        t, s = first // d, float(innovations[:, :, r].flat[first])
        if math.isfinite(s):
            raise ConditioningError(f"innovation variance {s} <= 0 at step {t}")
        raise NumericalError(f"non-finite innovation at step {t}", step=t)

    # the stack holds X_t at [:, t]; as (count, steps, n, steps, width) its
    # block [:, t, :, j] is X_t's columns of y_j and u_j
    stack = np.zeros((count, steps, n, steps * width))
    blocks = stack.reshape(count, steps, n, steps, width)
    maps = np.zeros((count, steps * d + n, steps * width))
    predictions = maps[:, : steps * d].reshape(count, steps, d, steps * width)
    diagonal = np.arange(steps)
    now, before = diagonal[1:], diagonal[:-1]
    with np.errstate(over="ignore", invalid="ignore"):
        # [G_t | K_t] of every step, one output at a time, the later on the left
        closed = np.zeros((steps, count, n, n + d))
        closed[..., :n] = np.eye(n)
        for i, c_row in enumerate(c_rows):
            corrected = closed[..., : n + i]
            corrected -= gains[:, i, :, :, None] * (c_row @ corrected)
            closed[..., n + i] = gains[:, i]
        closed_loop = closed[..., :n] @ a
        blocks[:, diagonal, :, diagonal, :d] = closed[..., n:]
        blocks[:, now, :, before, d:] = closed[1:, ..., :n] @ b
        for t in range(1, steps):
            # X_{t-1} reads z up to y_{t-1}
            reach = (t - 1) * width + d
            np.matmul(closed_loop[t], stack[:, t - 1, :, :reach], out=stack[:, t, :, :reach])
        np.matmul((c @ a)[:, None], stack[:, :-1], out=predictions[:, 1:])
        predictions.reshape(count, steps, d, steps, width)[:, now, :, before, d:] = c @ b
        maps[:, steps * d :] = stack[:, -1]
        top = np.maximum(stack.max(axis=(2, 3)), -stack.min(axis=(2, 3))).T
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        # bounds on the largest term each step sums, as the docstring says:
        # |A X| <= a_norm max|X|, predicted bounds the predicted map, c_x[i]
        # the row c_i X that correction i reads
        a_norm = np.abs(a).sum(axis=2).max(axis=1)
        b_max = np.abs(b).max(axis=(1, 2), initial=0.0)
        c_norm = np.abs(c).sum(axis=2).max(axis=1)
        rows = np.maximum(predictions.max(axis=3), -predictions.min(axis=3)).transpose(1, 2, 0)
        k_max = np.abs(gains).max(axis=3)
        c_k = np.abs(gains.transpose(0, 2, 1, 3) @ c.transpose(0, 2, 1)).transpose(0, 3, 2, 1)
        predicted = np.zeros((steps, count))
        predicted[1:] = a_norm * top[:-1] + b_max
        terms = predicted.copy()
        c_x = np.empty((d, steps, count))
        for i in range(d):
            # correction j < i changed c_i X by c_i k_j (e_{y_tj} - c_j X)
            c_x[i] = rows[:, i] + sum(c_k[:, i, j] * (c_x[j] + 1.0) for j in range(i))
            terms += k_max[:, i] * c_x[i]
        cancellation = np.stack(
            [terms / top, c_norm * predicted / rows.max(axis=(0, 1))], axis=1
        )
    # 0/0 is NaN, a step with no terms, and passes
    lost = cancellation > MAX_CANCELLATION
    if lost.any():
        r = int(np.argmax(lost.any(axis=(0, 1))))
        t = int(np.argmax(lost[:, :, r].any(axis=1)))
        # the largest ratio past the bound; another may be NaN
        ratio = float(cancellation[t, :, r][lost[t, :, r]].max())
        raise ConditioningError(
            f"filter map cancels at step {t}: its terms reach {ratio:.3g} times its largest entry"
        )
    return [maps[r, : steps * d + model.state_dim] for r, model in enumerate(models)]


def filter_window(filter_map: np.ndarray, window: Trajectory) -> FilterTrace:
    """A model's filter over the window: its map times the stacked window.

    filter_map is a model's map from `kalman_forward` for windows of this
    length, shape (T*d + n, T*(d+dc)): the window fixes T, d and dc, and
    the rows past T*d the order n >= 1. Any other shape raises ShapeError.
    Every value of the window must be finite, u_{T-1} too, which the map
    multiplies by zero: 0 * NaN is NaN, so one non-finite value makes every
    result non-finite. A non-finite result raises
    NumericalError naming the first step of the window that holds a
    non-finite value, or else the first step whose prediction is
    non-finite, or else the last step, whose filtered mean is.
    """
    y = window.outputs
    (steps, d), dc = y.shape, window.input_dim
    if filter_map.ndim != 2 or filter_map.shape[0] <= steps * d or (
        filter_map.shape[1] != steps * (d + dc)
    ):
        raise ShapeError(
            f"filter map has shape {filter_map.shape}, which is no map of a model with "
            f"{d} outputs and {dc} inputs over a {steps}-step window"
        )
    z = np.concatenate([y, window.inputs[:steps]], axis=1).ravel()
    with np.errstate(over="ignore", invalid="ignore"):
        result = filter_map @ z
    predictions, final_mean = result[: steps * d].reshape(steps, d), result[steps * d :]
    if not np.isfinite(result).all():
        data = np.isfinite(z.reshape(steps, -1)).all(axis=1)
        if not data.all():
            step = int(np.argmin(data))
            raise NumericalError(f"non-finite window value at step {step}", step=step)
        finite = np.isfinite(predictions).all(axis=1)
        if not finite.all():
            step = int(np.argmin(finite))
            raise NumericalError(f"non-finite prediction at step {step}", step=step)
        raise NumericalError(f"non-finite filter state at step {steps - 1}", step=steps - 1)
    return FilterTrace(predictions, final_mean)


def window_error(window: Trajectory, trace: FilterTrace) -> float:
    """Mean Euclidean one-step prediction error of a filter trace over the
    window it was run on.

    The mean (rather than a raw sum) keeps the value comparable across
    window lengths, so a fit threshold on it is length independent.
    """
    errors = np.linalg.norm(window.outputs - trace.one_step_predictions, axis=1)
    return float(errors.mean())


def select_regime(
    filter_maps: Sequence[np.ndarray], window: Trajectory
) -> tuple[int, float, FilterTrace]:
    """Index, window error and filter trace of the map with the lowest
    window error; ties keep the lowest index.

    Each map, one model's from `kalman_forward`, is applied to the window
    once, and the winner's trace lets the caller forecast without filtering
    again.
    """
    if len(filter_maps) == 0:
        raise EmptyDatabaseError("cannot select a regime from an empty model database")
    traces = [filter_window(filter_map, window) for filter_map in filter_maps]
    errors = [window_error(window, trace) for trace in traces]
    best = int(np.argmin(errors))
    return best, float(errors[best]), traces[best]


def forecast(
    response_map: np.ndarray, window: Trajectory, future_inputs, trace: FilterTrace
) -> np.ndarray:
    """Multi-step prediction anchored at the filter's final state, one row
    per future input.

    trace is this model's `filter_window` on this window. Its final mean is
    the state estimate at the last window index, and it already conditions
    on every output of the window. The forecast is the model's open-loop
    run from that mean over the last window input and then the future
    inputs, without the run's first output, which is the window's last
    step. response_map is this model's open-loop map over some L >= 1
    steps (`syslin.response_maps`), shape (L*d + n, n + L*dc), and the run
    takes it in blocks of L steps: each is one product of the whole map
    with the block's state and inputs, and its state rows start the next
    block. Output t of the run reads its inputs before t only, through
    exactly zero entries otherwise, so the last future input, which no row
    reads, is left out and the run zero-padded past it. Every block has the
    same shapes whatever the horizon, so the first h rows of a forecast are
    bitwise the h-step forecast. A future input that is not finite would
    reach every row of its block through those zeros, so it is refused
    before any product, with a NumericalError naming the first row that
    reads it; over- or underflow in the products gives non-finite rows,
    which the caller checks.
    """
    (steps, d), (n,), dc = window.outputs.shape, trace.final_mean.shape, window.inputs.shape[1]
    if trace.one_step_predictions.shape != (steps, d):
        raise ShapeError(
            f"trace holds predictions of shape {trace.one_step_predictions.shape}, expected "
            f"{(steps, d)} for this window"
        )
    length = (response_map.shape[0] - n) // d
    if length < 1 or response_map.shape != (length * d + n, n + length * dc):
        raise ShapeError(
            f"response map has shape {response_map.shape}, which is no model of order {n} "
            f"with {d} outputs and {dc} inputs over one or more steps"
        )
    future = np.asarray(future_inputs, dtype=np.float64)
    if future.ndim != 2 or future.shape[0] < 1 or future.shape[1] != dc:
        raise ShapeError(f"future inputs must have shape (h >= 1, {dc}), got {future.shape}")
    horizon = future.shape[0]
    # the run's h + 1 outputs read its first h inputs
    blocks = horizon // length + 1
    inputs = np.zeros((blocks, length * dc))
    run = inputs.reshape(-1, dc)
    run[0] = window.inputs[steps - 1]
    run[1:horizon] = future[: horizon - 1]
    if not np.isfinite(inputs).all():
        step = int(np.argmin(np.isfinite(run).all(axis=1)))
        read = f"future input {step - 1}" if step else "the last window input"
        raise NumericalError(
            f"non-finite forecast at step {step}: it reads {read}, which is not finite",
            step=step,
        )
    outputs = np.empty((blocks, length * d))
    state = trace.final_mean
    for block, block_inputs in enumerate(inputs):
        result = response_map @ np.concatenate([state, block_inputs])
        outputs[block], state = result[: length * d], result[length * d :]
    return outputs.reshape(-1, d)[1 : horizon + 1]
