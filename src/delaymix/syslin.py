"""Linear time-delay systems and their delay-free realizations.

Value types for the identification pipeline (delayed systems, delay-free
state-space models, Markov parameter sequences, trajectories) together with
the per-step simulation the generator runs, the batched open-loop response
maps the engine reads, delay embedding, and delay readout from
spectral-norm profiles.

All operations here are pure functions of their arguments; the dataclasses
are treated as immutable after construction.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ConfigError, DataError, NumericalError, ShapeError

# A spectral-norm profile entry below this fraction of the peak counts as
# part of the delay.
DELAY_THRESHOLD = 0.1


def _matrix(value, name: str) -> np.ndarray:
    try:
        mat = np.atleast_2d(np.asarray(value, dtype=np.float64))
    except (TypeError, ValueError):
        raise ShapeError(f"{name} must be a rectangular array of numbers, got {value!r}") from None
    if mat.ndim != 2:
        raise ShapeError(f"{name} must be a 2-D matrix, got {mat.ndim} dimensions")
    return mat


def _state_vector(value, dim: int, name: str) -> np.ndarray:
    """A length-dim state; None stands for the zero state."""
    if value is None:
        return np.zeros(dim)
    vec = np.asarray(value, dtype=np.float64).ravel()
    if vec.shape[0] != dim:
        raise ShapeError(f"{name} must have length {dim}, got {vec.shape[0]}")
    return vec


def _input_array(value, input_dim: int, name: str) -> np.ndarray:
    """Coerce a time-major input sequence to shape (T, input_dim)."""
    arr = np.asarray(value, dtype=np.float64)
    if arr.ndim == 0:
        arr = arr.reshape(1, 1)
    if arr.ndim == 1:
        if input_dim != 1:
            raise ShapeError(
                f"{name} is 1-D but the system has {input_dim} input channels"
            )
        arr = arr.reshape(-1, 1)
    if arr.ndim != 2 or arr.shape[1] != input_dim:
        raise ShapeError(
            f"{name} must have shape (T, {input_dim}), got {arr.shape}"
        )
    return arr


@dataclass(frozen=True)
class _StateSpace:
    """Shared A/B/C validation and dimensions of the two system types.

    transition is A (k x k), input_map is B (k x dc), output_map is C (d x k).
    Each is finite; a non-finite one raises ConfigError naming it."""

    transition: np.ndarray
    input_map: np.ndarray
    output_map: np.ndarray

    def __post_init__(self):
        a = _matrix(self.transition, "transition")
        b = _matrix(self.input_map, "input_map")
        c = _matrix(self.output_map, "output_map")
        if a.shape[0] != a.shape[1]:
            raise ShapeError(f"transition must be square, got {a.shape}")
        k = a.shape[0]
        if k < 1:
            raise ShapeError("state dimension must be at least 1")
        if b.shape[0] != k:
            raise ShapeError(
                f"input_map has {b.shape[0]} rows, state dimension is {k}"
            )
        if c.shape[1] != k:
            raise ShapeError(
                f"output_map has {c.shape[1]} columns, state dimension is {k}"
            )
        for name, mat in (("transition", a), ("input_map", b), ("output_map", c)):
            if not np.isfinite(mat).all():
                raise ConfigError(f"{name} holds non-finite values")
        object.__setattr__(self, "transition", a)
        object.__setattr__(self, "input_map", b)
        object.__setattr__(self, "output_map", c)

    @property
    def state_dim(self) -> int:
        return self.transition.shape[0]

    @property
    def input_dim(self) -> int:
        return self.input_map.shape[1]

    @property
    def output_dim(self) -> int:
        return self.output_map.shape[0]

    def spectral_radius(self) -> float:
        return float(np.max(np.abs(np.linalg.eigvals(self.transition))))


@dataclass(frozen=True)
class TimeDelaySystem(_StateSpace):
    """One regime's dynamics: x(t+1) = A x(t) + B u(t - delay), y(t) = C x(t),
    with the integer input lag delay = tau >= 0."""

    delay: int = 0

    def __post_init__(self):
        super().__post_init__()
        # ints, numpy integers and integral floats; a bool is no step count
        delay = self.delay
        integral = isinstance(delay, numbers.Integral) or (
            isinstance(delay, numbers.Real) and float(delay).is_integer()
        )
        if isinstance(delay, bool) or not integral or delay < 0:
            raise ConfigError(f"delay must be a non-negative integer, got {delay!r}")
        object.__setattr__(self, "delay", int(delay))

    def is_stable(self) -> bool:
        return self.spectral_radius() < 1.0


@dataclass(frozen=True)
class DelayFreeModel(_StateSpace):
    """Standard state-space model x(t+1) = A x(t) + B u(t), y(t) = C x(t)."""


@dataclass(frozen=True)
class MarkovSequence:
    """Ordered impulse-response blocks; blocks[j] is the step j+1 response.
    Non-finite blocks raise NumericalError: NaN fails every comparison, so
    a degeneracy test would take a NaN sequence for an all-zero one."""

    blocks: np.ndarray  # (K, d, dc)

    def __post_init__(self):
        arr = np.asarray(self.blocks, dtype=np.float64)
        if arr.ndim == 1:
            arr = arr.reshape(-1, 1, 1)
        if arr.ndim != 3:
            raise ShapeError(f"blocks must stack to (K, d, dc), got shape {arr.shape}")
        if arr.shape[0] < 1:
            raise ShapeError("a Markov sequence needs at least one block")
        if not np.isfinite(arr).all():
            raise NumericalError(f"the {arr.shape[0]} Markov blocks hold non-finite values")
        object.__setattr__(self, "blocks", arr)

    @property
    def horizon(self) -> int:
        return self.blocks.shape[0]

    @property
    def output_dim(self) -> int:
        return self.blocks.shape[1]

    @property
    def input_dim(self) -> int:
        return self.blocks.shape[2]


@dataclass
class Trajectory:
    """Time-aligned outputs (T, d) and inputs (T or longer, dc).

    Inputs may extend past the outputs (future inputs for forecasting).
    regime_labels, when present, are 1-based regime indices per output step.
    """

    outputs: np.ndarray
    inputs: np.ndarray
    regime_labels: np.ndarray | None = None

    def __post_init__(self):
        try:
            y = np.asarray(self.outputs, dtype=np.float64)
            u = np.asarray(self.inputs, dtype=np.float64)
        except (TypeError, ValueError) as err:
            raise DataError(f"outputs and inputs must be numeric arrays: {err}") from None
        if y.ndim == 1:
            y = y.reshape(-1, 1)
        if u.ndim == 1:
            u = u.reshape(-1, 1)
        if y.ndim != 2 or u.ndim != 2:
            raise ShapeError(
                "outputs and inputs must be 1-D or 2-D time-major arrays "
                "(steps x channels)"
            )
        if u.shape[0] < y.shape[0]:
            raise ShapeError(
                f"inputs cover {u.shape[0]} steps but outputs cover {y.shape[0]}"
            )
        self.outputs = y
        self.inputs = u
        if self.regime_labels is not None:
            labels = np.asarray(self.regime_labels, dtype=np.int64).ravel()
            if labels.shape[0] != y.shape[0]:
                raise ShapeError(
                    f"regime_labels has length {labels.shape[0]}, outputs {y.shape[0]}"
                )
            self.regime_labels = labels

    def __len__(self) -> int:
        return self.outputs.shape[0]

    @property
    def output_dim(self) -> int:
        return self.outputs.shape[1]

    @property
    def input_dim(self) -> int:
        return self.inputs.shape[1]

    def window(self, start: int, stop: int) -> "Trajectory":
        """Slice [start, stop) of the trajectory."""
        labels = None if self.regime_labels is None else self.regime_labels[start:stop]
        return Trajectory(self.outputs[start:stop], self.inputs[start:stop], labels)


def _delay_free_part(sys: TimeDelaySystem) -> DelayFreeModel:
    """The same (A, B, C) without the input lag."""
    return DelayFreeModel(sys.transition, sys.input_map, sys.output_map)


def _prehistory(sys: TimeDelaySystem, prehistory) -> np.ndarray:
    """The tau inputs before time 0, oldest first; zeros when not given."""
    if prehistory is None:
        return np.zeros((sys.delay, sys.input_dim))
    pre = _input_array(prehistory, sys.input_dim, "prehistory")
    if pre.shape[0] != sys.delay:
        raise ShapeError(
            f"prehistory must supply exactly {sys.delay} input vectors, got {pre.shape[0]}"
        )
    return pre


def simulate_delayed(sys: TimeDelaySystem, inputs, x0=None, prehistory=None) -> Trajectory:
    """Run the delayed recursion over an input sequence.

    A delay is an input shift: the delay-free model (A, B, C) driven by
    u(t - delay), that is by the prehistory followed by the inputs, cut to
    the input length. prehistory supplies u(t) for t in [-delay, -1],
    oldest first; it defaults to zeros. Outputs have the same length as the
    inputs.
    """
    u_seq = _input_array(inputs, sys.input_dim, "inputs")
    shifted = np.concatenate([_prehistory(sys, prehistory), u_seq])[: u_seq.shape[0]]
    free = simulate_delay_free(_delay_free_part(sys), shifted, x0)
    return Trajectory(free.outputs, u_seq)


def simulate_delay_free(model: DelayFreeModel, inputs, x0=None) -> Trajectory:
    """Run the standard LTI recursion x <- A x + B u, emitting y = C x first.

    One step per input, in Python: the generator's recursion. The engine
    reads the same responses from `response_maps`.
    """
    u_seq = _input_array(inputs, model.input_dim, "inputs")
    steps = u_seq.shape[0]
    if steps < 1:
        raise ShapeError("inputs must contain at least one step")
    x = _state_vector(x0, model.state_dim, "x0")
    a, b, c = model.transition, model.input_map, model.output_map
    y_seq = np.empty((steps, model.output_dim))
    for t in range(steps):
        y_seq[t] = c @ x
        x = a @ x + b @ u_seq[t]
    return Trajectory(y_seq, u_seq)


def step_count(steps, what: str) -> int:
    """steps as an int; a bool, a non-integer or a count below 1 raises ShapeError."""
    if isinstance(steps, bool) or not isinstance(steps, numbers.Integral) or steps < 1:
        raise ShapeError(f"{what} needs an integer step count of at least 1, got {steps!r}")
    return int(steps)


def padded_stack(
    models: Sequence[DelayFreeModel], caller: str
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The models' A, B and C on a leading axis, each zero-padded to the
    largest order n: (count, n, n), (count, n, dc) and (count, d, n). A
    padded state's rows and columns are zero, so it stays uncoupled. Models
    of unequal output or input dims raise ShapeError naming the caller."""
    if len({(model.output_dim, model.input_dim) for model in models}) != 1:
        raise ShapeError(f"{caller} needs one or more models of equal output and input dims")
    d, dc = models[0].output_dim, models[0].input_dim
    n = max(model.state_dim for model in models)
    a = np.zeros((len(models), n, n))
    b = np.zeros((len(models), n, dc))
    c = np.zeros((len(models), d, n))
    for r, model in enumerate(models):
        k = model.state_dim
        a[r, :k, :k] = model.transition
        b[r, :k] = model.input_map
        c[r, :, :k] = model.output_map
    return a, b, c


def response_maps(models: Sequence[DelayFreeModel], steps: int) -> np.ndarray:
    """The open-loop response maps of the models over `steps` steps, built
    in one batched pass with no loop over the steps.

    From a state x_0, the recursion of `simulate_delay_free` over inputs
    u_0 ... u_{T-1}, T = steps, is linear in v = [x_0; u_0; ...; u_{T-1}]:
    y_t = C A^t x_0 + sum_{i<t} C A^(t-1-i) B u_i, and the state after the
    last step is x_T = A^T x_0 + sum_i A^(T-1-i) B u_i. A model's map holds
    y_0 ... y_{T-1} in its first T*d rows and x_T in its last n, so its
    shape is (T*d + n, n + T*dc), and the u columns of its output rows are
    block Toeplitz in the Markov blocks C A^j B. The map sums in another
    order than the recursion, so the two agree to rounding.

    The models are zero-padded as `padded_stack` pads, and the result
    stacks the padded maps, (count, T*d + n, n + T*dc); a padded state's
    rows and columns are zero, so model r's map is batch[r] without them.
    Block j of a stack holds [C; I] A^j for j = 0 ... T, by doubling: once
    blocks 0 ... m are known, blocks 1 ... m times A^m, the identity rows of
    block m, give blocks m+1 ... 2m. One product with B then gives every
    C A^j B and A^j B.
    """
    a, b, c = padded_stack(models, "response_maps")
    steps = step_count(steps, "a response map")
    (count, d, n), dc = c.shape, b.shape[2]
    rows, size = steps * d, d + n
    # powers[:, j] = [C; I] A^j: C A^j in its first d rows, A^j in its last n
    powers = np.zeros((count, steps + 1, size, n))
    powers[:, 0, :d] = c
    powers[:, 0, d:] = np.eye(n)
    powers[:, 1, :d] = c @ a
    powers[:, 1, d:] = a
    flat = powers.reshape(count, (steps + 1) * size, n)
    known = 1
    while known < steps:
        more = min(known, steps - known)
        np.matmul(
            flat[:, size : (more + 1) * size],
            powers[:, known, d:],
            out=flat[:, (known + 1) * size : (known + more + 1) * size],
        )
        known += more
    # blocks[:, j] = [C A^j B; A^j B]
    blocks = (flat[:, : steps * size] @ b).reshape(count, steps, size, dc)
    maps = np.zeros((count, rows + n, n + steps * dc))
    maps[:, :rows, :n].reshape(count, steps, d, n)[...] = powers[:, :steps, :d]
    maps[:, rows:, :n] = powers[:, steps, d:]
    # x_T reads u_i through A^(T-1-i) B
    maps[:, rows:, n:].reshape(count, n, steps, dc)[...] = blocks[:, ::-1, d:].transpose(0, 2, 1, 3)
    # y_t reads u_i through C A^(t-1-i) B for i < t. Row a of output t is a
    # window of T*dc values of a row of the Markov blocks in reverse order,
    # then T*dc zeros, starting (T-1-t)*dc in: a read-only view whose
    # constructor refuses a window past its buffer
    reverse = np.zeros((count, d, (2 * steps - 1) * dc))
    markov = blocks[:, : steps - 1, :d]
    reverse[:, :, : (steps - 1) * dc].reshape(count, d, steps - 1, dc)[...] = markov[
        :, ::-1
    ].transpose(0, 2, 1, 3)
    reverse.flags.writeable = False
    s_r, s_a, s_c = reverse.strides
    toeplitz = np.ndarray(
        (count, steps, d, steps * dc), np.float64, reverse, (steps - 1) * dc * s_c,
        (s_r, -dc * s_c, s_a, s_c),
    )
    maps[:, :rows, n:].reshape(count, steps, d, steps * dc)[...] = toeplitz
    return maps


def embed_delay(sys: TimeDelaySystem) -> DelayFreeModel:
    """Absorb the input delay into an augmented state.

    The augmented state stacks the original state with a buffer of the past
    tau inputs. The transition feeds the oldest buffered input into the
    state update, shifts the buffer, and the input map writes the current
    input into the newest slot. state_dim becomes k + tau * dc and the
    Markov parameters match the delayed system's at every horizon.
    """
    tau, k, dc, d = sys.delay, sys.state_dim, sys.input_dim, sys.output_dim
    if tau == 0:
        return _delay_free_part(sys)
    n = k + tau * dc
    a_aug = np.zeros((n, n))
    a_aug[:k, :k] = sys.transition
    a_aug[:k, k : k + dc] = sys.input_map
    for i in range(tau - 1):
        row = k + i * dc
        col = k + (i + 1) * dc
        a_aug[row : row + dc, col : col + dc] = np.eye(dc)
    b_aug = np.zeros((n, dc))
    b_aug[k + (tau - 1) * dc :, :] = np.eye(dc)
    c_aug = np.zeros((d, n))
    c_aug[:, :k] = sys.output_map
    return DelayFreeModel(a_aug, b_aug, c_aug)


def spectral_norm_profile(seq: MarkovSequence) -> np.ndarray:
    """Largest singular value per block, normalized so the peak equals 1.

    An all-zero sequence yields all zeros.
    """
    norms = np.array(
        [np.linalg.svd(block, compute_uv=False)[0] for block in seq.blocks]
    )
    peak = norms.max()
    if peak <= 0.0:
        return np.zeros_like(norms)
    return norms / peak


def detect_delay(profile) -> int:
    """Count leading profile entries strictly below DELAY_THRESHOLD.

    Stops at the first entry at or above the threshold. On an estimated
    profile this count is the input delay of the underlying system.
    """
    count = 0
    for value in np.asarray(profile, dtype=np.float64).ravel():
        if value < DELAY_THRESHOLD:
            count += 1
        else:
            break
    return count
