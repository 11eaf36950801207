"""Linear time-delay systems and their delay-free realizations.

Value types for the identification pipeline (delayed systems, delay-free
state-space models, Markov parameter sequences, trajectories) together with
simulation, impulse-response computation, delay embedding, and delay readout
from spectral-norm profiles.

All operations here are pure functions of their arguments; the dataclasses
are treated as immutable after construction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ShapeError


def _matrix(value, name: str) -> np.ndarray:
    mat = np.atleast_2d(np.asarray(value, dtype=np.float64))
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
    """

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
        if int(self.delay) != self.delay or self.delay < 0:
            raise ValueError(f"delay must be a non-negative integer, got {self.delay}")
        object.__setattr__(self, "delay", int(self.delay))

    def is_stable(self) -> bool:
        return self.spectral_radius() < 1.0


@dataclass(frozen=True)
class DelayFreeModel(_StateSpace):
    """Standard state-space model x(t+1) = A x(t) + B u(t), y(t) = C x(t)."""


@dataclass(frozen=True)
class MarkovSequence:
    """Ordered impulse-response blocks; blocks[j] is the step j+1 response."""

    blocks: np.ndarray  # (K, d, dc)

    def __post_init__(self):
        arr = np.asarray(self.blocks, dtype=np.float64)
        if arr.ndim == 1:
            arr = arr.reshape(-1, 1, 1)
        if arr.ndim != 3:
            raise ShapeError(f"blocks must stack to (K, d, dc), got shape {arr.shape}")
        if arr.shape[0] < 1:
            raise ShapeError("a Markov sequence needs at least one block")
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
        y = np.asarray(self.outputs, dtype=np.float64)
        u = np.asarray(self.inputs, dtype=np.float64)
        if y.ndim == 1:
            y = y.reshape(-1, 1)
        if u.ndim == 1:
            u = u.reshape(-1, 1)
        if y.ndim != 2 or u.ndim != 2:
            raise ShapeError("outputs and inputs must be 2-D time-major arrays")
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

    def window(self, start: int, stop: int, input_stop: int | None = None) -> "Trajectory":
        """Slice [start, stop) of the trajectory; inputs may extend further."""
        ustop = stop if input_stop is None else input_stop
        labels = None
        if self.regime_labels is not None:
            labels = self.regime_labels[start:stop]
        return Trajectory(self.outputs[start:stop], self.inputs[start:ustop], labels)


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
    """Run the standard LTI recursion x <- A x + B u, emitting y = C x first."""
    u_seq = _input_array(inputs, model.input_dim, "inputs")
    steps = u_seq.shape[0]
    if steps < 1:
        raise ValueError("inputs must contain at least one step")
    x = _state_vector(x0, model.state_dim, "x0")
    a, b, c = model.transition, model.input_map, model.output_map
    y_seq = np.empty((steps, model.output_dim))
    for t in range(steps):
        y_seq[t] = c @ x
        x = a @ x + b @ u_seq[t]
    return Trajectory(y_seq, u_seq)


def markov_parameters_delayed(sys: TimeDelaySystem, horizon: int) -> MarkovSequence:
    """Impulse response of a delayed system: tau zero blocks, then C A^(j-tau-1) B."""
    if horizon < 1:
        raise ValueError(f"horizon must be at least 1, got {horizon}")
    blocks = np.zeros((horizon, sys.output_dim, sys.input_dim))
    if horizon > sys.delay:
        free = markov_parameters_free(_delay_free_part(sys), horizon - sys.delay)
        blocks[sys.delay :] = free.blocks
    return MarkovSequence(blocks)


def markov_parameters_free(model: DelayFreeModel, horizon: int) -> MarkovSequence:
    """Impulse response of a delay-free model: blocks C A^(j-1) B."""
    if horizon < 1:
        raise ValueError(f"horizon must be at least 1, got {horizon}")
    blocks = np.zeros((horizon, model.output_dim, model.input_dim))
    power = np.eye(model.state_dim)
    for j in range(1, horizon + 1):
        blocks[j - 1] = model.output_map @ power @ model.input_map
        power = model.transition @ power
    return MarkovSequence(blocks)


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


def embedded_state(sys: TimeDelaySystem, x0=None, prehistory=None) -> np.ndarray:
    """Initial augmented state matching simulate_delayed(sys, ., x0, prehistory)."""
    x = _state_vector(x0, sys.state_dim, "x0")
    if sys.delay == 0:
        return x
    return np.concatenate([x, _prehistory(sys, prehistory).ravel()])


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


def detect_delay(profile, rel_threshold: float = 0.1) -> int:
    """Count leading profile entries strictly below rel_threshold.

    Stops at the first entry at or above the threshold. On an estimated
    profile this count is the input delay of the underlying system.
    """
    if not 0.0 < rel_threshold < 1.0:
        raise ValueError(f"rel_threshold must lie in (0, 1), got {rel_threshold}")
    count = 0
    for value in np.asarray(profile, dtype=np.float64).ravel():
        if value < rel_threshold:
            count += 1
        else:
            break
    return count
