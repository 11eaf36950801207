"""Synthetic regime-switching streams and brute-force test oracles."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ScenarioError, ShapeError
from .moments import MomentConfig
from .syslin import DelayFreeModel, TimeDelaySystem, Trajectory, simulate_delayed


@dataclass(frozen=True)
class InputDistribution:
    """Zero-mean iid input law: gaussian, uniform, or rademacher."""

    kind: str
    scale: float = 1.0

    def __post_init__(self):
        if self.kind not in ("gaussian", "uniform", "rademacher"):
            raise ValueError(f"unknown input distribution {self.kind!r}")
        if self.kind != "rademacher" and not self.scale > 0.0:
            raise ValueError(f"scale must be positive, got {self.scale}")

    @classmethod
    def gaussian(cls, sigma: float) -> "InputDistribution":
        return cls("gaussian", sigma)

    @classmethod
    def uniform(cls, half_width: float) -> "InputDistribution":
        return cls("uniform", half_width)

    @classmethod
    def rademacher(cls) -> "InputDistribution":
        return cls("rademacher")

    def sample(self, rng: np.random.Generator, shape) -> np.ndarray:
        if self.kind == "gaussian":
            return rng.normal(0.0, self.scale, shape)
        if self.kind == "uniform":
            return rng.uniform(-self.scale, self.scale, shape)
        return rng.integers(0, 2, shape).astype(np.float64) * 2.0 - 1.0

    def variance(self) -> float:
        if self.kind == "gaussian":
            return self.scale**2
        if self.kind == "uniform":
            return self.scale**2 / 3.0
        return 1.0


@dataclass(frozen=True)
class ScenarioSpec:
    """A regime-switching stream recipe.

    schedule lists (start_time, regime_index) change points with 1-based
    regime indices, sorted and starting at time 0. Each change to another
    regime starts a segment from a zero latent state whose delayed inputs
    reach back across the switch; an entry naming the regime already active
    changes nothing, and of two entries for one time the last wins.
    Observation noise (std obs_noise_std) is added to the outputs only.
    """

    regimes: tuple[TimeDelaySystem, ...]
    length: int
    schedule: tuple[tuple[int, int], ...] = ((0, 1),)
    input_dist: InputDistribution = field(default_factory=InputDistribution.rademacher)
    obs_noise_std: float = 0.0
    seed: int = 0

    def __post_init__(self):
        regimes = tuple(self.regimes)
        if not regimes:
            raise ScenarioError("at least one regime is required")
        d = regimes[0].output_dim
        dc = regimes[0].input_dim
        for i, regime in enumerate(regimes):
            if regime.output_dim != d or regime.input_dim != dc:
                raise ScenarioError(
                    f"regime {i + 1} has dims ({regime.output_dim}, {regime.input_dim}), "
                    f"expected ({d}, {dc}) shared by all regimes"
                )
        schedule = tuple((int(t), int(r)) for t, r in self.schedule)
        if not schedule or schedule[0][0] != 0:
            raise ScenarioError("schedule must start at time 0")
        times = [t for t, _ in schedule]
        if times != sorted(times):
            raise ScenarioError("schedule change points must be sorted")
        for t, r in schedule:
            if not 1 <= r <= len(regimes):
                raise ScenarioError(f"schedule refers to unknown regime {r}")
            if not 0 <= t < self.length:
                raise ScenarioError(f"change point {t} lies outside the stream")
        if self.length < 1:
            raise ScenarioError(f"length must be positive, got {self.length}")
        if self.obs_noise_std < 0.0:
            raise ScenarioError("obs_noise_std cannot be negative")
        object.__setattr__(self, "regimes", regimes)
        object.__setattr__(self, "schedule", schedule)

    @property
    def output_dim(self) -> int:
        return self.regimes[0].output_dim

    @property
    def input_dim(self) -> int:
        return self.regimes[0].input_dim


def generate(spec: ScenarioSpec) -> Trajectory:
    """Simulate the scheduled regimes over iid inputs; deterministic per seed."""
    for i, regime in enumerate(spec.regimes):
        if not regime.is_stable():
            raise ScenarioError(
                f"regime {i + 1} is unstable (spectral radius "
                f"{regime.spectral_radius():.3f} >= 1)"
            )
    rng = np.random.default_rng(spec.seed)
    length, d, dc = spec.length, spec.output_dim, spec.input_dim
    inputs = spec.input_dist.sample(rng, (length, dc))
    # the last entry for a time wins; naming the active regime starts nothing
    segments: list[tuple[int, int]] = []
    for start, regime in dict(spec.schedule).items():
        if not segments or segments[-1][1] != regime:
            segments.append((start, regime))
    lead = max(regime.delay for regime in spec.regimes)
    padded = np.concatenate([np.zeros((lead, dc)), inputs])  # u(t) is padded[lead + t]
    labels = np.empty(length, dtype=np.int64)
    outputs = np.empty((length, d))
    stops = [start for start, _ in segments[1:]] + [length]
    for (start, regime), stop in zip(segments, stops):
        sys = spec.regimes[regime - 1]
        prehistory = padded[lead + start - sys.delay : lead + start]
        segment = simulate_delayed(sys, inputs[start:stop], prehistory=prehistory)
        outputs[start:stop] = segment.outputs
        labels[start:stop] = regime
    if spec.obs_noise_std > 0.0:
        outputs = outputs + rng.normal(0.0, spec.obs_noise_std, outputs.shape)
    return Trajectory(outputs, inputs, labels)


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


def persistence_baseline(window: Trajectory, horizon: int) -> np.ndarray:
    """Repeat the last observed output for every forecast step."""
    if len(window) == 0:
        raise ValueError("window must contain at least one output")
    if horizon < 1:
        raise ValueError(f"horizon must be >= 1, got {horizon}")
    return np.tile(window.outputs[-1], (horizon, 1))


def random_stable_system(
    rng: np.random.Generator,
    state_dim: int,
    output_dim: int,
    input_dim: int,
    delay: int = 0,
    spectral_radius: float = 0.9,
) -> TimeDelaySystem:
    """Draw a delayed system whose transition is rescaled to the target radius."""
    a = rng.standard_normal((state_dim, state_dim))
    radius = float(np.max(np.abs(np.linalg.eigvals(a))))
    if radius > 0.0:
        a *= spectral_radius / radius
    b = rng.standard_normal((state_dim, input_dim))
    c = rng.standard_normal((output_dim, state_dim))
    return TimeDelaySystem(a, b, c, delay=delay)


def random_stable_model(
    rng: np.random.Generator,
    state_dim: int,
    output_dim: int,
    input_dim: int,
    spectral_radius: float = 0.9,
) -> DelayFreeModel:
    """Draw a delay-free model with the same rescaling convention."""
    sys = random_stable_system(
        rng, state_dim, output_dim, input_dim, delay=0, spectral_radius=spectral_radius
    )
    return DelayFreeModel(sys.transition, sys.input_map, sys.output_map)
