"""Synthetic regime-switching streams and the persistence forecast baseline."""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, ScenarioError, WindowLengthError
from .syslin import TimeDelaySystem, Trajectory, simulate_delayed


@dataclass(frozen=True)
class InputDistribution:
    """Zero-mean iid input law: gaussian, uniform, or rademacher."""

    kind: str
    scale: float = 1.0

    def __post_init__(self):
        if self.kind not in ("gaussian", "uniform", "rademacher"):
            raise ScenarioError(f"unknown input distribution {self.kind!r}")
        scale = self.scale
        number = isinstance(scale, numbers.Real) and not isinstance(scale, bool)
        if self.kind != "rademacher" and not (number and 0.0 < scale < math.inf):
            raise ScenarioError(
                f"{self.kind} parameter must be a positive finite number, got {scale!r}"
            )

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
        # a float count fails only inside numpy, and a bool is an int to Python
        for name in ("length", "seed"):
            if type(getattr(self, name)) is not int:
                raise ScenarioError(f"{name} must be an int, got {getattr(self, name)!r}", name)
        if self.length < 1:
            raise ScenarioError(f"length must be positive, got {self.length}", "length")
        regimes = tuple(self.regimes)
        if not regimes:
            raise ScenarioError("at least one regime is required", "regimes")
        d = regimes[0].output_dim
        dc = regimes[0].input_dim
        for i, regime in enumerate(regimes):
            if regime.output_dim != d or regime.input_dim != dc:
                raise ScenarioError(
                    f"regime {i + 1} has dims ({regime.output_dim}, {regime.input_dim}), "
                    f"expected ({d}, {dc}) shared by all regimes",
                    "regimes", i,
                )
        schedule = tuple((int(t), int(r)) for t, r in self.schedule)
        if not schedule or schedule[0][0] != 0:
            raise ScenarioError("schedule must start at time 0", "schedule", 0)
        for j in range(1, len(schedule)):
            if schedule[j][0] < schedule[j - 1][0]:
                raise ScenarioError("schedule change points must be sorted", "schedule", j)
        for j, (t, r) in enumerate(schedule):
            if not 1 <= r <= len(regimes):
                raise ScenarioError(f"schedule refers to unknown regime {r}", "schedule", j)
            if not 0 <= t < self.length:
                raise ScenarioError(f"change point {t} lies outside the stream", "schedule", j)
        noise = self.obs_noise_std
        # NaN fails a sign check too, and would then add no noise unnoticed
        if isinstance(noise, bool) or not (isinstance(noise, (int, float)) and noise < math.inf):
            raise ScenarioError(f"obs_noise_std must be finite, got {noise!r}", "obs_noise_std")
        if noise < 0.0:
            raise ScenarioError("obs_noise_std cannot be negative", "obs_noise_std")
        if self.seed < 0:
            raise ScenarioError(f"seed must be non-negative, got {self.seed}", "seed")
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


def persistence_baseline(window: Trajectory, horizon: int) -> np.ndarray:
    """Repeat the last observed output for every forecast step."""
    if len(window) == 0:
        raise WindowLengthError("window must contain at least one output")
    if horizon < 1:
        raise ConfigError(f"horizon must be >= 1, got {horizon}")
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

