"""Online estimation loop: accumulate moments, adapt models when the fit
degrades, select the active regime, and forecast.

Each update folds one window into the system tensor, scores the active
model's one-step fit on that window, and only when the fit error reaches
the threshold rho (or no model exists yet) re-decomposes the tensor, with
the previous factors as a warm start, and rebuilds the model database
wholesale. Memory is bounded by construction: one dense tensor plus at
most R models, regardless of how many updates run.
"""

from __future__ import annotations

import itertools
import json
import math
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field

import numpy as np

from .cpd import AlsOptions, CPFactors, cp_als
from .errors import (
    ColdStartError,
    ConfigError,
    DataError,
    DelayMixError,
    EngineStageError,
    ParseError,
    ShapeError,
)
from .filtering import NoiseSpec, forecast, kalman_forward, select_regime, window_error
from .moments import (
    DEFAULT_MODE_CAP,
    MomentConfig,
    SystemTensor,
    accumulate_window,
    new_tensor,
    normalized_view,
)
from .realization import RealizationOptions, realize_components
from .syslin import DelayFreeModel, MarkovSequence, Trajectory, simulate_delay_free

CHECKPOINT_VERSION = 4
# The state-inference noise model and the spectral radius realized models
# are clipped to; both are fixed parts of the pipeline, not settings.
NOISE = NoiseSpec()
STABILITY_MARGIN = 0.999
_SCALER_ARRAYS = ("out_mean", "out_std", "in_mean", "in_std")
_FACTOR_ARRAYS = ("mode1", "mode2", "mode3")


@dataclass(frozen=True)
class EngineConfig:
    """Everything one streaming run needs.

    l_c is the update window length, rho the fit threshold gating model
    adaptation, rank the number of CP components kept in the database.
    seed draws the ALS cold starts; warm_start controls whether later
    adaptations start from the previous factors instead. l_s is the horizon
    run_stream scores; it is never read by identification, and
    engine_update forecasts as many steps as it is given future inputs.
    """

    moment: MomentConfig
    rank: int
    rho: float
    l_c: int
    l_s: int
    seed: int = 0
    warm_start: bool = True


def default_config(
    d: int,
    dc: int,
    s: int = 3,
    rank: int = 2,
    rho: float = 0.7,
    l_c: int | None = None,
    l_s: int = 1,
    forgetting: float = 1.0,
    seed: int = 0,
    warm_start: bool = True,
) -> EngineConfig:
    """Convenience constructor with spec-consistent defaults."""
    moment = MomentConfig(d=d, dc=dc, s=s, forgetting=forgetting)
    if l_c is None:
        l_c = moment.min_window
    return EngineConfig(
        moment=moment,
        rank=rank,
        rho=rho,
        l_c=l_c,
        l_s=l_s,
        seed=seed,
        warm_start=warm_start,
    )


@dataclass
class ModelRecord:
    """One database entry: the model, its Markov estimate and provenance."""

    model: DelayFreeModel
    markov: MarkovSequence
    component_index: int
    b_scale: float = 1.0


@dataclass
class RegimeDatabase:
    """Current model set, the active choice, and the warm-start factors."""

    records: list[ModelRecord] = field(default_factory=list)
    active_index: int = -1
    last_factors: CPFactors | None = None

    def active(self) -> ModelRecord:
        return self.records[self.active_index]


@dataclass(frozen=True)
class Standardizer:
    """Per-channel affine scaling for engine-internal data.

    Scale factors are frozen from the first window so fit errors stay
    comparable against a fixed threshold. Channel means are refined as a
    running average over every window seen: the moment construction and the
    intercept-free model class both assume centered data, and a single
    window pins the means too loosely (the residual offset puts a floor
    under forecast accuracy that more data would never remove).
    """

    out_mean: np.ndarray
    out_std: np.ndarray
    in_mean: np.ndarray
    in_std: np.ndarray
    samples_seen: int = 0

    @classmethod
    def fit(cls, outputs: np.ndarray, inputs: np.ndarray) -> "Standardizer":
        def stats(arr):
            mean = arr.mean(axis=0)
            std = arr.std(axis=0)
            std = np.where(std < 1e-12, 1.0, std)
            return mean, std

        om, os = stats(outputs)
        im, istd = stats(inputs)
        return cls(om, os, im, istd, samples_seen=outputs.shape[0])

    def absorb(self, outputs: np.ndarray, inputs: np.ndarray) -> "Standardizer":
        """Fold another window into the running means (stds stay frozen)."""
        count = outputs.shape[0]
        total = self.samples_seen + count
        out_mean = (self.out_mean * self.samples_seen + outputs.sum(axis=0)) / total
        in_mean = (self.in_mean * self.samples_seen + inputs[:count].sum(axis=0)) / total
        return Standardizer(out_mean, self.out_std, in_mean, self.in_std, total)

    def outputs(self, y: np.ndarray) -> np.ndarray:
        return (y - self.out_mean) / self.out_std

    def inputs(self, u: np.ndarray) -> np.ndarray:
        return (u - self.in_mean) / self.in_std

    def restore_outputs(self, y: np.ndarray) -> np.ndarray:
        return y * self.out_std + self.out_mean


@dataclass
class EngineState:
    """Mutable streaming state; exclusively owned by one updater."""

    config: EngineConfig
    tensor: SystemTensor
    database: RegimeDatabase
    scaler: Standardizer | None = None
    updates: int = 0


@dataclass(frozen=True)
class UpdateReport:
    """Outcome of one engine update."""

    forecast: np.ndarray
    adapted: bool
    window_fit: float
    als_iters: int
    elapsed: float
    active_regime: int


@dataclass
class MetricsSummary:
    """Forecast scores over a streamed run, on the standardized scale."""

    horizon: int
    mse: float
    mae: float
    total_se: float
    total_ae: float
    n_points: int
    cumulative_se: list[float]
    cumulative_ae: list[float]
    per_update_elapsed: list[float]
    adapted_flags: list[bool]


def engine_init(config: EngineConfig) -> EngineState:
    """Validate the configuration and allocate empty streaming state."""
    violations = []
    moment = config.moment
    if config.l_c < moment.min_window:
        violations.append(
            f"l_c={config.l_c} is below the minimum window {moment.min_window} "
            f"(= 3 * k_max + 3)"
        )
    if config.l_s < 1:
        violations.append(f"l_s={config.l_s} must be at least 1")
    if not config.rho > 0.0:
        violations.append(f"rho={config.rho} must be positive")
    if config.rank < 1:
        violations.append(f"rank={config.rank} must be at least 1")
    if config.rank > moment.mode_dim:
        violations.append(
            f"rank={config.rank} exceeds the tensor mode size {moment.mode_dim}"
        )
    if moment.mode_dim > DEFAULT_MODE_CAP:
        violations.append(
            f"mode size {moment.mode_dim} exceeds the dense cap {DEFAULT_MODE_CAP}"
        )
    if violations:
        raise ConfigError(violations)
    return EngineState(
        config=config,
        tensor=new_tensor(moment),
        database=RegimeDatabase(),
    )


@contextmanager
def _stage(name: str):
    """Attach the sub-stage name to propagated numerical errors."""
    try:
        yield
    except (ColdStartError, ConfigError, EngineStageError):
        raise
    except DelayMixError as err:
        raise EngineStageError(name, err) from err


def _stabilize(model: DelayFreeModel) -> DelayFreeModel:
    """Shrink the transition when noise pushed its spectral radius past
    STABILITY_MARGIN.

    Realizations of exactly representable sequences keep their radius and
    are untouched; this only clips estimation artifacts that would make
    open-loop multi-step forecasts diverge.
    """
    radius = model.spectral_radius()
    if radius <= STABILITY_MARGIN:
        return model
    return DelayFreeModel(
        model.transition * (STABILITY_MARGIN / radius), model.input_map, model.output_map
    )


def _rescale_input_map(model: DelayFreeModel, window: Trajectory) -> tuple[DelayFreeModel, float]:
    """Least-squares scalar on open-loop one-step residuals, applied to B.

    Component recovery fixes the impulse response only up to a scalar; a
    single data-driven gain on the input map removes that degree of freedom
    (and repairs a global sign flip).
    """
    steps = window.outputs.shape[0]
    sim = simulate_delay_free(model, window.inputs[:steps])
    predicted = sim.outputs
    denom = float(np.sum(predicted * predicted))
    if denom < 1e-12:
        return model, 1.0
    scale = float(np.sum(window.outputs * predicted) / denom)
    if scale == 1.0 or scale == 0.0:
        return model, 1.0
    rescaled = DelayFreeModel(
        model.transition, scale * model.input_map, model.output_map
    )
    return rescaled, scale


def engine_update(
    state: EngineState,
    window_outputs,
    window_and_future_inputs,
) -> UpdateReport:
    """Process one window: accumulate, maybe adapt, select, forecast.

    window_outputs must hold l_c output vectors; window_and_future_inputs
    holds the window's l_c input vectors followed by at least one future
    input, and the forecast has one row per future input. Identification
    reads only the first l_c inputs, so the state after the update does not
    depend on how many future inputs were passed, and the first h forecast
    rows are the h-step forecast. The window is filtered once per model
    scored: the forecast reuses the gate's pass on the active model, or the
    winner's pass from selection when the update adapts. A window holding a
    non-finite value raises DataError, and one whose step or channel counts
    do not fit the config raises ShapeError, before the state is touched.
    """
    started = time.perf_counter()
    cfg = state.config
    y_raw = np.asarray(window_outputs, dtype=np.float64)
    if y_raw.ndim == 1:
        y_raw = y_raw.reshape(-1, 1)
    u_raw = np.asarray(window_and_future_inputs, dtype=np.float64)
    if u_raw.ndim == 1:
        u_raw = u_raw.reshape(-1, 1)
    if y_raw.shape[0] != cfg.l_c:
        raise ShapeError(
            f"window_outputs holds {y_raw.shape[0]} steps, config expects l_c={cfg.l_c}"
        )
    if u_raw.shape[0] <= cfg.l_c:
        raise ShapeError(
            f"window_and_future_inputs holds {u_raw.shape[0]} steps, expected "
            f"the l_c = {cfg.l_c} window inputs and at least one future input"
        )
    d, dc = cfg.moment.d, cfg.moment.dc
    if y_raw.shape[1:] != (d,) or u_raw.shape[1:] != (dc,):
        raise ShapeError(
            f"window outputs have shape {y_raw.shape} and inputs {u_raw.shape}; "
            f"config expects {d} output and {dc} input channels"
        )
    if not (np.isfinite(y_raw).all() and np.isfinite(u_raw).all()):
        raise DataError("window holds non-finite outputs or inputs; the state is unchanged")
    u_window = u_raw[: cfg.l_c]

    if state.updates == 0:
        if not np.any(y_raw) or not np.any(u_window):
            raise ColdStartError(
                "first window carries all-zero data; provide informative inputs "
                "before starting the engine"
            )
        state.scaler = Standardizer.fit(y_raw, u_window)
    else:
        state.scaler = state.scaler.absorb(y_raw, u_window)
    scaler = state.scaler
    y = scaler.outputs(y_raw)
    u_all = scaler.inputs(u_raw)
    window = Trajectory(y, u_all[: cfg.l_c])

    with _stage("moment_collection"):
        accumulate_window(state.tensor, window)

    database = state.database
    had_models = bool(database.records)
    if had_models:
        with _stage("fit_scoring"):
            active = database.active()
            trace = kalman_forward(active.model, window, NOISE)
            gate_fit = window_error(window, trace)
    else:
        gate_fit = float("inf")

    adapted = False
    als_iters = 0
    if not had_models or gate_fit >= cfg.rho:
        adapted = True
        with _stage("model_adaptation"):
            view = normalized_view(state.tensor)
            warm = database.last_factors if cfg.warm_start else None
            opts = AlsOptions(seed=cfg.seed, init=warm)
            factors, als_iters, _ = cp_als(view, cfg.rank, opts)
            realized = realize_components(
                factors, cfg.moment, RealizationOptions(s=cfg.moment.s)
            )
            records = []
            for item in realized:
                model = _stabilize(item.model)
                model, scale = _rescale_input_map(model, window)
                records.append(
                    ModelRecord(
                        model=model,
                        markov=item.markov,
                        component_index=item.component_index,
                        b_scale=scale,
                    )
                )
            index, best_fit, trace = select_regime(
                [record.model for record in records], window, NOISE
            )
            state.database = RegimeDatabase(
                records=records, active_index=index, last_factors=factors
            )
            if not had_models:
                gate_fit = best_fit

    active = state.database.active()
    with _stage("forecasting"):
        predicted = forecast(active.model, window, u_all[cfg.l_c :], trace)
    state.updates += 1
    elapsed = time.perf_counter() - started
    return UpdateReport(
        forecast=scaler.restore_outputs(predicted),
        adapted=adapted,
        window_fit=gate_fit,
        als_iters=als_iters,
        elapsed=elapsed,
        active_regime=state.database.active_index,
    )


def run_horizons(
    config: EngineConfig, trajectory: Trajectory, horizons
) -> tuple[list[UpdateReport], list[MetricsSummary], EngineState]:
    """Stream a trajectory through one engine and score several horizons.

    Windows are consecutive and non-overlapping. Each update is given the
    inputs of up to max(horizons) future steps, as many as the trajectory
    still holds. Horizon h is scored on the first (len - h) // l_c windows,
    from the first h rows of each forecast, against the realized outputs on
    the standardized scale. Returns every update's report, one summary per
    horizon in the order given, and the final state.
    """
    state = engine_init(config)
    horizons = tuple(horizons)
    if not horizons or min(horizons) < 1:
        raise ConfigError(f"horizons {list(horizons)} must be non-empty and each at least 1")
    l_c, total = config.l_c, len(trajectory)
    longest = max(horizons)
    if total < l_c + longest:
        raise DataError(
            f"trajectory of length {total} is too short for one window; "
            f"need at least l_c + l_s = {l_c + longest} steps"
        )
    n_windows = (total - min(horizons)) // l_c
    reports: list[UpdateReport] = []
    window_se: list[list[float]] = [[] for _ in horizons]
    window_ae: list[list[float]] = [[] for _ in horizons]
    for w in range(n_windows):
        offset = w * l_c
        report = engine_update(
            state,
            trajectory.outputs[offset : offset + l_c],
            trajectory.inputs[offset : min(offset + l_c + longest, total)],
        )
        reports.append(report)
        for h, se, ae in zip(horizons, window_se, window_ae):
            if offset + l_c + h > total:
                continue
            actual = trajectory.outputs[offset + l_c : offset + l_c + h]
            diff = state.scaler.outputs(report.forecast[:h]) - state.scaler.outputs(actual)
            se.append(float(np.sum(diff * diff)))
            ae.append(float(np.sum(np.abs(diff))))
    summaries = []
    for h, se, ae in zip(horizons, window_se, window_ae):
        scored = reports[: len(se)]
        cumulative_se = list(itertools.accumulate(se))
        cumulative_ae = list(itertools.accumulate(ae))
        n_points = len(se) * h * trajectory.output_dim
        summaries.append(
            MetricsSummary(
                horizon=h,
                mse=cumulative_se[-1] / n_points,
                mae=cumulative_ae[-1] / n_points,
                total_se=cumulative_se[-1],
                total_ae=cumulative_ae[-1],
                n_points=n_points,
                cumulative_se=cumulative_se,
                cumulative_ae=cumulative_ae,
                per_update_elapsed=[r.elapsed for r in scored],
                adapted_flags=[r.adapted for r in scored],
            )
        )
    return reports, summaries, state


def run_stream(
    config: EngineConfig, trajectory: Trajectory
) -> tuple[list[UpdateReport], MetricsSummary]:
    """run_horizons scoring the single horizon config.l_s."""
    reports, (summary,), _ = run_horizons(config, trajectory, (config.l_s,))
    return reports, summary


def state_footprint_bytes(state: EngineState) -> int:
    """Bytes held in the numeric buffers of the streaming state."""
    return sum(array.nbytes for _, array in _state_arrays(state))


def _state_arrays(state: EngineState) -> list[tuple[str, np.ndarray]]:
    """Every array of the state, named, in checkpoint order."""
    arrays = [("tensor", state.tensor.data)]
    if state.scaler is not None:
        arrays += [(name, getattr(state.scaler, name)) for name in _SCALER_ARRAYS]
    factors = state.database.last_factors
    if factors is not None:
        arrays += [(name, getattr(factors, name)) for name in _FACTOR_ARRAYS]
    for i, record in enumerate(state.database.records):
        arrays += [
            (f"record{i}.transition", record.model.transition),
            (f"record{i}.input_map", record.model.input_map),
            (f"record{i}.output_map", record.model.output_map),
            (f"record{i}.markov", record.markov.blocks),
        ]
    return arrays


def save_checkpoint(state: EngineState, path) -> None:
    """Single-file checkpoint: a version byte, the 8-byte little-endian
    length of a JSON header, the header, then every array the header lists,
    in its order, as little-endian float64."""
    arrays = _state_arrays(state)
    header = {
        "config": asdict(state.config),
        "updates": state.updates,
        "sample_count": state.tensor.sample_count,
        "weight": state.tensor.weight,
        "samples_seen": None if state.scaler is None else state.scaler.samples_seen,
        "active_index": state.database.active_index,
        "records": [
            {"component_index": record.component_index, "b_scale": record.b_scale}
            for record in state.database.records
        ],
        "arrays": [[name, list(array.shape)] for name, array in arrays],
    }
    encoded = json.dumps(header, sort_keys=True).encode("utf-8")
    with open(path, "wb") as handle:
        handle.write(bytes([CHECKPOINT_VERSION]))
        handle.write(len(encoded).to_bytes(8, "little"))
        handle.write(encoded)
        for _, array in arrays:
            handle.write(array.astype("<f8").tobytes())


def load_checkpoint(path) -> EngineState:
    """Rebuild streaming state from a checkpoint file.

    Restore is exact: continuing from the loaded state gives the same
    forecasts, bit for bit, as a run that was never interrupted, and saving
    it again writes the same bytes. The config passes engine_init's checks,
    every array has the shape the config implies, and there are at most
    rank stored models. A file that is not one whole checkpoint of this
    version (truncated, padded, from another version, or with a damaged
    header or array) raises ParseError.
    """
    with open(path, "rb") as handle:
        raw = handle.read()
    try:
        return _parse_checkpoint(raw)
    except (ValueError, KeyError, TypeError) as err:
        cause = err if isinstance(err, ParseError) else f"{type(err).__name__}: {err}"
        raise ParseError(f"damaged checkpoint {path}: {cause}") from err


def _parse_checkpoint(raw: bytes) -> EngineState:
    if not raw or raw[0] != CHECKPOINT_VERSION:
        raise ParseError(f"unsupported checkpoint version (expected {CHECKPOINT_VERSION})")
    if len(raw) < 9:
        raise ParseError("file ends inside the header length")
    start = 9 + int.from_bytes(raw[1:9], "little")
    if start > len(raw):
        raise ParseError(f"header runs {start - len(raw)} bytes past the end of the file")
    header = json.loads(raw[9:start].decode("utf-8"))
    specs = header["arrays"]
    for name, shape in specs:
        if not (
            isinstance(name, str)
            and isinstance(shape, list)
            and all(type(n) is int and n >= 0 for n in shape)
        ):
            raise ParseError(f"array entry {name!r} has a malformed shape {shape!r}")
    sizes = [math.prod(shape) for _, shape in specs]
    if 8 * sum(sizes) != len(raw) - start:
        raise ParseError(
            f"header lists {8 * sum(sizes)} array bytes, {len(raw) - start} follow it"
        )
    arrays = {}
    for (name, shape), size in zip(specs, sizes):
        flat = np.frombuffer(raw, dtype="<f8", count=size, offset=start)
        arrays[name] = flat.reshape(shape).astype(np.float64)
        start += 8 * size

    config = header["config"]
    state = engine_init(
        EngineConfig(**{**config, "moment": MomentConfig(**config["moment"])})
    )
    if len(header["records"]) > state.config.rank:
        raise ParseError(
            f"{len(header['records'])} stored models exceed rank {state.config.rank}"
        )
    weight = header["weight"]
    if type(weight) is not float or not math.isfinite(weight) or weight < 0.0:
        raise ParseError(f"weight {weight!r} is not a finite float >= 0")
    state.updates = _counter(header, "updates")
    state.tensor = SystemTensor(
        arrays["tensor"], _counter(header, "sample_count"), weight, state.config.moment
    )
    if header["samples_seen"] is not None:
        state.scaler = Standardizer(
            *(arrays[name] for name in _SCALER_ARRAYS),
            samples_seen=_counter(header, "samples_seen"),
        )
    if "mode1" in arrays:
        state.database.last_factors = CPFactors(*(arrays[name] for name in _FACTOR_ARRAYS))
    state.database.records = [
        ModelRecord(
            model=DelayFreeModel(
                arrays[f"record{i}.transition"],
                arrays[f"record{i}.input_map"],
                arrays[f"record{i}.output_map"],
            ),
            markov=MarkovSequence(arrays[f"record{i}.markov"]),
            component_index=entry["component_index"],
            b_scale=entry["b_scale"],
        )
        for i, entry in enumerate(header["records"])
    ]
    active_index = header["active_index"]
    valid = range(len(state.database.records)) if state.database.records else (-1,)
    if type(active_index) is not int or active_index not in valid:
        raise ParseError(f"active_index {active_index!r} names no stored model")
    state.database.active_index = active_index
    loaded = _state_arrays(state)
    if [name for name, _ in loaded] != [name for name, _ in specs]:
        raise ParseError("header's array list does not match the state it describes")
    expected = _config_shapes(state)
    for name, array in loaded:
        if array.shape != expected[name]:
            raise ParseError(
                f"{name} has shape {list(array.shape)}, the config implies "
                f"{list(expected[name])}"
            )
    return state


def _counter(header: dict, key: str) -> int:
    value = header[key]
    if type(value) is not int or value < 0:
        raise ParseError(f"{key} {value!r} is not a non-negative integer")
    return value


def _config_shapes(state: EngineState) -> dict[str, tuple[int, ...]]:
    """The shape the config implies for every array of the state; a model's
    state order is its own, read from its transition."""
    moment = state.config.moment
    d, dc, dim = moment.d, moment.dc, moment.mode_dim
    shapes = {
        "tensor": (dim, dim, dim),
        "out_mean": (d,),
        "out_std": (d,),
        "in_mean": (dc,),
        "in_std": (dc,),
    }
    shapes.update(dict.fromkeys(_FACTOR_ARRAYS, (dim, state.config.rank)))
    for i, record in enumerate(state.database.records):
        n = record.model.state_dim
        shapes[f"record{i}.transition"] = (n, n)
        shapes[f"record{i}.input_map"] = (n, dc)
        shapes[f"record{i}.output_map"] = (d, n)
        shapes[f"record{i}.markov"] = (moment.k_max, d, dc)
    return shapes
