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
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from .cpd import CPFactors, cp_als
from .errors import (
    ColdStartError,
    ConfigError,
    DataError,
    DelayMixError,
    EngineStageError,
    ParseError,
    ShapeError,
)
from .filtering import (
    NoiseSpec,
    filter_window,
    forecast,
    kalman_forward,
    select_regime,
    window_error,
)
from .moments import (
    DEFAULT_MODE_CAP,
    MomentConfig,
    SystemTensor,
    accumulate_window,
    new_tensor,
    normalized_view,
)
from .realization import ModelRecord, realize_components
from .syslin import DelayFreeModel, Trajectory, simulate_delay_free

CHECKPOINT_VERSION = 8
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
    seed draws the first adaptation's ALS cold start; every later
    adaptation starts from the previous factors. l_s is range
    checked and stored in checkpoints, but no stage reads it: engine_update
    forecasts as many steps as it is given future inputs, and run_horizons
    scores the horizons it is passed.
    """

    moment: MomentConfig
    rank: int
    rho: float
    l_c: int
    l_s: int
    seed: int = 0


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
    )


@dataclass
class RegimeDatabase:
    """Current model set, the active choice, and the warm-start factors.

    records are always `_realize_records` of last_factors with the records'
    own b_scale gains: adaptation fits the gains on its window and replaces
    the database whole, and load_checkpoint re-derives the records from the
    stored factors and gains, so a checkpoint stores neither the models nor
    their Markov blocks.

    active_map is the active model's filter map over an l_c-step window
    (`filtering.kalman_forward`), shape (l_c*d + n, l_c*(d+dc)): the gate
    and the forecast anchor are one product of it with the window. It was
    built in one batch with every record's map, and it is derived data too:
    load_checkpoint rebuilds the same batch. No other record's map is kept:
    an adaptation builds the maps of every new record and replaces the
    database whole.
    """

    records: list[ModelRecord] = field(default_factory=list)
    active_index: int = -1
    last_factors: CPFactors | None = None
    active_map: np.ndarray | None = None

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

    @classmethod
    def fit(cls, outputs: np.ndarray, inputs: np.ndarray) -> "Standardizer":
        def stats(arr):
            mean = arr.mean(axis=0)
            std = arr.std(axis=0)
            std = np.where(std < 1e-12, 1.0, std)
            return mean, std

        om, os = stats(outputs)
        im, istd = stats(inputs)
        return cls(om, os, im, istd)

    def absorb(self, outputs: np.ndarray, inputs: np.ndarray, seen: int) -> "Standardizer":
        """Fold another window into the running means, which so far average
        `seen` samples (stds stay frozen)."""
        count = outputs.shape[0]
        total = seen + count
        out_mean = (self.out_mean * seen + outputs.sum(axis=0)) / total
        in_mean = (self.in_mean * seen + inputs[:count].sum(axis=0)) / total
        return Standardizer(out_mean, self.out_std, in_mean, self.in_std)

    def outputs(self, y: np.ndarray) -> np.ndarray:
        return (y - self.out_mean) / self.out_std

    def inputs(self, u: np.ndarray) -> np.ndarray:
        return (u - self.in_mean) / self.in_std

    def restore_outputs(self, y: np.ndarray) -> np.ndarray:
        return y * self.out_std + self.out_mean


@dataclass
class EngineState:
    """Streaming state, owned by one updater and assigned only when an update
    commits. The standardizer's means average updates * l_c samples."""

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
    als_residual: float | None  # final relative CP residual; None when not adapting
    elapsed: float
    active_regime: int


@dataclass
class MetricsSummary:
    """Forecast scores over a streamed run, on the standardized scale: the
    running squared and absolute error sums, one entry per scored window."""

    horizon: int
    n_points: int
    cumulative_se: list[float]
    cumulative_ae: list[float]

    @property
    def mse(self) -> float:
        return self.cumulative_se[-1] / self.n_points

    @property
    def mae(self) -> float:
        return self.cumulative_ae[-1] / self.n_points


def engine_init(config: EngineConfig) -> EngineState:
    """Validate the configuration and allocate empty streaming state."""
    # a bool is an int to Python, and a float count fails only at the
    # first update, so both are refused here
    violations = [
        f"{name}={getattr(config, name)!r} must be an int"
        for name in ("l_c", "l_s", "rank", "seed")
        if type(getattr(config, name)) is not int
    ]
    if isinstance(config.rho, bool) or not isinstance(config.rho, (int, float)):
        violations.append(f"rho={config.rho!r} must be a number")
    if violations:
        raise ConfigError(violations)
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
    if config.seed < 0:
        violations.append(f"seed={config.seed} must be non-negative")
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


def _input_gain(model: DelayFreeModel, window: Trajectory) -> float:
    """Least-squares scalar on the model's open-loop one-step predictions
    of the window, or 1.0 when the predictions vanish or the fit is 0.

    Component recovery fixes the impulse response only up to a scalar; a
    single data-driven gain on the input map removes that degree of freedom
    (and repairs a global sign flip).
    """
    steps = window.outputs.shape[0]
    predicted = simulate_delay_free(model, window.inputs[:steps]).outputs
    denom = float(np.sum(predicted * predicted))
    if denom < 1e-12:
        return 1.0
    scale = float(np.sum(window.outputs * predicted) / denom)
    return 1.0 if scale == 0.0 else scale


def _realize_records(factors: CPFactors, moment: MomentConfig, gains) -> list[ModelRecord]:
    """The records the factors realize: each non-degenerate component's
    Ho-Kalman model (`realize_components`), stabilized, with its input map
    multiplied by its gain, which the record keeps as b_scale.

    gains(indices, models) returns one gain per realized record, given the
    records' component indices and stabilized models. Adaptation fits each
    gain on the window; load_checkpoint returns the stored gains. This is
    the only path from factors to records, so a restored database is
    bitwise the one the saved run held.
    """
    realized = realize_components(factors, moment)
    models = [_stabilize(record.model) for record in realized]
    scales = gains([record.component_index for record in realized], models)
    return [
        replace(
            record,
            model=DelayFreeModel(model.transition, scale * model.input_map, model.output_map),
            b_scale=scale,
        )
        for record, model, scale in zip(realized, models, scales)
    ]


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
    rows are the h-step forecast. The gate applies the active model's
    cached filter map to the window (`filter_window`), one matrix-vector
    product that also gives the forecast's anchor. Only an adaptation runs
    `kalman_forward`, once, building every new record's map in one batch;
    selection applies each, and the winner's map becomes the cache and
    anchors the forecast.

    Every stage computes into locals and the state is assigned once, at the
    end, so an update either commits whole or raises and leaves the state
    as it was: a window holding a non-finite value raises DataError, one
    whose shape or step or channel counts do not fit the config raises
    ShapeError, and a failing stage raises EngineStageError.
    """
    started = time.perf_counter()
    cfg = state.config
    raw = Trajectory(window_outputs, window_and_future_inputs)
    y_raw, u_raw = raw.outputs, raw.inputs
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
    if raw.output_dim != d or raw.input_dim != dc:
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
        scaler = Standardizer.fit(y_raw, u_window)
    else:
        scaler = state.scaler.absorb(y_raw, u_window, state.updates * cfg.l_c)
    y = scaler.outputs(y_raw)
    u_all = scaler.inputs(u_raw)
    window = Trajectory(y, u_all[: cfg.l_c])

    with _stage("moment_collection"):
        tensor = accumulate_window(state.tensor, window)

    database = state.database
    had_models = bool(database.records)
    if had_models:
        with _stage("fit_scoring"):
            trace = filter_window(database.active().model, database.active_map, window)
            gate_fit = window_error(window, trace)
    else:
        gate_fit = float("inf")

    adapted = False
    als_iters, als_residual = 0, None
    if not had_models or gate_fit >= cfg.rho:
        adapted = True
        with _stage("model_adaptation"):
            factors, als_iters, als_residual = cp_als(
                normalized_view(tensor), cfg.rank, seed=cfg.seed, init=database.last_factors
            )
            records = _realize_records(
                factors,
                cfg.moment,
                lambda _, models: [_input_gain(model, window) for model in models],
            )
            index, best_fit, trace = select_regime(
                [record.model for record in records], window, NOISE
            )
            database = RegimeDatabase(
                records=records,
                active_index=index,
                last_factors=factors,
                active_map=trace.filter_map,
            )
            if not had_models:
                gate_fit = best_fit

    with _stage("forecasting"):
        predicted = forecast(database.active().model, window, u_all[cfg.l_c :], trace)
    state.scaler, state.tensor, state.database, state.updates = (
        scaler, tensor, database, state.updates + 1
    )
    return UpdateReport(
        forecast=scaler.restore_outputs(predicted),
        adapted=adapted,
        window_fit=gate_fit,
        als_iters=als_iters,
        als_residual=als_residual,
        elapsed=time.perf_counter() - started,
        active_regime=database.active_index,
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
            f"need at least l_c + max(horizons) = {l_c + longest} steps"
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
    summaries = [
        MetricsSummary(
            horizon=h,
            n_points=len(se) * h * trajectory.output_dim,
            cumulative_se=list(itertools.accumulate(se)),
            cumulative_ae=list(itertools.accumulate(ae)),
        )
        for h, se, ae in zip(horizons, window_se, window_ae)
    ]
    return reports, summaries, state


def state_footprint_bytes(state: EngineState) -> int:
    """Bytes held in the numeric buffers a checkpoint stores: the tensor,
    and once an update has committed the standardizer and the warm-start
    factors, 8 * (D**3 + 2 * (d + dc) + 3 * D * rank) in all. The config
    fixes it; the records and active_map are derived and not counted."""
    return sum(array.nbytes for _, array, _ in _state_arrays(state))


def _state_arrays(state: EngineState) -> list[tuple[str, np.ndarray, tuple[int, ...]]]:
    """Every array of the state a checkpoint stores, named, in checkpoint
    order, with the shape the config implies for it. The records are not
    stored: they are derived from the warm-start factors."""
    moment = state.config.moment
    d, dc, dim = moment.d, moment.dc, moment.mode_dim
    arrays = [("tensor", state.tensor.data, (dim, dim, dim))]
    if state.scaler is not None:
        shapes = ((d,), (d,), (dc,), (dc,))
        arrays += [
            (name, getattr(state.scaler, name), shape)
            for name, shape in zip(_SCALER_ARRAYS, shapes)
        ]
    factors = state.database.last_factors
    if factors is not None:
        arrays += [
            (name, getattr(factors, name), (dim, state.config.rank)) for name in _FACTOR_ARRAYS
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
        "weight": state.tensor.weight,
        "active_index": state.database.active_index,
        "records": [
            {"component_index": record.component_index, "b_scale": record.b_scale}
            for record in state.database.records
        ],
        "arrays": [[name, list(array.shape)] for name, array, _ in arrays],
    }
    encoded = json.dumps(header, sort_keys=True).encode("utf-8")
    with open(path, "wb") as handle:
        handle.write(bytes([CHECKPOINT_VERSION]))
        handle.write(len(encoded).to_bytes(8, "little"))
        handle.write(encoded)
        for _, array, _ in arrays:
            handle.write(array.astype("<f8").tobytes())


def load_checkpoint(path) -> EngineState:
    """Rebuild streaming state from a checkpoint file.

    Restore is exact on the same numpy/LAPACK build: continuing from the
    loaded state gives the same forecasts, bit for bit, as a run that was
    never interrupted, and saving it again writes the same bytes. The file
    stores the fixed-length summary (the tensor, the standardizer and the
    warm-start factors) and, in its header, each record's component index
    and b_scale. The config passes engine_init's checks, every array has the
    shape the config implies, every array value is finite, the
    standardizer's scales are positive and each b_scale is a finite float
    other than 0.0, which adaptation never writes. The standardizer, the
    warm-start factors, a positive tensor weight and at least one record
    are present exactly when the update count is positive, the only states
    an update can commit.

    The rest is derived: the standardizer's sample count, updates * l_c;
    the records, realized from the warm-start factors with the stored gains
    by `_realize_records`, the path adaptation made them by, so their
    component indices must equal the stored ones, in order, and every value
    must be finite; and the active model's filter map, taken from one
    `kalman_forward` batch of every record's model, in record order. That
    is the batch selection built, so the map is bitwise the one the saved
    run held; a model built alone can differ in the last bits. A file that
    is not one whole checkpoint of this version (truncated, padded, from
    another version, or with a damaged header or array) or holds a state no
    update can reach raises ParseError.
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
        if not np.isfinite(arrays[name]).all():
            raise ParseError(f"{name} holds non-finite values")
        start += 8 * size

    config = header["config"]
    state = engine_init(
        EngineConfig(**{**config, "moment": MomentConfig(**config["moment"])})
    )
    records = header["records"]
    for i, entry in enumerate(records):
        index, scale = entry["component_index"], entry["b_scale"]
        if type(index) is not int:
            raise ParseError(f"record {i}'s component_index {index!r} is not an int")
        # _input_gain never returns 0.0
        if type(scale) is not float or not math.isfinite(scale) or scale == 0.0:
            raise ParseError(f"record {i}'s b_scale {scale!r} is not a finite nonzero float")
    updates = header["updates"]
    if type(updates) is not int or updates < 0:
        raise ParseError(f"updates {updates!r} is not a non-negative integer")
    weight = header["weight"]
    if type(weight) is not float or not math.isfinite(weight) or weight < 0.0:
        raise ParseError(f"weight {weight!r} is not a finite float >= 0")
    # an update commits all four together, so a file holds all or none
    for what, present in (
        ("a positive weight", weight > 0.0),
        ("the standardizer", "out_mean" in arrays),
        ("the warm-start factors", "mode1" in arrays),
        ("a stored record", bool(records)),
    ):
        if present != (updates > 0):
            raise ParseError(f"updates={updates}, yet {what} is {'' if present else 'not '}stored")
    state.updates = updates
    state.tensor = SystemTensor(arrays["tensor"], weight, state.config.moment)
    if updates:
        for name in ("out_std", "in_std"):
            if not (arrays[name] > 0.0).all():
                raise ParseError(f"{name} holds a non-positive scale")
        state.scaler = Standardizer(*(arrays[name] for name in _SCALER_ARRAYS))
        state.database.last_factors = CPFactors(*(arrays[name] for name in _FACTOR_ARRAYS))
    active_index = header["active_index"]
    valid = range(len(records)) if records else (-1,)
    if type(active_index) is not int or active_index not in valid:
        raise ParseError(f"active_index {active_index!r} names no stored record")
    state.database.active_index = active_index
    loaded = _state_arrays(state)
    if [name for name, _, _ in loaded] != [name for name, _ in specs]:
        raise ParseError("header's array list does not match the state it describes")
    for name, array, expected in loaded:
        if array.shape != expected:
            raise ParseError(
                f"{name} has shape {list(array.shape)}, the config implies {list(expected)}"
            )
    if records:
        stored = [entry["component_index"] for entry in records]

        def stored_gains(indices, _):
            if indices != stored:
                raise ParseError(
                    f"the warm-start factors realize components {indices}, "
                    f"the header lists {stored}"
                )
            return [entry["b_scale"] for entry in records]

        try:
            with np.errstate(over="ignore", invalid="ignore"):
                derived = _realize_records(
                    state.database.last_factors, state.config.moment, stored_gains
                )
        except ParseError:
            raise
        except DelayMixError as err:
            raise ParseError(f"the warm-start factors cannot be realized: {err}") from err
        for i, record in enumerate(derived):
            model = record.model
            parts = (record.markov.blocks, model.transition, model.input_map, model.output_map)
            if not all(np.isfinite(part).all() for part in parts):
                raise ParseError(
                    f"record {i}, re-derived from the warm-start factors, holds non-finite values"
                )
        state.database.records = derived
        try:
            maps = kalman_forward([record.model for record in derived], state.config.l_c, NOISE)
        except DelayMixError as err:
            raise ParseError(f"the re-derived models cannot be filtered: {err}") from err
        state.database.active_map = maps[active_index].copy()
    return state
