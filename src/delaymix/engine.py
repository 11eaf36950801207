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
import os
import time
from dataclasses import asdict, dataclass, field, fields, replace

import numpy as np

from .cpd import CPFactors, cp_als
from .errors import (
    ColdStartError,
    ConfigError,
    DataError,
    DelayMixError,
    EngineStageError,
    NumericalError,
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
from .syslin import DelayFreeModel, Trajectory, response_maps

CHECKPOINT_VERSION = 9
# The state-inference noise model and the spectral radius realized models
# are clipped to; both are fixed parts of the pipeline, not settings.
NOISE = NoiseSpec()
STABILITY_MARGIN = 0.999


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
    stored factors and gains, so a checkpoint stores of each record only its
    b_scale, in record order: neither its model, its Markov blocks nor its
    component index.

    active_map is the active model's filter map over an l_c-step window,
    shape (l_c*d + n, l_c*(d+dc)): the gate and the forecast anchor are one
    product of it with the window. active_response is its open-loop
    response map over l_c steps, shape (l_c*d + n, n + l_c*dc): a forecast
    is one product of it per l_c steps of horizon, from the filter's final
    mean. Both are derived data, built by `_database`, whose contract says
    from what. No other record's maps are kept: an adaptation builds them
    for its new records and replaces the database whole.
    """

    records: list[ModelRecord] = field(default_factory=list)
    active_index: int = -1
    last_factors: CPFactors | None = None
    active_map: np.ndarray | None = None
    active_response: np.ndarray | None = None

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
    # perf_counter seconds of each stage that ran, keyed by stage name
    stage_seconds: dict[str, float]


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


class _stage:
    """Time one engine stage into `seconds[name]`, and attach the stage
    name to propagated numerical errors."""

    __slots__ = ("name", "seconds", "started")

    def __init__(self, name: str, seconds: dict[str, float]):
        self.name = name
        self.seconds = seconds

    def __enter__(self):
        self.started = time.perf_counter()

    def __exit__(self, kind, err, traceback):
        self.seconds[self.name] = time.perf_counter() - self.started
        if isinstance(err, DelayMixError):
            raise EngineStageError(self.name, err) from err


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


def _input_gains(models: list[DelayFreeModel], window: Trajectory) -> list[float]:
    """Each model's least-squares scalar on its open-loop one-step
    predictions of the window, or 1.0 where the predictions vanish or the
    fit is 0.

    Component recovery fixes the impulse response only up to a scalar; a
    single data-driven gain on the input map removes that degree of freedom
    (and repairs a global sign flip). The predictions are the zero-state
    responses to the window inputs: one product of the input columns of
    the output rows of the models' `response_maps` batch with the inputs.
    """
    y = window.outputs
    steps, d = y.shape
    maps = response_maps(models, steps)
    inputs = window.inputs[:steps].ravel()
    predicted = maps[:, : steps * d, maps.shape[2] - inputs.shape[0] :] @ inputs
    gains = []
    for denom, fit in zip(
        np.sum(predicted * predicted, axis=1), np.sum(y.ravel() * predicted, axis=1)
    ):
        scale = 1.0 if denom < 1e-12 else float(fit / denom)
        gains.append(1.0 if scale == 0.0 else scale)
    return gains


def _database(records, index, factors, filter_maps, l_c) -> RegimeDatabase:
    """The database with records[index] active, and that record's maps.

    filter_maps is `kalman_forward([r.model for r in records], l_c, NOISE)`,
    every record's map in record order; a batch's maps are not bitwise each
    model's built alone. The active map is a copy of row index of it, and
    the response map is `response_maps` of the active model alone over l_c
    steps. Adaptation and load_checkpoint both build the batch by that call
    and come here, so a restored run filters and forecasts bitwise as the
    saved one would have. The list is emptied once the row is copied: the
    batch is an adaptation's largest array, and no caller reads it after,
    so it is freed before the response map is built."""
    active_map = filter_maps[index].copy()
    filter_maps.clear()
    [response] = response_maps([records[index].model], l_c)
    return RegimeDatabase(records, index, factors, active_map, response)


def _realize_records(factors: CPFactors, moment: MomentConfig, gains) -> list[ModelRecord]:
    """The records the factors realize: each non-degenerate component's
    Ho-Kalman model (`realize_components`), stabilized, with its input map
    multiplied by its gain, which the record keeps as b_scale.

    gains(models) returns one gain per realized record, given the records'
    stabilized models. Adaptation fits each gain on the window;
    load_checkpoint returns the stored gains. This is the only path from
    factors to records, so a restored database is bitwise the one the saved
    run held.
    """
    realized = realize_components(factors, moment)
    models = [_stabilize(record.model) for record in realized]
    scales = gains(models)
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
    `select_regime` scores that batch, the winner's trace anchors the
    forecast, and `_database` caches the winner's maps. The forecast runs
    the cached l_c-step response map from that anchor, one product per l_c
    steps of horizon.

    Every stage computes into locals and the state is assigned once, at the
    end, so an update either commits whole or raises and leaves the state
    as it was: a window holding a non-finite value raises DataError, one
    whose shape or step or channel counts do not fit the config raises
    ShapeError, and a failing stage raises EngineStageError; a future
    input that scales to a non-finite value, or a forecast that is not
    finite, fails the forecasting stage.
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
    window = Trajectory(scaler.outputs(y_raw), scaler.inputs(u_window))

    stage_seconds: dict[str, float] = {}
    with _stage("moment_collection", stage_seconds):
        tensor = accumulate_window(state.tensor, window)

    database = state.database
    had_models = bool(database.records)
    if had_models:
        with _stage("fit_scoring", stage_seconds):
            trace = filter_window(database.active_map, window)
            gate_fit = window_error(window, trace)
    else:
        gate_fit = float("inf")

    adapted = False
    als_iters, als_residual = 0, None
    if not had_models or gate_fit >= cfg.rho:
        adapted = True
        with _stage("model_adaptation", stage_seconds):
            factors, als_iters, als_residual = cp_als(
                normalized_view(tensor), cfg.rank, seed=cfg.seed, init=database.last_factors
            )
            records = _realize_records(
                factors, cfg.moment, lambda models: _input_gains(models, window)
            )
            maps = kalman_forward([record.model for record in records], cfg.l_c, NOISE)
            index, best_fit, trace = select_regime(maps, window)
            database = _database(records, index, factors, maps, cfg.l_c)
            if not had_models:
                gate_fit = best_fit

    # huge future inputs can overflow, in scaling or in the forecast, and
    # then the forecast is refused rather than committed
    with _stage("forecasting", stage_seconds), np.errstate(over="ignore", invalid="ignore"):
        predicted = scaler.restore_outputs(
            forecast(database.active_response, window, scaler.inputs(u_raw[cfg.l_c :]), trace)
        )
        if not np.isfinite(predicted).all():
            step = int(np.argmin(np.isfinite(predicted).all(axis=1)))
            raise NumericalError(f"non-finite forecast at step {step}", step=step)
    state.scaler, state.tensor, state.database, state.updates = (
        scaler, tensor, database, state.updates + 1
    )
    return UpdateReport(
        forecast=predicted,
        adapted=adapted,
        window_fit=gate_fit,
        als_iters=als_iters,
        als_residual=als_residual,
        elapsed=time.perf_counter() - started,
        active_regime=database.active_index,
        stage_seconds=stage_seconds,
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
    # as for l_c, a bool or a float is refused, not read as a step count
    if not horizons or any(type(h) is not int or h < 1 for h in horizons):
        raise ConfigError(f"horizons {list(horizons)} must be non-empty ints of at least 1")
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
    return 8 * sum(math.prod(shape) for _, shape in _payload_layout(state.config, state.updates))


def _payload_layout(config: EngineConfig, updates: int) -> list[tuple[str, tuple[int, ...]]]:
    """The arrays a checkpoint stores, in payload order, each named as the
    field that holds it, with the shape the config implies: the tensor,
    then, once an update has committed, the four standardizer vectors and
    the three warm-start factor matrices. The records are not stored: they
    are derived from the warm-start factors."""
    moment = config.moment
    d, dc, dim = moment.d, moment.dc, moment.mode_dim
    layout = [("tensor", (dim, dim, dim))]
    if updates:
        layout += [("out_mean", (d,)), ("out_std", (d,)), ("in_mean", (dc,)), ("in_std", (dc,))]
        layout += [(name, (dim, config.rank)) for name in ("mode1", "mode2", "mode3")]
    return layout


def save_checkpoint(state: EngineState, path) -> None:
    """Single-file checkpoint: a version byte, the 8-byte little-endian
    length of a JSON header, the header, then the arrays of
    `_payload_layout`, in its order, as little-endian float64.

    The file is written and synced beside path, as path + ".tmp", then
    moved onto path, so a save that fails leaves what path held before as
    it was."""
    header = {
        "config": asdict(state.config),
        "updates": state.updates,
        "weight": state.tensor.weight,
        "active_index": state.database.active_index,
        "b_scales": [record.b_scale for record in state.database.records],
    }
    encoded = json.dumps(header, sort_keys=True).encode("utf-8")
    arrays = {"tensor": state.tensor.data}
    if state.updates:
        arrays.update(vars(state.scaler), **vars(state.database.last_factors))
    temporary = f"{os.fspath(path)}.tmp"
    out = open(temporary, "wb")
    try:
        with out:
            out.write(bytes([CHECKPOINT_VERSION]))
            out.write(len(encoded).to_bytes(8, "little"))
            out.write(encoded)
            for name, _ in _payload_layout(state.config, state.updates):
                out.write(arrays[name].astype("<f8").tobytes())
            out.flush()
            os.fsync(out.fileno())
        os.replace(temporary, path)
    except BaseException:
        os.unlink(temporary)
        raise


def load_checkpoint(path) -> EngineState:
    """Rebuild streaming state from a checkpoint file.

    Restore is exact on the same numpy/LAPACK build: continuing from the
    loaded state gives the same forecasts, bit for bit, as a run that was
    never interrupted, and saving it again writes the same bytes. The
    header holds the config, the update count, the tensor weight, the
    active record index and each record's b_scale, in record order. The
    payload's order and shapes are `_payload_layout` of the config and the
    update count, so the file must hold exactly the bytes they imply. The
    config passes engine_init's checks, every array value is finite, the
    standardizer's scales are positive and each b_scale is a finite float
    other than 0.0, which adaptation never writes. A positive tensor weight
    and at least one gain are stored exactly when the update count is
    positive, the only states an update can commit.

    The rest is derived: the standardizer's sample count, updates * l_c;
    the records, realized from the warm-start factors with the stored gains
    by `_realize_records`, the path adaptation made them by, which must
    realize one record per gain (a value that overflows there is refused
    by the value types, as a realization failure); and the active model's
    maps, by `_database` as adaptation builds them. A file that is not one
    whole checkpoint of this version (truncated, padded, from another
    version, or with a damaged header or array) or holds a state no update
    can reach raises ParseError.
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
    config = header["config"]
    state = engine_init(
        EngineConfig(**{**config, "moment": MomentConfig(**config["moment"])})
    )
    updates = header["updates"]
    if type(updates) is not int or updates < 0:
        raise ParseError(f"updates {updates!r} is not a non-negative integer")
    weight = header["weight"]
    if type(weight) is not float or not math.isfinite(weight) or weight < 0.0:
        raise ParseError(f"weight {weight!r} is not a finite float >= 0")
    scales = header["b_scales"]
    for i, scale in enumerate(scales):
        # _input_gains never returns 0.0
        if type(scale) is not float or not math.isfinite(scale) or scale == 0.0:
            raise ParseError(f"record {i}'s b_scale {scale!r} is not a finite nonzero float")
    # an update commits its weight and its records with the rest of the
    # state, so a file holds both or neither
    for what, present in (("a positive weight", weight > 0.0), ("a gain", bool(scales))):
        if present != (updates > 0):
            raise ParseError(f"updates={updates}, yet {what} is {'' if present else 'not '}stored")
    active_index = header["active_index"]
    valid = range(len(scales)) if scales else (-1,)
    if type(active_index) is not int or active_index not in valid:
        raise ParseError(f"active_index {active_index!r} names no stored record")
    layout = _payload_layout(state.config, updates)
    sizes = [math.prod(shape) for _, shape in layout]
    if 8 * sum(sizes) != len(raw) - start:
        raise ParseError(
            f"the config and updates={updates} imply {8 * sum(sizes)} array bytes, "
            f"{len(raw) - start} follow the header"
        )
    arrays = {}
    for (name, shape), size in zip(layout, sizes):
        flat = np.frombuffer(raw, dtype="<f8", count=size, offset=start)
        arrays[name] = flat.reshape(shape).astype(np.float64)
        if not np.isfinite(arrays[name]).all():
            raise ParseError(f"{name} holds non-finite values")
        start += 8 * size
    state.updates = updates
    state.tensor = SystemTensor(arrays["tensor"], weight, state.config.moment)
    if not updates:
        return state
    for name in ("out_std", "in_std"):
        if not (arrays[name] > 0.0).all():
            raise ParseError(f"{name} holds a non-positive scale")
    state.scaler = Standardizer(**{f.name: arrays[f.name] for f in fields(Standardizer)})
    factors = CPFactors(**{f.name: arrays[f.name] for f in fields(CPFactors)})

    def stored_gains(models):
        if len(models) != len(scales):
            raise ParseError(
                f"the warm-start factors realize {len(models)} records, "
                f"the header stores {len(scales)} gains"
            )
        return scales

    try:
        with np.errstate(over="ignore", invalid="ignore"):
            derived = _realize_records(factors, state.config.moment, stored_gains)
    except ParseError:
        raise
    except DelayMixError as err:
        raise ParseError(f"the warm-start factors cannot be realized: {err}") from err
    try:
        maps = kalman_forward([record.model for record in derived], state.config.l_c, NOISE)
    except DelayMixError as err:
        raise ParseError(f"the re-derived models cannot be filtered: {err}") from err
    state.database = _database(derived, active_index, factors, maps, state.config.l_c)
    return state
