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

import json
import struct
import time
from contextlib import contextmanager
from dataclasses import dataclass, field, replace

import numpy as np

from .cpd import AlsOptions, CPFactors, cp_als
from .errors import (
    ColdStartError,
    ConfigError,
    DataError,
    DelayMixError,
    EngineStageError,
    ParseError,
)
from .filtering import NoiseSpec, forecast, kalman_forward, select_regime, window_error
from .moments import (
    DEFAULT_MODE_CAP,
    MomentConfig,
    SystemTensor,
    accumulate_window,
    new_tensor,
    normalized_view,
    tensor_from_bytes,
    tensor_to_bytes,
)
from .realization import RealizationOptions, realize_components
from .syslin import (
    DelayFreeModel,
    MarkovSequence,
    Trajectory,
    markov_parameters_free,
    simulate_delay_free,
)

CHECKPOINT_VERSION = 1


@dataclass(frozen=True)
class EngineConfig:
    """Everything one streaming run needs.

    l_c is the update window length, l_s the forecast horizon, rho the fit
    threshold gating model adaptation, rank the number of CP components
    kept in the database. warm_start controls whether adaptations reuse the
    previous factors as the ALS initialization.
    """

    moment: MomentConfig
    rank: int
    rho: float
    l_c: int
    l_s: int
    als: AlsOptions = field(default_factory=AlsOptions)
    realization: RealizationOptions | None = None
    noise: NoiseSpec = field(default_factory=NoiseSpec)
    warm_start: bool = True
    stability_margin: float | None = 0.999

    def __post_init__(self):
        if self.realization is None:
            object.__setattr__(self, "realization", RealizationOptions(s=self.moment.s))


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
        als=AlsOptions(seed=seed),
        realization=RealizationOptions(s=s),
        noise=NoiseSpec(),
        warm_start=warm_start,
    )


@dataclass
class ModelRecord:
    """One database entry: the model plus its provenance and fit statistics."""

    model: DelayFreeModel
    markov: MarkovSequence
    component_index: int
    b_scale: float = 1.0
    last_fit: float = float("inf")
    selections: int = 0


@dataclass
class RegimeDatabase:
    """Current model set, the active choice, and the warm-start factors."""

    records: list[ModelRecord] = field(default_factory=list)
    active_index: int = -1
    last_factors: CPFactors | None = None

    @property
    def models(self) -> list[DelayFreeModel]:
        return [record.model for record in self.records]

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
    if config.realization is not None and config.realization.s != moment.s:
        violations.append(
            f"realization s={config.realization.s} differs from moment s={moment.s}"
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


def _stabilize(model: DelayFreeModel, margin: float | None) -> DelayFreeModel:
    """Shrink the transition when noise pushed its spectral radius past 1.

    Realizations of exactly representable sequences keep their radius and
    are untouched; this only clips estimation artifacts that would make
    open-loop multi-step forecasts diverge.
    """
    if margin is None:
        return model
    radius = model.spectral_radius()
    if radius <= margin:
        return model
    return DelayFreeModel(
        model.transition * (margin / radius), model.input_map, model.output_map
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
    holds l_c + l_s input vectors, the trailing l_s of which drive the
    forecast. The window is filtered once per model scored: the forecast
    reuses the gate's pass on the active model, or the winner's pass from
    selection when the update adapts.
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
        raise ValueError(
            f"window_outputs holds {y_raw.shape[0]} steps, config expects l_c={cfg.l_c}"
        )
    if u_raw.shape[0] != cfg.l_c + cfg.l_s:
        raise ValueError(
            f"window_and_future_inputs holds {u_raw.shape[0]} steps, expected "
            f"l_c + l_s = {cfg.l_c + cfg.l_s}"
        )

    if state.updates == 0:
        if not np.any(y_raw) or not np.any(u_raw):
            raise ColdStartError(
                "first window carries all-zero data; provide informative inputs "
                "before starting the engine"
            )
        state.scaler = Standardizer.fit(y_raw, u_raw[: cfg.l_c])
    else:
        state.scaler = state.scaler.absorb(y_raw, u_raw[: cfg.l_c])
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
            trace = kalman_forward(active.model, window, cfg.noise)
            gate_fit = window_error(active.model, window, cfg.noise, trace=trace)
            active.last_fit = gate_fit
    else:
        gate_fit = float("inf")

    adapted = False
    als_iters = 0
    if not had_models or gate_fit >= cfg.rho:
        adapted = True
        with _stage("model_adaptation"):
            view = normalized_view(state.tensor)
            warm = database.last_factors
            usable_warm = (
                cfg.warm_start
                and warm is not None
                and warm.dim == cfg.moment.mode_dim
                and warm.rank == cfg.rank
            )
            opts = replace(cfg.als, init=warm if usable_warm else None)
            factors, als_iters, _ = cp_als(view, cfg.rank, opts)
            realized = realize_components(factors, cfg.moment, cfg.realization)
            records = []
            for item in realized:
                model = _stabilize(item.model, cfg.stability_margin)
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
                [record.model for record in records], window, cfg.noise
            )
            records[index].selections += 1
            records[index].last_fit = best_fit
            state.database = RegimeDatabase(
                records=records, active_index=index, last_factors=factors
            )
            if not had_models:
                gate_fit = best_fit

    active = state.database.active()
    with _stage("forecasting"):
        predicted = forecast(
            active.model, window, u_all[cfg.l_c :], cfg.noise, trace=trace
        )
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


def run_stream(
    config: EngineConfig, trajectory: Trajectory
) -> tuple[list[UpdateReport], MetricsSummary]:
    """Stream a trajectory through consecutive non-overlapping windows.

    Each forecast is scored against the realized future outputs on the
    standardized scale; cumulative squared and absolute errors are reported
    alongside the final means.
    """
    state = engine_init(config)
    l_c, l_s = config.l_c, config.l_s
    total = len(trajectory)
    n_windows = (total - l_s) // l_c
    if n_windows < 1:
        raise DataError(
            f"trajectory of length {total} is too short for one window; "
            f"need at least l_c + l_s = {l_c + l_s} steps"
        )
    reports: list[UpdateReport] = []
    cumulative_se: list[float] = []
    cumulative_ae: list[float] = []
    total_se = 0.0
    total_ae = 0.0
    n_points = 0
    for w in range(n_windows):
        offset = w * l_c
        report = engine_update(
            state,
            trajectory.outputs[offset : offset + l_c],
            trajectory.inputs[offset : offset + l_c + l_s],
        )
        reports.append(report)
        actual = trajectory.outputs[offset + l_c : offset + l_c + l_s]
        diff = state.scaler.outputs(report.forecast) - state.scaler.outputs(actual)
        total_se += float(np.sum(diff * diff))
        total_ae += float(np.sum(np.abs(diff)))
        n_points += diff.size
        cumulative_se.append(total_se)
        cumulative_ae.append(total_ae)
    summary = MetricsSummary(
        horizon=l_s,
        mse=total_se / n_points,
        mae=total_ae / n_points,
        total_se=total_se,
        total_ae=total_ae,
        n_points=n_points,
        cumulative_se=cumulative_se,
        cumulative_ae=cumulative_ae,
        per_update_elapsed=[r.elapsed for r in reports],
        adapted_flags=[r.adapted for r in reports],
    )
    return reports, summary


def state_footprint_bytes(state: EngineState) -> int:
    """Bytes held in the numeric buffers of the streaming state."""
    total = state.tensor.data.nbytes
    for record in state.database.records:
        total += record.model.transition.nbytes
        total += record.model.input_map.nbytes
        total += record.model.output_map.nbytes
        total += record.markov.blocks.nbytes
    factors = state.database.last_factors
    if factors is not None:
        total += factors.mode1.nbytes + factors.mode2.nbytes + factors.mode3.nbytes
    if state.scaler is not None:
        total += sum(
            getattr(state.scaler, name).nbytes
            for name in ("out_mean", "out_std", "in_mean", "in_std")
        )
    return total


def _pack_section(payload: bytes) -> bytes:
    return struct.pack("<Q", len(payload)) + payload


def _models_blob(database: RegimeDatabase) -> bytes:
    chunks = [struct.pack("<II", len(database.records), database.active_index & 0xFFFFFFFF)]
    for record in database.records:
        model = record.model
        n, dc, d = model.state_dim, model.input_dim, model.output_dim
        chunks.append(struct.pack("<III", n, dc, d))
        chunks.append(model.transition.astype("<f8").tobytes())
        chunks.append(model.input_map.astype("<f8").tobytes())
        chunks.append(model.output_map.astype("<f8").tobytes())
    return b"".join(chunks)


def _read_models(blob: bytes, horizon: int) -> RegimeDatabase:
    count, active = struct.unpack_from("<II", blob, 0)
    offset = 8
    records = []
    for _ in range(count):
        n, dc, d = struct.unpack_from("<III", blob, offset)
        offset += 12

        def take(rows, cols):
            nonlocal offset
            size = rows * cols * 8
            arr = np.frombuffer(blob, dtype="<f8", count=rows * cols, offset=offset)
            offset += size
            return arr.astype(np.float64).reshape(rows, cols)

        model = DelayFreeModel(take(n, n), take(n, dc), take(d, n))
        records.append(
            ModelRecord(
                model=model,
                markov=markov_parameters_free(model, horizon),
                component_index=-1,
            )
        )
    if offset != len(blob):
        raise ParseError(f"model section holds {len(blob) - offset} unread bytes")
    active_index = -1 if active == 0xFFFFFFFF else int(active)
    return RegimeDatabase(records=records, active_index=active_index)


def save_checkpoint(state: EngineState, path) -> None:
    """Single-file checkpoint: version byte, then three length-prefixed
    sections (tensor snapshot, model database, config echo as JSON)."""
    cfg = state.config
    echo = {
        "moment": {
            "d": cfg.moment.d,
            "dc": cfg.moment.dc,
            "s": cfg.moment.s,
            "forgetting": cfg.moment.forgetting,
        },
        "rank": cfg.rank,
        "rho": cfg.rho,
        "l_c": cfg.l_c,
        "l_s": cfg.l_s,
        "warm_start": cfg.warm_start,
        "als": {"tol": cfg.als.tol, "seed": cfg.als.seed, "max_iters": cfg.als.max_iters},
        "noise": {
            "process_var": cfg.noise.process_var,
            "obs_var": cfg.noise.obs_var,
            "prior_var": cfg.noise.prior_var,
        },
        "realization": {
            "s": cfg.realization.s,
            "state_dim": cfg.realization.state_dim,
            "energy_threshold": cfg.realization.energy_threshold,
        },
        "updates": state.updates,
        "scaler": None
        if state.scaler is None
        else {
            "out_mean": state.scaler.out_mean.tolist(),
            "out_std": state.scaler.out_std.tolist(),
            "in_mean": state.scaler.in_mean.tolist(),
            "in_std": state.scaler.in_std.tolist(),
            "samples_seen": state.scaler.samples_seen,
        },
    }
    with open(path, "wb") as handle:
        handle.write(bytes([CHECKPOINT_VERSION]))
        handle.write(_pack_section(tensor_to_bytes(state.tensor)))
        handle.write(_pack_section(_models_blob(state.database)))
        handle.write(_pack_section(json.dumps(echo, sort_keys=True).encode("utf-8")))


def load_checkpoint(path) -> EngineState:
    """Rebuild streaming state from a checkpoint file.

    A file that is not one whole checkpoint of this version (truncated,
    padded, or with a damaged section) raises ParseError. Warm-start factors
    are not part of the format, so the first adaptation after a restore is
    a cold start.
    """
    with open(path, "rb") as handle:
        raw = handle.read()
    try:
        return _parse_checkpoint(raw)
    except (struct.error, ValueError, KeyError, TypeError) as err:
        cause = err if isinstance(err, ParseError) else f"{type(err).__name__}: {err}"
        raise ParseError(f"damaged checkpoint {path}: {cause}") from err


def _parse_checkpoint(raw: bytes) -> EngineState:
    if not raw or raw[0] != CHECKPOINT_VERSION:
        raise ParseError(
            f"unsupported checkpoint version (expected {CHECKPOINT_VERSION})"
        )
    offset = 1
    sections = []
    for index in range(3):
        (size,) = struct.unpack_from("<Q", raw, offset)
        offset += 8
        if offset + size > len(raw):
            raise ParseError(
                f"section {index} declares {size} bytes, "
                f"{len(raw) - offset} remain in the file"
            )
        sections.append(raw[offset : offset + size])
        offset += size
    if offset != len(raw):
        raise ParseError(f"{len(raw) - offset} trailing bytes after the last section")
    tensor = tensor_from_bytes(sections[0])
    echo = json.loads(sections[2].decode("utf-8"))
    moment = MomentConfig(**echo["moment"])
    config = EngineConfig(
        moment=moment,
        rank=echo["rank"],
        rho=echo["rho"],
        l_c=echo["l_c"],
        l_s=echo["l_s"],
        als=AlsOptions(
            max_iters=echo["als"]["max_iters"],
            tol=echo["als"]["tol"],
            seed=echo["als"]["seed"],
        ),
        realization=RealizationOptions(
            s=echo["realization"]["s"],
            state_dim=echo["realization"]["state_dim"],
            energy_threshold=echo["realization"]["energy_threshold"],
        ),
        noise=NoiseSpec(**echo["noise"]),
        warm_start=echo["warm_start"],
    )
    database = _read_models(sections[1], 2 * moment.s)
    scaler = None
    if echo["scaler"] is not None:
        scaler = Standardizer(
            out_mean=np.array(echo["scaler"]["out_mean"]),
            out_std=np.array(echo["scaler"]["out_std"]),
            in_mean=np.array(echo["scaler"]["in_mean"]),
            in_std=np.array(echo["scaler"]["in_std"]),
            samples_seen=echo["scaler"]["samples_seen"],
        )
    return EngineState(
        config=config,
        tensor=tensor,
        database=database,
        scaler=scaler,
        updates=echo["updates"],
    )
