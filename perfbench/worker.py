"""Run one workload in this process and print its result as JSON.

run.py starts one fresh process per workload, so peak RSS and set-up time
belong to that workload alone. The replay is a closed loop: the next
window goes to the engine only after the previous forecast has returned.

A cycle replays each of the workload's streams once. One run replays
MIN_CYCLES cycles, then more while another fits in --seconds. Each pass over
a stream makes the same updates, so each update's latency, and the rest of
each pass, is taken as its fastest over the cycles: the host's speed drifts
over seconds to minutes, and the fastest repeat is the steadiest estimate of
the program's own cost. With --trace 1 one more cycle follows with every layer
function wrapped, and the run reports per-layer metrics instead of
end-to-end ones.
"""

import os

# Pin BLAS to one thread before numpy is imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import csv  # noqa: E402
import functools  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
SRC = BENCH_DIR.parent / "src"
OUT = BENCH_DIR / "out"
MIN_CYCLES = 3  # fewest passes over each stream to take the fastest of
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import delaymix  # noqa: E402
from delaymix import cli, engine  # noqa: E402
from delaymix.errors import DelayMixError  # noqa: E402
from tracer import LAYERS, LayerStats, Tracer, rebind  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# name -> unit, in the order they are printed
END_TO_END = {
    "stream_steps_per_s": "steps/s",
    "plain_update_p50_ms": "ms",
    "adapt_update_p50_ms": "ms",
    "update_p95_ms": "ms",
    "forecast_mse": "std-mse",
    "state_bytes": "B",
    "peak_rss_mb": "MB",
    "setup_s": "s",
    "ok_update_share": "ratio",
}

# Layer functions whose self times make up engine_update's own time.
ENGINE_LAYERS = tuple(f"{module}.{fname}" for module, names in LAYERS.items()
                      if module not in ("engine", "cli") for fname in names)

# (function, statistic) pairs reported per layer; see layer_metrics.
PER_LAYER = {
    "moments.accumulate_window": ("calls", "busy_s", "p50_ms", "p95_ms", "share"),
    "moments.normalized_view": ("busy_s",),
    "filtering.kalman_forward": ("calls", "busy_s", "p50_ms", "per_update"),
    "filtering.rts_smoother": ("calls", "busy_s"),
    "filtering.window_error": ("busy_s",),
    "filtering.select_regime": ("busy_s",),
    "filtering.forecast": ("busy_s", "p50_ms"),
    "cpd.cp_als": ("calls", "busy_s", "p50_ms"),
    "realization.realize_components": ("calls", "busy_s"),
    "syslin.simulate_delay_free": ("busy_s",),
    "engine.engine_update": ("calls", "total_s", "self_s"),
    "cli.read_csv_trajectory": ("busy_s",),
    "cli.cmd_run": ("self_s",),
}
STAT_UNITS = {"calls": "count", "busy_s": "s", "self_s": "s", "total_s": "s",
              "p50_ms": "ms", "p95_ms": "ms", "share": "ratio", "per_update": "count"}
DERIVED_UNITS = {
    "moments.tensor_bytes": "B",
    "moments.triplets_per_window": "count",
    "cpd.als_iters.p50": "count",
    "cpd.als_residual.p50": "ratio",
    "realization.state_order.mean": "count",
    "engine.adaptation_share": "ratio",
    "engine.adapt_useful_share": "ratio",
    "engine.accounted_share": "ratio",
    "cli.engine_passes": "count",
    "trace.overhead_share": "ratio",
    "trace.spans": "count",
}


class UpdateLog:
    """Caller-side latency, adaptation flag and state size of each update.

    `begin_pass` starts a new list, so each pass keeps its own latencies in
    call order and passes over the same stream can be lined up update by
    update.
    """

    def __init__(self):
        self.latencies: list[list[float]] = []
        self.adapted: list[list[bool]] = []
        self.state_bytes = 0
        self.attempted = 0
        self.failed = 0

    def begin_pass(self) -> None:
        self.latencies.append([])
        self.adapted.append([])

    def timed(self, update, state, outputs, inputs):
        start = time.perf_counter()
        report = update(state, outputs, inputs)
        self.latencies[-1].append(time.perf_counter() - start)
        self.adapted[-1].append(bool(report.adapted))
        self.state_bytes = max(self.state_bytes, engine.state_footprint_bytes(state))
        return report


def library_pass(wl, traj, log):
    """Stream one trajectory through engine_update. Returns the wall time,
    the (first forecast step, forecast) pairs and the forecast bytes."""
    cfg = wl.engine_config()
    l_c, l_s = cfg.l_c, cfg.l_s
    forecasts = []
    start = time.perf_counter()
    state = engine.engine_init(cfg)
    for w in range((len(traj) - l_s) // l_c):
        offset = w * l_c
        log.attempted += 1
        try:
            report = log.timed(
                engine.engine_update, state,
                traj.outputs[offset: offset + l_c],
                traj.inputs[offset: offset + l_c + l_s],
            )
        except DelayMixError:
            log.failed += 1
            continue
        forecasts.append((offset + l_c, report.forecast))
    wall = time.perf_counter() - start
    return wall, forecasts, b"".join(np.ascontiguousarray(f).tobytes() for _, f in forecasts)


def cli_pass(wl, traj, csv_path, out_dir, log):
    """One in-process `delaymix run` over the stream's CSV. Returns the wall
    time, the longest horizon's forecasts and the forecasts.csv bytes."""
    args = wl.cli_args(str(csv_path), str(out_dir), traj.output_dim, traj.input_dim)
    expected = sum((len(traj) - h) // wl.config["l_c"] for h in wl.horizons)
    update = engine.engine_update
    undo = rebind(update, functools.partial(log.timed, update))
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(args)
    finally:
        undo()
    wall = time.perf_counter() - start
    log.attempted += expected
    if code != 0:
        log.failed += expected
        return wall, [], b""
    raw = (out_dir / "forecasts.csv").read_bytes()
    return wall, read_cli_forecasts(raw, max(wl.horizons), traj.output_dim), raw


def read_cli_forecasts(raw, horizon, d):
    """Group forecasts.csv rows of one horizon into (first step, forecast)."""
    reader = csv.DictReader(io.StringIO(raw.decode("utf-8")))
    rows = [row for row in reader if int(row["horizon"]) == horizon]
    chunk = horizon * d
    forecasts = []
    for begin in range(0, len(rows), chunk):
        block = rows[begin: begin + chunk]
        values = np.array([float(row["predicted"]) for row in block]).reshape(horizon, d)
        forecasts.append((int(block[0]["t"]), values))
    return forecasts


def replay(wl, passes, seconds, log, min_cycles, after_cycle=None):
    """Replay whole cycles over the streams: at least `min_cycles`, then more
    while another cycle still fits in `seconds`. `after_cycle` runs after
    each cycle, untimed. Returns, per stream, the (wall seconds, pass index
    in `log`) of each of its passes, and the first cycle's forecasts."""
    start = time.perf_counter()
    per_stream = [[] for _ in range(wl.streams)]
    first_cycle = []
    cycles, cycle_wall = 0, 0.0
    while cycles < min_cycles or time.perf_counter() - start + cycle_wall <= seconds:
        cycle_start = time.perf_counter()
        for k, (traj, run_pass) in enumerate(passes):
            log.begin_pass()
            wall, forecasts, raw = run_pass(log)
            per_stream[k].append((wall, len(log.latencies) - 1))
            if cycles == 0:
                first_cycle.append((traj, forecasts, raw))
        if after_cycle is not None:
            after_cycle()
        cycle_wall = time.perf_counter() - cycle_start
        cycles += 1
    return per_stream, first_cycle


def accuracy(first_cycle):
    """Standardized MSE of the forecasts and of persistence on the same
    windows, whether every forecast is finite, and a digest of the bytes."""
    se = persistence_se = 0.0
    points = 0
    finite = True
    digest = hashlib.sha256()
    for traj, forecasts, raw in first_cycle:
        digest.update(raw)
        scale = traj.outputs.std(axis=0)
        scale[scale == 0.0] = 1.0
        for t0, predicted in forecasts:
            finite = finite and bool(np.all(np.isfinite(predicted)))
            actual = traj.outputs[t0: t0 + predicted.shape[0]]
            baseline = delaymix.persistence_baseline(traj.window(0, t0), predicted.shape[0])
            se += float(np.sum(((predicted - actual) / scale) ** 2))
            persistence_se += float(np.sum(((baseline - actual) / scale) ** 2))
            points += actual.size
    if points == 0:
        return float("nan"), float("nan"), False, digest.hexdigest()
    return se / points, persistence_se / points, finite, digest.hexdigest()


def measure_setup(wl) -> float:
    """One cold start in a fresh interpreter (load generation excluded)."""
    command = [sys.executable, str(BENCH_DIR / "setup_probe.py"), str(SRC),
               "cli" if wl.cli else "engine", json.dumps(wl.config)]
    done = subprocess.run(command, capture_output=True, text=True, timeout=60, check=True)
    return float(done.stdout.split()[-1])


def environment() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "machine": platform.machine(),
        "cpus": os.cpu_count(),
    }


def mean_steps_per_s(per_stream, lengths) -> float:
    """Stream steps per wall second over every pass."""
    steps = sum(n * len(runs) for n, runs in zip(lengths, per_stream))
    return steps / sum(wall for runs in per_stream for wall, _ in runs)


def best_of_repeats(log, per_stream):
    """The fastest time of each piece of work over the passes of its stream.

    Every pass over a stream makes the same updates in the same order, so
    they line up by position. Returns each update's fastest latency, whether
    it adapted, and the sum over streams of their fastest pass: the fastest
    latency of each update plus the fastest rest of the pass (the loop
    around the updates, and on the CLI reading the CSV and writing results).
    """
    latencies, adapted, wall = [], [], 0.0
    for runs in per_stream:
        first = runs[0][1]
        same = [(pass_wall, np.array(log.latencies[i])) for pass_wall, i in runs
                if log.adapted[i] == log.adapted[first]]
        fastest = np.min([lat for _, lat in same], axis=0)
        wall += fastest.sum() + min(pass_wall - lat.sum() for pass_wall, lat in same)
        latencies.append(fastest)
        adapted.append(np.array(log.adapted[first], dtype=bool))
    return np.concatenate(latencies), np.concatenate(adapted), wall


def end_to_end_metrics(log, per_stream, lengths, mse, setup_s) -> dict:
    latency, adapted, wall = best_of_repeats(log, per_stream)
    latency = latency * 1e3
    plain, spikes = latency[~adapted], latency[adapted]
    return {
        "stream_steps_per_s": sum(lengths) / wall,
        "plain_update_p50_ms": float(np.median(plain)) if plain.size else 0.0,
        "adapt_update_p50_ms": float(np.median(spikes)) if spikes.size else 0.0,
        "update_p95_ms": float(np.percentile(latency, 95)) if latency.size else 0.0,
        "forecast_mse": mse,
        "state_bytes": log.state_bytes,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "setup_s": setup_s,
        "ok_update_share": (log.attempted - log.failed) / log.attempted,
    }


def layer_metrics(spans, wl, traced_rate, untraced_rate) -> dict:
    """Per-layer metrics of one traced cycle.

    busy_s and self_s are self time: a function's spans minus the wrapped
    calls made inside them, so they add up to engine_update's total. Call
    percentiles use whole call durations.
    """
    stats = LayerStats(spans)
    updates = stats.count("engine.engine_update")
    update_time = stats.total("engine.engine_update")

    def ratio(num, den):
        return num / den if den else 0.0

    stat_fns = {
        "calls": stats.count,
        "busy_s": stats.busy,
        "self_s": stats.busy,
        "total_s": stats.total,
        "p50_ms": lambda name: stats.percentile_ms(name, 50),
        "p95_ms": lambda name: stats.percentile_ms(name, 95),
        "share": lambda name: ratio(stats.busy(name), update_time),
        "per_update": lambda name: ratio(stats.count(name), updates),
    }
    metrics = {f"{name}.{stat}": stat_fns[stat](name)
               for name, stat_names in PER_LAYER.items() for stat in stat_names}

    moment = wl.engine_config().moment
    k_max, l_c, rho = moment.k_max, wl.config["l_c"], wl.config["rho"]
    fits = stats.info("filtering.select_regime", "fit")
    orders = [n for item in stats.info("realization.realize_components", "orders") for n in item]
    metrics.update({
        "moments.tensor_bytes": moment.mode_dim ** 3 * 8,
        "moments.triplets_per_window": sum(
            1 for k1 in range(1, k_max + 1) for k2 in range(1, k_max + 1)
            for k3 in range(1, k_max + 1) if l_c - (k1 + k2 + k3 + 2) > 0
        ),
        "cpd.als_iters.p50": _median(stats.info("cpd.cp_als", "iters")),
        "cpd.als_residual.p50": _median(stats.info("cpd.cp_als", "residual")),
        "realization.state_order.mean": statistics.fmean(orders) if orders else 0.0,
        "engine.adaptation_share": ratio(
            sum(stats.info("engine.engine_update", "adapted")), updates),
        "engine.adapt_useful_share": ratio(sum(1 for fit in fits if fit < rho), len(fits)),
        "engine.accounted_share": ratio(
            stats.busy("engine.engine_update") + sum(stats.busy(n) for n in ENGINE_LAYERS),
            update_time),
        "cli.engine_passes": ratio(stats.count("engine.engine_init"),
                                   stats.count("cli.cmd_run")),
        "trace.overhead_share": 1.0 - ratio(traced_rate, untraced_rate),
        "trace.spans": len(spans),
    })
    return metrics


def _median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def metric_units() -> dict:
    units = {f"{name}.{stat}": STAT_UNITS[stat]
             for name, stat_names in PER_LAYER.items() for stat in stat_names}
    units.update(DERIVED_UNITS)
    return units


def build_passes(wl, seed, work_dir):
    passes = []
    for k in range(wl.streams):
        traj = wl.stream(seed, k)
        if wl.cli:
            csv_path = work_dir / f"stream{k}.csv"
            cli.write_csv_trajectory(str(csv_path), traj)
            run_pass = functools.partial(cli_pass, wl, traj, csv_path, work_dir / f"run{k}")
        else:
            run_pass = functools.partial(library_pass, wl, traj)
        passes.append((traj, run_pass))
    return passes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if not Path(delaymix.__file__).resolve().is_relative_to(SRC.resolve()):
        raise RuntimeError(f"delaymix was imported from {delaymix.__file__}, not {SRC}")

    wl = WORKLOADS[args.workload]
    tag = f"{wl.name}-seed{args.seed}"
    work_dir = OUT / "work" / tag
    work_dir.mkdir(parents=True, exist_ok=True)
    passes = build_passes(wl, args.seed, work_dir)

    # Cold starts, one before the replay and one after each cycle, so that
    # together they span the run.
    setup_times = []
    probe = None if args.trace else lambda: setup_times.append(measure_setup(wl))
    if probe is not None:
        probe()
    log = UpdateLog()
    per_stream, first_cycle = replay(wl, passes, args.seconds, log, MIN_CYCLES, probe)
    lengths = [len(traj) for traj, _ in passes]
    mse, persistence_mse, finite, digest = accuracy(first_cycle)
    correct = finite and mse < persistence_mse

    if args.trace:
        tracer = Tracer()
        tracer.install()
        try:
            traced, _ = replay(wl, passes, 0.0, UpdateLog(), 1)
        finally:
            tracer.remove()
        tracer.write(OUT / f"{tag}.spans.jsonl")
        # Overhead against the last untraced cycle, the closest in time:
        # the host's speed drifts over a run.
        last_cycle = [runs[-1:] for runs in per_stream]
        values = layer_metrics(tracer.spans, wl, mean_steps_per_s(traced, lengths),
                               mean_steps_per_s(last_cycle, lengths))
        units = metric_units()
    else:
        values = end_to_end_metrics(log, per_stream, lengths, mse,
                                    statistics.median(setup_times))
        units = END_TO_END

    adapted = sum(sum(flags) for flags in log.adapted[:wl.streams])
    updates = sum(len(flags) for flags in log.adapted[:wl.streams])
    details = {
        "workload": wl.name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": environment(),
        "forecast_sha256": digest, "forecast_mse": mse,
        "persistence_mse": persistence_mse, "all_forecasts_finite": finite,
        "cycles": len(per_stream[0]),
        "pass_walls_s": [[wall for wall, _ in runs] for runs in per_stream],
        "updates_per_cycle": updates, "setup_s_samples": setup_times,
        "adapting_updates": adapted, "plain_updates": updates - adapted,
    }
    result = {
        "correct": bool(correct),
        "attempted": log.attempted,
        "failed": log.failed,
        # A non-finite value (only possible when the forecasts are) reads as null.
        "metrics": {name: {"value": values[name] if math.isfinite(values[name]) else None,
                           "unit": unit} for name, unit in units.items()},
    }
    with open(OUT / f"{tag}-trace{args.trace}.json", "w", encoding="utf-8") as handle:
        json.dump({**details, "result": result}, handle, indent=2)

    for key, value in details.items():
        print(f"# {key}: {value}")
    for name, unit in units.items():
        print(f"{name:<36} {values[name]:>16.6g} {unit}")
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
