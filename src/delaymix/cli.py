"""Command-line front end: data ingestion, streaming runs, benchmarks.

Commands:
    gen       render a scenario file to CSV
    run       stream a CSV or scenario through the engine, emit metrics
    bench     per-update timing over increasing stream lengths
    validate  grid-search rho x rank on a validation prefix
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import statistics
import sys
from dataclasses import dataclass, replace

import numpy as np

from . import datagen, engine, scenario
from .errors import DelayMixError, MappingError, ParseError
from .syslin import Trajectory, detect_delay, spectral_norm_profile

DEFAULT_RHO_GRID = (0.5, 0.6, 0.7, 0.8, 0.9, 1.0)
DEFAULT_RANK_GRID = (2, 4, 8, 10)


@dataclass
class RunManifest:
    """Resolved inputs for one invocation."""

    csv_path: str | None = None
    scenario_path: str | None = None
    output_columns: list[str] | None = None
    input_columns: list[str] | None = None
    out_dir: str = "."
    horizons: tuple[int, ...] = (1,)
    rho: float = 0.7
    rank: int = 2
    s: int = 3
    l_c: int | None = None
    forgetting: float = 1.0
    seed: int | None = None  # None: keep the scenario file's own seed
    val_fraction: float = 0.3

    def validate(self) -> None:
        if (self.csv_path is None) == (self.scenario_path is None):
            raise MappingError("exactly one of --csv or --scenario is required")
        if not self.horizons:
            raise MappingError("at least one forecast horizon is required")
        if self.csv_path is not None:
            outs = self.output_columns or []
            ins = self.input_columns or []
            if not outs or not ins:
                raise MappingError("CSV input needs --outputs and --inputs column lists")
            overlap = set(outs) & set(ins)
            if overlap:
                raise MappingError(
                    f"output and input column sets overlap: {sorted(overlap)}"
                )
        # JSON overrides reach here unconverted; type() also rules out bools
        problems = []
        if not all(type(h) is int and h >= 1 for h in self.horizons):
            problems.append(f"forecast horizons {list(self.horizons)} must be integers >= 1")
        for name in ("s", "rank", "l_c", "seed"):
            value = getattr(self, name)
            if type(value) is not int and not (value is None and name in ("l_c", "seed")):
                problems.append(f"{name}={value!r} must be an integer")
        for name in ("rho", "forgetting", "val_fraction"):
            if type(getattr(self, name)) not in (int, float):
                problems.append(f"{name}={getattr(self, name)!r} must be a number")
        if type(self.val_fraction) in (int, float) and not 0.0 < self.val_fraction <= 1.0:
            problems.append(f"val_fraction={self.val_fraction!r} must lie in (0, 1]")
        if problems:
            raise MappingError("; ".join(problems))


def _manifest_from_args(args: argparse.Namespace) -> RunManifest:
    manifest = RunManifest()
    config_path = getattr(args, "config", None)
    if config_path:
        with open(config_path, "r", encoding="utf-8") as handle:
            raw = json.load(handle)
        manifest.csv_path = raw.get("csv")
        manifest.scenario_path = raw.get("scenario")
        manifest.output_columns = raw.get("outputs")
        manifest.input_columns = raw.get("inputs")
        manifest.out_dir = raw.get("out", manifest.out_dir)
        overrides = raw.get("overrides", {})
        for key in ("rho", "rank", "s", "l_c", "forgetting", "seed", "val_fraction"):
            if key in overrides:
                setattr(manifest, key, overrides[key])
        if "l_s" in overrides:
            value = overrides["l_s"]
            manifest.horizons = tuple(value) if isinstance(value, list) else (value,)
    for attr, flag in (
        ("csv_path", "csv"),
        ("scenario_path", "scenario"),
        ("out_dir", "out"),
        ("rho", "rho"),
        ("rank", "rank"),
        ("s", "s"),
        ("l_c", "lc"),
        ("forgetting", "forgetting"),
        ("seed", "seed"),
        ("val_fraction", "val_fraction"),
    ):
        value = getattr(args, flag, None)
        if value is not None:
            setattr(manifest, attr, value)
    if getattr(args, "outputs", None):
        manifest.output_columns = args.outputs.split(",")
    if getattr(args, "inputs", None):
        manifest.input_columns = args.inputs.split(",")
    if getattr(args, "ls", None):
        manifest.horizons = tuple(int(v) for v in args.ls.split(","))
    manifest.validate()
    return manifest


def read_csv_trajectory(path: str, output_columns, input_columns) -> Trajectory:
    """Load a time-major CSV with a header row into a trajectory."""
    with open(path, "r", encoding="utf-8", newline="") as handle:
        reader = csv.reader(handle)
        try:
            header = next(reader)
        except StopIteration:
            raise ParseError(f"{path} is empty") from None
        header = [name.strip() for name in header]
        positions = {}
        for name in list(output_columns) + list(input_columns):
            if name not in header:
                raise MappingError(
                    f"column {name!r} not found in {path}; header has {header}"
                )
            positions[name] = header.index(name)
        outputs = []
        inputs = []
        for row_no, row in enumerate(reader, start=2):
            if not row or all(not cell.strip() for cell in row):
                continue
            if len(row) != len(header):
                raise ParseError(
                    f"expected {len(header)} fields, found {len(row)}", row=row_no
                )

            def grab(name):
                cell = row[positions[name]]
                try:
                    return float(cell)
                except ValueError:
                    raise ParseError(
                        f"cannot parse {cell!r} as a number", row=row_no, column=name
                    ) from None

            outputs.append([grab(name) for name in output_columns])
            inputs.append([grab(name) for name in input_columns])
    if not outputs:
        raise ParseError(f"{path} holds a header but no data rows")
    return Trajectory(np.array(outputs), np.array(inputs))


def write_csv_trajectory(path: str, trajectory: Trajectory) -> None:
    """Write t, y*, u* (and regime when labeled) with round-trip precision."""
    d = trajectory.output_dim
    dc = trajectory.input_dim
    header = (
        ["t"]
        + [f"y{i}" for i in range(d)]
        + [f"u{i}" for i in range(dc)]
        + (["regime"] if trajectory.regime_labels is not None else [])
    )
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        for t in range(len(trajectory)):
            row = [t]
            row += [repr(float(v)) for v in trajectory.outputs[t]]
            row += [repr(float(v)) for v in trajectory.inputs[t]]
            if trajectory.regime_labels is not None:
                row.append(int(trajectory.regime_labels[t]))
            writer.writerow(row)


def _load_trajectory(manifest: RunManifest, length: int | None = None) -> Trajectory:
    if manifest.scenario_path is not None:
        spec = scenario.load_scenario(manifest.scenario_path)
        if manifest.seed is not None:
            spec = replace(spec, seed=manifest.seed)
        if length is not None:
            schedule = tuple((t, r) for t, r in spec.schedule if t < length)
            spec = replace(spec, length=length, schedule=schedule or ((0, 1),))
        return datagen.generate(spec)
    trajectory = read_csv_trajectory(
        manifest.csv_path, manifest.output_columns, manifest.input_columns
    )
    if length is not None and len(trajectory) < length:
        reps = int(np.ceil(length / len(trajectory)))
        trajectory = Trajectory(
            np.tile(trajectory.outputs, (reps, 1))[:length],
            np.tile(trajectory.inputs, (reps, 1))[:length],
        )
    elif length is not None:
        trajectory = trajectory.window(0, length)
    return trajectory


def _config_for(manifest: RunManifest, d: int, dc: int, l_s: int,
                rho: float | None = None, rank: int | None = None) -> engine.EngineConfig:
    return engine.default_config(
        d=d,
        dc=dc,
        s=manifest.s,
        rank=int(rank if rank is not None else manifest.rank),
        rho=float(rho if rho is not None else manifest.rho),
        l_c=manifest.l_c,
        l_s=l_s,
        forgetting=manifest.forgetting,
        seed=manifest.seed if manifest.seed is not None else 0,
    )


def cmd_gen(args) -> int:
    spec = scenario.load_scenario(args.scenario)
    if args.seed is not None:
        spec = replace(spec, seed=args.seed)
    trajectory = datagen.generate(spec)
    write_csv_trajectory(args.out, trajectory)
    print(f"wrote {len(trajectory)} steps to {args.out}")
    return 0


def cmd_run(args) -> int:
    manifest = _manifest_from_args(args)
    os.makedirs(manifest.out_dir, exist_ok=True)
    trajectory = _load_trajectory(manifest)
    d = trajectory.output_dim
    config = _config_for(manifest, d, trajectory.input_dim, max(manifest.horizons))
    reports, summaries, state = engine.run_horizons(config, trajectory, manifest.horizons)

    metrics = {
        "horizons": list(manifest.horizons),
        "mse": {str(m.horizon): m.mse for m in summaries},
        "mae": {str(m.horizon): m.mae for m in summaries},
        "cumulative_mse": {str(m.horizon): m.cumulative_se for m in summaries},
        "cumulative_mae": {str(m.horizon): m.cumulative_ae for m in summaries},
        "updates": {str(m.horizon): len(m.adapted_flags) for m in summaries},
        "adaptations": {str(m.horizon): sum(m.adapted_flags) for m in summaries},
    }
    with open(os.path.join(manifest.out_dir, "metrics.json"), "w", encoding="utf-8") as f:
        json.dump(metrics, f, indent=2, sort_keys=True)

    l_c = config.l_c
    with open(
        os.path.join(manifest.out_dir, "forecasts.csv"), "w", encoding="utf-8", newline=""
    ) as f:
        writer = csv.writer(f)
        writer.writerow(["horizon", "t", "channel", "predicted", "actual"])
        for summary in summaries:
            for w, report in enumerate(reports[: len(summary.adapted_flags)]):
                for i in range(summary.horizon):
                    t = w * l_c + l_c + i
                    for ch in range(d):
                        writer.writerow(
                            [
                                summary.horizon,
                                t,
                                ch,
                                repr(float(report.forecast[i, ch])),
                                repr(float(trajectory.outputs[t, ch])),
                            ]
                        )

    with open(
        os.path.join(manifest.out_dir, "profile.csv"), "w", encoding="utf-8", newline=""
    ) as f:
        writer = csv.writer(f)
        writer.writerow(["update", "elapsed_seconds", "adapted"])
        for idx, report in enumerate(reports):
            writer.writerow([idx, f"{report.elapsed:.6f}", int(report.adapted)])

    with open(
        os.path.join(manifest.out_dir, "markov_profiles.csv"), "w", encoding="utf-8", newline=""
    ) as f:
        writer = csv.writer(f)
        writer.writerow(["regime", "block", "normalized_spectral_norm", "detected_delay"])
        for idx, record in enumerate(state.database.records):
            profile = spectral_norm_profile(record.markov)
            delay = detect_delay(profile)
            for block, value in enumerate(profile, start=1):
                writer.writerow([idx, block, repr(float(value)), delay])

    if getattr(args, "checkpoint", None):
        engine.save_checkpoint(state, args.checkpoint)

    for m in summaries:
        print(
            f"l_s={m.horizon}: mse={m.mse:.6g} mae={m.mae:.6g} "
            f"updates={len(m.adapted_flags)} adaptations={sum(m.adapted_flags)}"
        )
    return 0


def cmd_bench(args) -> int:
    manifest = _manifest_from_args(args)
    os.makedirs(manifest.out_dir, exist_ok=True)
    lengths = [int(v) for v in args.lengths.split(",")]
    l_s = manifest.horizons[0]
    summary_rows = []
    detail_rows = []
    for length in lengths:
        trajectory = _load_trajectory(manifest, length=length)
        config = _config_for(manifest, trajectory.output_dim, trajectory.input_dim, l_s)
        reports, metrics = engine.run_stream(config, trajectory)
        plain = [r.elapsed for r in reports if not r.adapted]
        spikes = [r.elapsed for r in reports if r.adapted]
        summary_rows.append(
            {
                "length": length,
                "updates": len(reports),
                "adaptations": len(spikes),
                "median_update_seconds": statistics.median(plain) if plain else float("nan"),
                "median_adaptation_seconds": statistics.median(spikes) if spikes else float("nan"),
            }
        )
        for idx, report in enumerate(reports):
            detail_rows.append([length, idx, f"{report.elapsed:.6f}", int(report.adapted)])
    with open(os.path.join(manifest.out_dir, "bench.csv"), "w", encoding="utf-8", newline="") as f:
        writer = csv.DictWriter(f, fieldnames=list(summary_rows[0].keys()))
        writer.writeheader()
        writer.writerows(summary_rows)
    with open(
        os.path.join(manifest.out_dir, "bench_detail.csv"), "w", encoding="utf-8", newline=""
    ) as f:
        writer = csv.writer(f)
        writer.writerow(["length", "update", "elapsed_seconds", "adapted"])
        writer.writerows(detail_rows)
    for row in summary_rows:
        print(
            f"length={row['length']}: median_update={row['median_update_seconds']:.6f}s "
            f"({row['updates']} updates, {row['adaptations']} adaptations)"
        )
    return 0


def best_cell(cells: list[dict]) -> dict:
    """Grid winner: lowest mse, ties broken by smaller rank, then larger rho."""
    scored = [c for c in cells if "mse" in c]
    if not scored:
        raise DelayMixError("no grid cell completed; validation prefix may be too short")
    return min(scored, key=lambda c: (c["mse"], c["rank"], -c["rho"]))


def cmd_validate(args) -> int:
    manifest = _manifest_from_args(args)
    os.makedirs(manifest.out_dir, exist_ok=True)
    rho_grid = (
        [float(v) for v in args.grid_rho.split(",")] if args.grid_rho else list(DEFAULT_RHO_GRID)
    )
    rank_grid = (
        [int(v) for v in args.grid_rank.split(",")] if args.grid_rank else list(DEFAULT_RANK_GRID)
    )
    if not rho_grid or not rank_grid:
        raise DelayMixError("validation grid is empty")
    trajectory = _load_trajectory(manifest)
    split = max(1, int(len(trajectory) * manifest.val_fraction))
    prefix = trajectory.window(0, split, input_stop=split)
    l_s = manifest.horizons[0]
    cells = []
    for rank in rank_grid:
        for rho in rho_grid:
            config = _config_for(
                manifest, trajectory.output_dim, trajectory.input_dim, l_s, rho=rho, rank=rank
            )
            try:
                _, metrics = engine.run_stream(config, prefix)
                cells.append(
                    {"rho": rho, "rank": rank, "mse": metrics.mse, "mae": metrics.mae}
                )
            except DelayMixError as err:
                cells.append({"rho": rho, "rank": rank, "error": str(err)})
    best = best_cell(cells)
    report = {"cells": cells, "best": {"rho": best["rho"], "rank": best["rank"]}}
    with open(os.path.join(manifest.out_dir, "validate.json"), "w", encoding="utf-8") as f:
        json.dump(report, f, indent=2, sort_keys=True)
    print(f"best cell: rho={best['rho']} rank={best['rank']} (mse={best['mse']:.6g})")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="delaymix",
        description="Streaming identification and forecasting for mixtures of time-delay systems",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="render a scenario file to CSV")
    gen.add_argument("--scenario", required=True, help="scenario file to render")
    gen.add_argument("--out", required=True, help="CSV file to write")
    gen.add_argument("--seed", type=int, default=None)
    gen.set_defaults(func=cmd_gen)

    def common(p):
        p.add_argument("--csv", default=None, help="CSV input path")
        p.add_argument("--scenario", default=None, help="scenario file input")
        p.add_argument("--outputs", default=None, help="comma list of output columns")
        p.add_argument("--inputs", default=None, help="comma list of input columns")
        p.add_argument("--config", default=None, help="manifest JSON path")
        p.add_argument("--out", default=None, help="output directory")
        p.add_argument("--ls", default=None, help="comma list of forecast horizons")
        p.add_argument("--rho", type=float, default=None, help="fit threshold")
        p.add_argument("--rank", type=int, default=None, help="CP rank / database size")
        p.add_argument("--s", type=int, default=None, help="maximum lag parameter")
        p.add_argument("--lc", type=int, default=None, help="window length")
        p.add_argument("--forgetting", type=float, default=None, help="tensor decay in (0,1]")
        p.add_argument("--seed", type=int, default=None)

    run = sub.add_parser("run", help="stream data through the engine")
    common(run)
    run.add_argument(
        "--checkpoint", default=None, help="write the final engine state to this file"
    )
    run.set_defaults(func=cmd_run)

    bench = sub.add_parser("bench", help="timing across stream lengths")
    common(bench)
    bench.add_argument("--lengths", required=True, help="comma list of stream lengths")
    bench.set_defaults(func=cmd_bench)

    validate = sub.add_parser("validate", help="grid-search rho x rank")
    common(validate)
    validate.add_argument("--grid-rho", default=None, help="comma list of rho values")
    validate.add_argument("--grid-rank", default=None, help="comma list of rank values")
    validate.add_argument("--val-frac", dest="val_fraction", type=float, default=None)
    validate.set_defaults(func=cmd_validate)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except DelayMixError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except OSError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
