"""Command-line front end: data ingestion, streaming runs, validation.

Commands:
    gen       render a scenario file to CSV
    run       stream a CSV or scenario through the engine, emit metrics
    validate  grid-search rho x rank on a validation prefix
"""

from __future__ import annotations

import argparse
import csv
import json
import os
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
        # JSON overrides reach here unconverted; type() also rules out bools
        problems = []
        paths = (("csv_path", "csv"), ("scenario_path", "scenario"), ("out_dir", "out"))
        for name, key in paths:
            value = getattr(self, name)
            if not isinstance(value, str) and not (value is None and key != "out"):
                problems.append(f"{key}={value!r} must be a string")
        for name, key in (("output_columns", "outputs"), ("input_columns", "inputs")):
            value = getattr(self, name)
            if value is not None and not (
                isinstance(value, list) and all(isinstance(v, str) for v in value)
            ):
                problems.append(f"{key}={value!r} must be a list of column names")
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


def _comma_list(text: str | None, convert, flag: str, default=()) -> list:
    """A comma list flag converted item by item, or the default when the flag
    is absent; a bad item is a MappingError."""
    if not text:
        return list(default)
    try:
        return [convert(v) for v in text.split(",")]
    except ValueError:
        raise MappingError(
            f"--{flag} {text!r} must be a comma list of {convert.__name__} values"
        ) from None


def _manifest_from_args(args: argparse.Namespace) -> RunManifest:
    manifest = RunManifest()
    config_path = getattr(args, "config", None)
    if config_path:
        with open(config_path, "r", encoding="utf-8") as handle:
            try:
                raw = json.load(handle)
            except ValueError as err:
                raise ParseError(f"{config_path} is not valid JSON: {err}") from None
        if not isinstance(raw, dict) or not isinstance(raw.get("overrides", {}), dict):
            raise MappingError(
                f"{config_path} must hold a JSON object whose overrides are an object"
            )
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
        manifest.horizons = tuple(_comma_list(args.ls, int, "ls"))
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


def _load_trajectory(manifest: RunManifest) -> Trajectory:
    if manifest.scenario_path is not None:
        spec = scenario.load_scenario(manifest.scenario_path)
        if manifest.seed is not None:
            spec = replace(spec, seed=manifest.seed)
        return datagen.generate(spec)
    return read_csv_trajectory(
        manifest.csv_path, manifest.output_columns, manifest.input_columns
    )


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
    trajectory = _load_trajectory(manifest)
    d = trajectory.output_dim
    config = _config_for(manifest, d, trajectory.input_dim, max(manifest.horizons))
    reports, summaries, state = engine.run_horizons(config, trajectory, manifest.horizons)
    os.makedirs(manifest.out_dir, exist_ok=True)
    # horizon h is scored on the first len(cumulative_se) windows
    scored = {m.horizon: len(m.cumulative_se) for m in summaries}
    adaptations = {h: sum(r.adapted for r in reports[:n]) for h, n in scored.items()}

    metrics = {
        "horizons": list(manifest.horizons),
        "mse": {str(m.horizon): m.mse for m in summaries},
        "mae": {str(m.horizon): m.mae for m in summaries},
        "cumulative_mse": {str(m.horizon): m.cumulative_se for m in summaries},
        "cumulative_mae": {str(m.horizon): m.cumulative_ae for m in summaries},
        "updates": {str(h): n for h, n in scored.items()},
        "adaptations": {str(h): n for h, n in adaptations.items()},
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
            for w, report in enumerate(reports[: scored[summary.horizon]]):
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
        writer.writerow(["update", "elapsed_seconds", "adapted", "als_iters", "als_residual"])
        for idx, report in enumerate(reports):
            residual = "" if report.als_residual is None else repr(report.als_residual)
            writer.writerow(
                [idx, f"{report.elapsed:.6f}", int(report.adapted), report.als_iters, residual]
            )

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
            f"updates={scored[m.horizon]} adaptations={adaptations[m.horizon]}"
        )
    return 0


def best_cell(cells: list[dict]) -> dict:
    """Grid winner: lowest mse, ties broken by smaller rank, then larger rho."""
    scored = [c for c in cells if "mse" in c]
    if not scored:
        first = f"; the first failed with: {cells[0]['error']}" if cells else ""
        raise DelayMixError(f"no grid cell completed{first}")
    return min(scored, key=lambda c: (c["mse"], c["rank"], -c["rho"]))


def cmd_validate(args) -> int:
    manifest = _manifest_from_args(args)
    rho_grid = _comma_list(args.grid_rho, float, "grid-rho", DEFAULT_RHO_GRID)
    rank_grid = _comma_list(args.grid_rank, int, "grid-rank", DEFAULT_RANK_GRID)
    trajectory = _load_trajectory(manifest)
    split = max(1, int(len(trajectory) * manifest.val_fraction))
    prefix = trajectory.window(0, split)
    l_s = manifest.horizons[0]  # cells are scored on the first-listed horizon
    cells = []
    for rank in rank_grid:
        for rho in rho_grid:
            config = _config_for(
                manifest, trajectory.output_dim, trajectory.input_dim, l_s, rho=rho, rank=rank
            )
            try:
                _, (metrics,), _ = engine.run_horizons(config, prefix, (l_s,))
                cells.append(
                    {"rho": rho, "rank": rank, "mse": metrics.mse, "mae": metrics.mae}
                )
            except DelayMixError as err:
                cells.append({"rho": rho, "rank": rank, "error": str(err)})
    best = best_cell(cells)
    report = {"cells": cells, "best": {"rho": best["rho"], "rank": best["rank"]}}
    os.makedirs(manifest.out_dir, exist_ok=True)
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
