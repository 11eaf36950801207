"""Human-readable scenario files.

Grammar (line oriented, '#' starts a comment):

    length = 4000            # stream length, required
    seed = 7                 # RNG seed, default 0
    input = rademacher       # or: gaussian <sigma> | uniform <half_width>
    obs_noise_std = 0.01     # default 0

    [regime]                 # one section per regime, in order
    delay = 1
    A = [0.5 0.1; 0.0 0.4]   # matrix literal: ';' separates rows
    B = [1.0; 0.5]
    C = [1.0 0.0]

    [schedule]               # optional; default: regime 1 from time 0
    0 1                      # start_time regime_index (1-based)
    2000 2
"""

from __future__ import annotations

import numpy as np

from .datagen import InputDistribution, ScenarioSpec
from .errors import ParseError
from .syslin import TimeDelaySystem


def _parse_matrix(text: str, row: int) -> np.ndarray:
    text = text.strip()
    if not (text.startswith("[") and text.endswith("]")):
        raise ParseError("matrix literal must be enclosed in brackets", row=row)
    body = text[1:-1].strip()
    if not body:
        raise ParseError("matrix literal is empty", row=row)
    rows = []
    width = None
    for chunk in body.split(";"):
        entries = chunk.replace(",", " ").split()
        if not entries:
            raise ParseError("matrix literal has an empty row", row=row)
        try:
            values = [float(e) for e in entries]
        except ValueError as err:
            raise ParseError(f"bad matrix entry: {err}", row=row) from None
        if width is None:
            width = len(values)
        elif len(values) != width:
            raise ParseError("matrix rows have inconsistent lengths", row=row)
        rows.append(values)
    return np.array(rows, dtype=np.float64)


def _parse_input_dist(text: str, row: int) -> InputDistribution:
    parts = text.split()
    kind = parts[0]
    if kind == "rademacher":
        if len(parts) != 1:
            raise ParseError("rademacher takes no parameter", row=row)
        return InputDistribution.rademacher()
    if kind in ("gaussian", "uniform"):
        if len(parts) != 2:
            raise ParseError(f"{kind} needs exactly one parameter", row=row)
        try:
            scale = float(parts[1])
        except ValueError:
            raise ParseError(f"bad {kind} parameter {parts[1]!r}", row=row) from None
        return InputDistribution(kind, scale)
    raise ParseError(f"unknown input distribution {kind!r}", row=row)


def _number(entries: dict, key: str, kind, default, what: str | None = None):
    """entries[key] parsed as kind (int or float), or default when absent."""
    if key not in entries:
        return default
    value, row = entries[key]
    try:
        return kind(value)
    except ValueError:
        noun = "an integer" if kind is int else "a number"
        raise ParseError(f"{what or key} must be {noun}", row=row) from None


def parse_scenario(text: str) -> ScenarioSpec:
    """Parse scenario text into a ScenarioSpec."""
    top: dict[str, tuple[str, int]] = {}
    regimes: list[dict] = []
    schedule: list[tuple[int, int]] = []
    section = None  # None | "regime" | "schedule"
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("["):
            if line == "[regime]":
                section = "regime"
                regimes.append({})
            elif line == "[schedule]":
                section = "schedule"
            else:
                raise ParseError(f"unknown section {line}", row=lineno)
            continue
        if section == "schedule":
            parts = line.split()
            if len(parts) != 2:
                raise ParseError(
                    "schedule lines must be 'start_time regime_index'", row=lineno
                )
            try:
                schedule.append((int(parts[0]), int(parts[1])))
            except ValueError:
                raise ParseError("schedule entries must be integers", row=lineno) from None
            continue
        if "=" not in line:
            raise ParseError("expected 'key = value'", row=lineno)
        key, value = (part.strip() for part in line.split("=", 1))
        if section == "regime":
            regimes[-1][key] = (value, lineno)
        else:
            top[key] = (value, lineno)

    if "length" not in top:
        raise ParseError("missing required key 'length'")
    length = _number(top, "length", int, None)
    seed = _number(top, "seed", int, 0)
    noise = _number(top, "obs_noise_std", float, 0.0)
    dist = InputDistribution.rademacher()
    if "input" in top:
        dist = _parse_input_dist(top["input"][0], top["input"][1])

    if not regimes:
        raise ParseError("at least one [regime] section is required")
    systems = []
    for i, entry in enumerate(regimes, start=1):
        for key in ("A", "B", "C"):
            if key not in entry:
                raise ParseError(f"regime {i} is missing matrix {key}")
        delay = _number(entry, "delay", int, 0, f"regime {i} delay")
        systems.append(
            TimeDelaySystem(
                transition=_parse_matrix(*entry["A"]),
                input_map=_parse_matrix(*entry["B"]),
                output_map=_parse_matrix(*entry["C"]),
                delay=delay,
            )
        )
    if not schedule:
        schedule = [(0, 1)]
    return ScenarioSpec(
        regimes=tuple(systems),
        length=length,
        schedule=tuple(schedule),
        input_dist=dist,
        obs_noise_std=noise,
        seed=seed,
    )


def load_scenario(path) -> ScenarioSpec:
    with open(path, "r", encoding="utf-8") as handle:
        return parse_scenario(handle.read())


def _format_matrix(mat: np.ndarray) -> str:
    rows = ["  ".join(repr(float(v)) for v in row) for row in np.atleast_2d(mat)]
    return "[" + "; ".join(rows) + "]"


def format_scenario(spec: ScenarioSpec) -> str:
    """Render a ScenarioSpec back into scenario text."""
    lines = [
        f"length = {spec.length}",
        f"seed = {spec.seed}",
    ]
    if spec.input_dist.kind == "rademacher":
        lines.append("input = rademacher")
    else:
        lines.append(f"input = {spec.input_dist.kind} {spec.input_dist.scale!r}")
    lines.append(f"obs_noise_std = {spec.obs_noise_std!r}")
    for regime in spec.regimes:
        lines.append("")
        lines.append("[regime]")
        lines.append(f"delay = {regime.delay}")
        lines.append(f"A = {_format_matrix(regime.transition)}")
        lines.append(f"B = {_format_matrix(regime.input_map)}")
        lines.append(f"C = {_format_matrix(regime.output_map)}")
    lines.append("")
    lines.append("[schedule]")
    for start, index in spec.schedule:
        lines.append(f"{start} {index}")
    lines.append("")
    return "\n".join(lines)


def save_scenario(spec: ScenarioSpec, path) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(format_scenario(spec))
