"""The benchmark's workloads: which system generates the stream, how the
engine is configured, and how much stream one cycle replays.

Every workload replays `streams` independent streams of `length` steps per
cycle. Stream k of seed n is drawn from seed `n * 1000 + k`, so a seed fixes
every input the engine sees. The systems themselves are fixed: they define
the workload, the seed only draws the inputs and the noise.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

import delaymix as dm
from delaymix.datagen import random_stable_system


@dataclass(frozen=True)
class Workload:
    name: str
    scenario: Callable  # (length, seed) -> delaymix.ScenarioSpec
    streams: int        # distinct streams per cycle
    length: int         # steps per stream
    config: dict        # keyword arguments of delaymix.default_config
    horizons: tuple     # forecast horizons; the CLI workload runs all of them
    cli: bool           # replay through `delaymix run` instead of engine_update

    def engine_config(self):
        return dm.default_config(**self.config)

    def stream(self, seed: int, k: int):
        return dm.generate(self.scenario(self.length, seed * 1000 + k))

    def cli_args(self, csv_path: str, out_dir: str, d: int, dc: int) -> list:
        cfg = self.config
        return [
            "run", "--csv", csv_path,
            "--outputs", ",".join(f"y{i}" for i in range(d)),
            "--inputs", ",".join(f"u{i}" for i in range(dc)),
            "--s", str(cfg["s"]), "--lc", str(cfg["l_c"]),
            "--ls", ",".join(str(h) for h in self.horizons),
            "--rho", str(cfg["rho"]), "--rank", str(cfg["rank"]),
            "--out", out_dir,
        ]


def _regime_switch(length: int, seed: int):
    # The README scenario: SISO, delays 1 and 3, switch at mid-stream.
    first = dm.TimeDelaySystem(0.6, 1.0, 1.0, delay=1)
    second = dm.TimeDelaySystem(
        np.array([[0.5, 0.1], [0.0, 0.4]]), np.array([[1.0], [0.5]]),
        np.array([[1.0, 0.0]]), delay=3,
    )
    return dm.ScenarioSpec(
        regimes=(first, second), length=length,
        schedule=((0, 1), (length // 2, 2)), obs_noise_std=0.01, seed=seed,
    )


def _steady_mimo(length: int, seed: int):
    # The acceptance suite's criterion-8 system: one 2x2 regime, delay 1.
    system = random_stable_system(
        np.random.default_rng(808), 2, 2, 2, delay=1, spectral_radius=0.7
    )
    return dm.ScenarioSpec(regimes=(system,), length=length, seed=seed)


def _cli_multi_horizon(length: int, seed: int):
    # Two first-order 2x2 regimes with delays 2 and 5. The engine learns the
    # first within a few windows and adapts on every window after the
    # switch, so a late switch leaves non-adapting updates in every stream.
    rng = np.random.default_rng(48)
    first = random_stable_system(rng, 1, 2, 2, delay=2, spectral_radius=0.5)
    second = random_stable_system(rng, 1, 2, 2, delay=5, spectral_radius=0.5)
    return dm.ScenarioSpec(
        regimes=(first, second), length=length,
        schedule=((0, 1), (2 * length // 3, 2)), obs_noise_std=0.01, seed=seed,
    )


WORKLOADS = {
    wl.name: wl
    for wl in (
        Workload(
            "regime_switch", _regime_switch, streams=8, length=2000,
            config=dict(d=1, dc=1, s=3, rank=2, rho=0.5, l_c=60, l_s=10),
            horizons=(10,), cli=False,
        ),
        Workload(
            "steady_mimo", _steady_mimo, streams=8, length=1500,
            config=dict(d=2, dc=2, s=3, rank=2, rho=0.7, l_c=21, l_s=1),
            horizons=(1,), cli=False,
        ),
        Workload(
            "cli_multi_horizon", _cli_multi_horizon, streams=2, length=2000,
            config=dict(d=2, dc=2, s=4, rank=2, rho=0.5, l_c=78, l_s=30),
            horizons=(1, 10, 30), cli=True,
        ),
    )
}
