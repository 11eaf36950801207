import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import delaymix
from delaymix import TimeDelaySystem
from delaymix.cli import main, read_csv_trajectory, write_csv_trajectory
from delaymix.datagen import ScenarioSpec, generate
from delaymix.errors import ParseError
from delaymix.scenario import parse_scenario

SCENARIO_TWO_REGIMES = """
# two scalar regimes with different delays
length = 2600
seed = 7
input = rademacher
obs_noise_std = 0.0

[regime]
delay = 1
A = [0.6]
B = [1.0]
C = [1.0]

[regime]
delay = 2
A = [0.5]
B = [1.0]
C = [1.0]

[schedule]
0 1
1300 2
"""


@pytest.fixture
def scenario_file(tmp_path):
    path = tmp_path / "two_regimes.scn"
    path.write_text(SCENARIO_TWO_REGIMES, encoding="utf-8")
    return path


class TestScenarioFormat:
    def test_parse_basic(self):
        spec = parse_scenario(SCENARIO_TWO_REGIMES)
        assert spec.length == 2600
        assert spec.seed == 7
        assert len(spec.regimes) == 2
        assert spec.regimes[0].delay == 1
        assert spec.schedule == ((0, 1), (1300, 2))

    def test_matrix_literals(self):
        spec = parse_scenario(
            """
length = 100
[regime]
delay = 0
A = [0.5 0.1; 0.0 0.4]
B = [1.0; 0.5]
C = [1.0 0.0]
"""
        )
        assert spec.regimes[0].transition.shape == (2, 2)
        assert spec.regimes[0].input_map.shape == (2, 1)

    def test_parse_errors_carry_rows(self):
        with pytest.raises(ParseError, match="row"):
            parse_scenario("length = ten\n")
        with pytest.raises(ParseError):
            parse_scenario("length = 100\n[regime]\ndelay = 1\n")  # missing matrices
        regime = "[regime]\ndelay = {delay}\nA = {a}\nB = [1.0]\nC = [1.0]\n"
        for top, delay, a, row in (
            ("input =", 1, "[0.5]", 2),
            ("input = gaussian -1", 1, "[0.5]", 2),
            ("obs_noise_std = nan", 1, "[0.5]", 2),
            ("", 1, "[nan]", 5),
            ("", 1, "[0.5 0; 0 inf]", 5),
            ("", -1, "[0.5]", 3),
            ("", 1, "[0.5 0.1]", 3),
        ):
            text = f"length = 100\n{top}\n" + regime.format(delay=delay, a=a)
            with pytest.raises(ParseError, match=f"row {row}"):
                parse_scenario(text)

    @pytest.mark.parametrize(
        "top, schedule, message, row",
        [
            ("obs_noise_std = -1", "", "obs_noise_std cannot be negative", 2),
            ("", "[schedule]\n0 1\n50 3\n", "schedule refers to unknown regime 3", 11),
            ("", "[schedule]\n0 1\n80 1\n50 1\n", "schedule change points must be sorted", 12),
            ("", "[schedule]\n5 1\n", "schedule must start at time 0", 10),
            ("seed = -2", "", "seed must be non-negative", 2),
            ("", "[regime]\nA = [0.5]\nB = [1.0]\nC = [1.0; 1.0]\n", "regime 2 has dims", 9),
        ],
        ids=["noise", "unknown-regime", "unsorted", "late-start", "seed", "regime-dims"],
    )
    def test_spec_errors_carry_rows(self, top, schedule, message, row):
        # ScenarioSpec refuses these values; the parser names the line
        text = (
            f"length = 100\n{top}\n[regime]\ndelay = 1\nA = [0.5]\nB = [1.0]\nC = [1.0]\n\n"
            + schedule
        )
        with pytest.raises(ParseError, match=rf"^{message}.* \(row {row}\)$"):
            parse_scenario(text)

    @pytest.mark.parametrize(
        "length, schedule",
        [(0, ""), (-3, "[schedule]\n0 1\n")],
        ids=["zero", "negative-with-schedule"],
    )
    def test_length_checked_before_schedule(self, length, schedule):
        # every change point lies outside a stream of no length, so the
        # length is what the error names
        text = f"length = {length}\n[regime]\nA = [0.5]\nB = [1.0]\nC = [1.0]\n" + schedule
        with pytest.raises(
            ParseError, match=rf"^length must be positive, got {length} \(row 1\)$"
        ):
            parse_scenario(text)

    def test_input_distributions(self):
        for text, kind in (
            ("gaussian 0.5", "gaussian"),
            ("uniform 2.0", "uniform"),
            ("rademacher", "rademacher"),
        ):
            spec = parse_scenario(
                f"length = 50\ninput = {text}\n[regime]\ndelay = 0\n"
                "A = [0.5]\nB = [1.0]\nC = [1.0]\n"
            )
            assert spec.input_dist.kind == kind


class TestCsvRoundTrip:
    def test_exact_float_round_trip(self, tmp_path):
        sys = TimeDelaySystem(0.6, 1.0, 1.0, delay=1)
        traj = generate(ScenarioSpec(regimes=(sys,), length=50, seed=1))
        path = tmp_path / "data.csv"
        write_csv_trajectory(path, traj)
        back = read_csv_trajectory(path, ["y0"], ["u0"])
        assert np.array_equal(back.outputs, traj.outputs)
        assert np.array_equal(back.inputs, traj.inputs)

    def test_missing_column(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("a,b\n1,2\n", encoding="utf-8")
        from delaymix.errors import MappingError

        with pytest.raises(MappingError, match="not found"):
            read_csv_trajectory(path, ["y0"], ["a"])

    def test_empty_csv(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("", encoding="utf-8")
        with pytest.raises(ParseError, match="empty"):
            read_csv_trajectory(path, ["y0"], ["u0"])

    def test_bad_cell_reports_row_and_column(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("y0,u0\n1.0,2.0\nx,3.0\n", encoding="utf-8")
        with pytest.raises(ParseError, match="row 3"):
            read_csv_trajectory(path, ["y0"], ["u0"])


class TestGenCommand:
    def test_gen_writes_csv(self, tmp_path, scenario_file, capsys):
        out = tmp_path / "stream.csv"
        code = main(["gen", "--scenario", str(scenario_file), "--out", str(out)])
        assert code == 0
        with open(out) as handle:
            header = handle.readline().strip().split(",")
        assert header == ["t", "y0", "u0", "regime"]

    def test_negative_seed_exits_2(self, tmp_path, scenario_file, capsys):
        out = tmp_path / "stream.csv"
        argv = ["gen", "--scenario", str(scenario_file), "--out", str(out), "--seed", "-1"]
        assert main(argv) == 2
        assert "seed must be non-negative, got -1" in capsys.readouterr().err
        assert not out.exists()

    def test_gen_seed_override(self, tmp_path, scenario_file):
        out1 = tmp_path / "a.csv"
        out2 = tmp_path / "b.csv"
        main(["gen", "--scenario", str(scenario_file), "--out", str(out1), "--seed", "1"])
        main(["gen", "--scenario", str(scenario_file), "--out", str(out2), "--seed", "2"])
        assert out1.read_bytes() != out2.read_bytes()


class TestRunCommand:
    def test_run_scenario_emits_artifacts(self, tmp_path, scenario_file):
        out = tmp_path / "results"
        code = main(
            [
                "run",
                "--scenario",
                str(scenario_file),
                "--out",
                str(out),
                "--ls",
                "1,10,30",
                "--rho",
                "0.5",
                "--rank",
                "2",
                "--lc",
                "100",
                "--seed",
                "7",
            ]
        )
        assert code == 0
        metrics = json.loads((out / "metrics.json").read_text())
        assert set(metrics["mse"].keys()) == {"1", "10", "30"}
        assert set(metrics["mae"].keys()) == {"1", "10", "30"}
        for name in ("forecasts.csv", "profile.csv", "markov_profiles.csv"):
            assert (out / name).exists()
        with open(out / "markov_profiles.csv") as handle:
            rows = list(csv.DictReader(handle))
        regimes = {row["regime"] for row in rows}
        assert len(regimes) >= 1
        assert all("normalized_spectral_norm" in row for row in rows)
        with open(out / "profile.csv") as handle:
            updates = list(csv.DictReader(handle))
        assert updates and int(updates[0]["adapted"]) == 1
        for row in updates:
            if int(row["adapted"]):
                assert int(row["als_iters"]) >= 1
                assert 0.0 <= float(row["als_residual"]) <= 1.0
            else:
                assert row["als_iters"] == "0" and row["als_residual"] == ""

    def test_rerun_is_byte_identical(self, tmp_path, scenario_file):
        out1 = tmp_path / "r1"
        out2 = tmp_path / "r2"
        args = [
            "run",
            "--scenario",
            str(scenario_file),
            "--ls",
            "1",
            "--rho",
            "0.5",
            "--rank",
            "2",
            "--lc",
            "100",
            "--seed",
            "3",
        ]
        assert main(args + ["--out", str(out1)]) == 0
        assert main(args + ["--out", str(out2)]) == 0
        for name in ("metrics.json", "forecasts.csv", "markov_profiles.csv"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_run_csv_input(self, tmp_path, scenario_file):
        csv_path = tmp_path / "stream.csv"
        main(["gen", "--scenario", str(scenario_file), "--out", str(csv_path)])
        out = tmp_path / "res"
        code = main(
            [
                "run",
                "--csv",
                str(csv_path),
                "--outputs",
                "y0",
                "--inputs",
                "u0",
                "--out",
                str(out),
                "--ls",
                "1",
                "--lc",
                "100",
                "--rank",
                "2",
                "--seed",
                "0",
            ]
        )
        assert code == 0
        assert (out / "metrics.json").exists()

    @pytest.mark.parametrize("command", ["run", "validate"])
    def test_negative_seed_on_csv_exits_2(self, tmp_path, scenario_file, capsys, command):
        csv_path = tmp_path / "stream.csv"
        main(["gen", "--scenario", str(scenario_file), "--out", str(csv_path)])
        capsys.readouterr()
        out = tmp_path / "res"
        argv = ["--csv", str(csv_path), "--outputs", "y0", "--inputs", "u0", "--out", str(out)]
        assert main([command, *argv, "--seed", "-1"]) == 2
        assert "seed=-1 must be non-negative" in capsys.readouterr().err
        assert not out.exists()

    def test_overlapping_columns_rejected(self, tmp_path, scenario_file, capsys):
        csv_path = tmp_path / "stream.csv"
        main(["gen", "--scenario", str(scenario_file), "--out", str(csv_path)])
        code = main(
            [
                "run",
                "--csv",
                str(csv_path),
                "--outputs",
                "y0",
                "--inputs",
                "y0",
                "--out",
                str(tmp_path / "x"),
            ]
        )
        assert code == 2
        assert "overlap" in capsys.readouterr().err

    def test_empty_csv_nonzero_exit(self, tmp_path, capsys):
        bad = tmp_path / "empty.csv"
        bad.write_text("", encoding="utf-8")
        code = main(
            [
                "run",
                "--csv",
                str(bad),
                "--outputs",
                "y0",
                "--inputs",
                "u0",
                "--out",
                str(tmp_path / "out"),
            ]
        )
        assert code == 2
        assert "empty" in capsys.readouterr().err

    def test_checkpoint_flag(self, tmp_path, scenario_file):
        from delaymix.engine import load_checkpoint

        out = tmp_path / "ck"
        ckpt = tmp_path / "state.bin"
        code = main(
            [
                "run",
                "--scenario",
                str(scenario_file),
                "--out",
                str(out),
                "--ls",
                "1",
                "--lc",
                "100",
                "--rank",
                "2",
                "--seed",
                "0",
                "--checkpoint",
                str(ckpt),
            ]
        )
        assert code == 0
        state = load_checkpoint(ckpt)
        assert state.updates > 0
        assert state.tensor.weight > 0

    def test_one_pass_equals_separate_runs(self, tmp_path, scenario_file, monkeypatch):
        from delaymix import engine

        def run(ls, out):
            args = ["run", "--scenario", str(scenario_file), "--out", str(out)]
            args += ["--ls", ls, "--rho", "0.5", "--rank", "2", "--lc", "86", "--seed", "7"]
            assert main(args) == 0
            with open(out / "forecasts.csv") as handle:
                rows = list(csv.DictReader(handle))
            return json.loads((out / "metrics.json").read_text()), rows

        inits = []
        original = engine.engine_init
        monkeypatch.setattr(
            engine, "engine_init", lambda config: inits.append(config) or original(config)
        )
        together, together_rows = run("1,10,30", tmp_path / "all")
        assert len(inits) == 1
        # 2600 steps: horizon 30 loses the last window of the 30 the others get
        assert together["updates"] == {"1": 30, "10": 30, "30": 29}
        for h in ("1", "10", "30"):
            alone, alone_rows = run(h, tmp_path / h)
            for name in together:
                if name != "horizons":
                    assert together[name][h] == alone[name][h]
            assert [r for r in together_rows if r["horizon"] == h] == alone_rows

    def test_manifest_config_file(self, tmp_path, scenario_file):
        manifest = {
            "scenario": str(scenario_file),
            "out": str(tmp_path / "from_manifest"),
            "overrides": {"rho": 0.5, "rank": 2, "l_c": 100, "l_s": [1], "seed": 5},
        }
        cfg = tmp_path / "manifest.json"
        cfg.write_text(json.dumps(manifest), encoding="utf-8")
        assert main(["run", "--config", str(cfg)]) == 0
        assert (tmp_path / "from_manifest" / "metrics.json").exists()

    def test_manifest_without_horizons_rejected(self, tmp_path, scenario_file, capsys):
        manifest = {"scenario": str(scenario_file), "out": str(tmp_path / "x"),
                    "overrides": {"l_s": []}}
        cfg = tmp_path / "manifest.json"
        cfg.write_text(json.dumps(manifest), encoding="utf-8")
        assert main(["run", "--config", str(cfg)]) == 2
        assert "horizon" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "overrides, message",
        [
            ({"l_s": [1.5]}, "horizons"),
            ({"l_s": ["1"]}, "horizons"),
            ({"l_s": [0]}, "horizons"),
            ({"l_s": "3"}, "horizons"),
            ({"s": "3"}, "s='3'"),
            ({"rank": 2.7}, "rank=2.7"),
            ({"l_c": 100.0}, "l_c=100.0"),
            ({"rho": "0.5"}, "rho='0.5'"),
            ({"forgetting": None}, "forgetting=None"),
            ({"val_fraction": 0.0}, "val_fraction"),
            ({"val_fraction": 1.5}, "val_fraction"),
        ],
    )
    def test_manifest_bad_override_rejected(
        self, tmp_path, scenario_file, capsys, overrides, message
    ):
        manifest = {"scenario": str(scenario_file), "out": str(tmp_path / "x"),
                    "overrides": overrides}
        cfg = tmp_path / "manifest.json"
        cfg.write_text(json.dumps(manifest), encoding="utf-8")
        assert main(["run", "--config", str(cfg)]) == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize(
        "fields, message",
        [
            ({"csv": 3, "outputs": ["y1"], "inputs": ["u1"]}, "csv=3"),
            ({"scenario": ["s.scn"]}, "scenario=['s.scn']"),
            ({"scenario": "SCENARIO", "out": 3}, "out=3"),
            ({"csv": "d.csv", "outputs": 5, "inputs": ["u1"]}, "outputs=5"),
            ({"csv": "d.csv", "outputs": ["y1"], "inputs": "u1"}, "inputs='u1'"),
        ],
    )
    def test_manifest_bad_path_or_column_type_exits_2(
        self, tmp_path, scenario_file, capsys, fields, message
    ):
        manifest = {"out": str(tmp_path / "x"), "overrides": {"l_s": [1]}}
        manifest.update(
            {k: str(scenario_file) if v == "SCENARIO" else v for k, v in fields.items()}
        )
        cfg = tmp_path / "manifest.json"
        cfg.write_text(json.dumps(manifest), encoding="utf-8")
        assert main(["run", "--config", str(cfg)]) == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize(
        "command, extra, message",
        [
            ("run", ["--ls", "1,x"], "--ls '1,x'"),
            ("validate", ["--grid-rho", "0.5,a"], "--grid-rho '0.5,a'"),
            ("validate", ["--grid-rank", "2,x"], "--grid-rank '2,x'"),
            ("validate", ["--val-frac", "0"], "val_fraction=0.0 must lie in (0, 1]"),
            ("run", ["--config", "{"], "not valid JSON"),
            ("run", ["--config", "[1]"], "JSON object"),
            ("run", ["--config", '{"overrides": [1]}'], "JSON object"),
            ("run", ["--s", "0"], "s=0"),
            ("validate", ["--s", "0"], "s=0"),
            ("run", ["--forgetting", "2"], "forgetting must lie in (0, 1], got 2.0"),
            ("validate", ["--forgetting", "2"], "forgetting must lie in (0, 1], got 2.0"),
            ("run", ["--seed", "-1"], "seed must be non-negative, got -1"),
            ("validate", ["--seed", "-1"], "seed must be non-negative, got -1"),
        ],
    )
    def test_bad_flag_list_or_manifest_exits_2(
        self, tmp_path, scenario_file, capsys, command, extra, message
    ):
        if extra[0] == "--config":
            cfg = tmp_path / "manifest.json"
            cfg.write_text(extra[1], encoding="utf-8")
            extra = ["--config", str(cfg)]
        argv = [command, "--scenario", str(scenario_file), "--out", str(tmp_path / "x")]
        assert main(argv + extra) == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "x").exists()


class TestValidateCommand:
    def test_grid_report(self, tmp_path, scenario_file):
        out = tmp_path / "val"
        code = main(
            [
                "validate",
                "--scenario",
                str(scenario_file),
                "--out",
                str(out),
                "--grid-rho",
                "0.5,1.0",
                "--grid-rank",
                "2,4",
                "--lc",
                "100",
                "--val-frac",
                "0.5",
                "--seed",
                "0",
            ]
        )
        assert code == 0
        report = json.loads((out / "validate.json").read_text())
        assert len(report["cells"]) == 4
        assert report["best"]["rank"] in (2, 4)
        assert report["best"]["rho"] in (0.5, 1.0)

    def test_single_cell(self, tmp_path, scenario_file):
        out = tmp_path / "val1"
        code = main(
            [
                "validate",
                "--scenario",
                str(scenario_file),
                "--out",
                str(out),
                "--grid-rho",
                "0.7",
                "--grid-rank",
                "2",
                "--lc",
                "100",
                "--val-frac",
                "0.5",
                "--seed",
                "0",
            ]
        )
        assert code == 0
        report = json.loads((out / "validate.json").read_text())
        assert report["best"] == {"rho": 0.7, "rank": 2}

    def test_tie_breaking_prefers_small_rank_then_large_rho(self):
        from delaymix.cli import DEFAULT_RANK_GRID, DEFAULT_RHO_GRID, best_cell

        assert DEFAULT_RHO_GRID == (0.5, 0.6, 0.7, 0.8, 0.9, 1.0)
        assert DEFAULT_RANK_GRID == (2, 4, 8, 10)
        cells = [
            {"rho": 0.5, "rank": 4, "mse": 1.0},
            {"rho": 0.9, "rank": 2, "mse": 1.0},
            {"rho": 0.5, "rank": 2, "mse": 1.0},
            {"rho": 0.7, "rank": 2, "mse": 2.0},
            {"rho": 0.7, "rank": 8, "error": "failed"},
        ]
        best = best_cell(cells)
        assert (best["rho"], best["rank"]) == (0.9, 2)


def test_import_loads_no_scipy():
    # numpy is the only runtime dependency
    probe = (
        "import sys, delaymix, delaymix.cli\n"
        "print([m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')])"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(delaymix.__file__).parents[1]))
    result = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=60
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"
