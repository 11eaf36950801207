import csv
import json

import numpy as np
import pytest

from delaymix import TimeDelaySystem
from delaymix.cli import main, read_csv_trajectory, write_csv_trajectory
from delaymix.datagen import ScenarioSpec, generate
from delaymix.errors import ParseError
from delaymix.scenario import format_scenario, parse_scenario

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

    def test_round_trip(self):
        spec = parse_scenario(SCENARIO_TWO_REGIMES)
        again = parse_scenario(format_scenario(spec))
        assert again.length == spec.length
        assert again.schedule == spec.schedule
        for a, b in zip(again.regimes, spec.regimes):
            assert np.array_equal(a.transition, b.transition)
            assert a.delay == b.delay

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
        assert state.tensor.sample_count > 0

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


class TestBenchCommand:
    def test_bench_writes_tables(self, tmp_path, scenario_file):
        out = tmp_path / "bench"
        code = main(
            [
                "bench",
                "--scenario",
                str(scenario_file),
                "--out",
                str(out),
                "--lengths",
                "800,1600",
                "--lc",
                "100",
                "--rank",
                "2",
                "--seed",
                "0",
            ]
        )
        assert code == 0
        with open(out / "bench.csv") as handle:
            rows = list(csv.DictReader(handle))
        assert [int(r["length"]) for r in rows] == [800, 1600]
        with open(out / "bench_detail.csv") as handle:
            detail = list(csv.DictReader(handle))
        assert any(r["adapted"] == "1" for r in detail)

    def test_single_length(self, tmp_path, scenario_file):
        out = tmp_path / "bench1"
        code = main(
            [
                "bench",
                "--scenario",
                str(scenario_file),
                "--out",
                str(out),
                "--lengths",
                "900",
                "--lc",
                "100",
                "--seed",
                "0",
            ]
        )
        assert code == 0
        with open(out / "bench.csv") as handle:
            rows = list(csv.DictReader(handle))
        assert len(rows) == 1


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
