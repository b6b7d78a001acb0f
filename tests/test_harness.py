import dataclasses
import json
import math
import os

import numpy as np
import pytest

from levywalk import (ConfigError, ExperimentConfig, SpectralMeasure, TailLaw,
                      ValidationError, classify_regime, parse_config,
                      rescaled_ensemble, run_simulate, run_suite)
from levywalk.harness import ReportRow, write_ensemble, write_report_csv
from levywalk import cli
from levywalk.cli import main as cli_main

MINIMAL = "alpha = 0.5\nbeta = 0.8\nd = 1\nvariant = wait-first\n"


class TestParseConfig:
    def test_minimal_defaults(self):
        cfg = parse_config(MINIMAL)
        assert cfg.alpha == 0.5 and cfg.beta == 0.8 and cfg.d == 1
        assert cfg.variant == "wait-first"
        assert cfg.n_samples == 10**4
        assert cfg.seed == 0
        assert cfg.n_grid == (100, 1000, 10000)
        assert cfg.measure == "uniform"

    def test_comments_and_blank_lines(self):
        cfg = parse_config("# heavy tails\n\nalpha = 0.5  # duration index\n"
                           "beta = 0.8\nd = 2\nvariant = continuous\n")
        assert cfg.alpha == 0.5 and cfg.variant == "continuous"

    def test_out_of_range_names_field(self):
        with pytest.raises(ValidationError) as err:
            parse_config(MINIMAL.replace("alpha = 0.5", "alpha = 1.2"))
        assert err.value.field == "alpha"
        with pytest.raises(ValidationError) as err:
            parse_config(MINIMAL + "n_grid = 100,100\n")
        assert err.value.field == "n_grid"
        with pytest.raises(ValidationError) as err:
            parse_config(MINIMAL + "seed = -3\n")
        assert err.value.field == "seed"
        with pytest.raises(ValidationError) as err:
            parse_config(MINIMAL.replace("variant = wait-first", "variant = hop"))
        assert err.value.field == "variant"

    def test_unparseable_value_names_field(self):
        with pytest.raises(ValidationError) as err:
            parse_config(MINIMAL.replace("alpha = 0.5", "alpha = fast"))
        assert err.value.field == "alpha"

    def test_duplicate_key_is_parse_error(self):
        with pytest.raises(ConfigError) as err:
            parse_config(MINIMAL + "alpha = 0.6\n")
        assert err.value.line == 5

    def test_shapeless_line(self):
        with pytest.raises(ConfigError) as err:
            parse_config("alpha 0.5\n")
        assert err.value.line == 1

    def test_unknown_key(self):
        # delta_tau and n_ref were keys once, which nothing read
        for line in ("gamma = 1.0", "delta_tau = 0.001", "n_ref = 100000"):
            with pytest.raises(ConfigError, match="unknown key") as err:
                parse_config(MINIMAL + line + "\n")
            assert err.value.line == 5

    def test_missing_required(self):
        with pytest.raises(ValidationError) as err:
            parse_config("alpha = 0.5\nbeta = 0.8\nd = 1\n")
        assert err.value.field == "variant"

    def test_atoms_measure(self):
        cfg = parse_config("alpha = 0.5\nbeta = 0.8\nd = 2\nvariant = wait-first\n"
                           "measure = atoms\natoms = 0.5 @ 1 0; 0.5 @ 0 1\n")
        m = cfg.spectral_measure()
        assert not m.is_uniform
        np.testing.assert_array_equal(m.vectors, [[1.0, 0.0], [0.0, 1.0]])
        with pytest.raises(ValidationError) as err:
            parse_config(MINIMAL.replace("d = 1", "d = 2") +
                         "measure = atoms\natoms = 1.0 @ 3 4\n")  # not unit norm
        assert err.value.field == "atoms"
        with pytest.raises(ValidationError):
            parse_config(MINIMAL + "measure = atoms\n")  # atoms missing

    def test_atoms_must_match_d(self):
        with pytest.raises(ValidationError) as err:
            parse_config(MINIMAL.replace("d = 1", "d = 2") +
                         "measure = atoms\natoms = 1 @ 0 0 1\n")
        assert err.value.field == "atoms"

    def test_t_grid_names_must_differ(self):
        for grid in ("1,1.0000001,1", "2,2.0"):
            with pytest.raises(ValidationError) as err:
                parse_config(MINIMAL + f"t_grid = {grid}\n")
            assert err.value.field == "t_grid"

    def test_grid_pairs_fit_their_stream_block(self):
        # one stream per (n, t) pair below TRAJ_STREAM = 50
        twos = "t_grid = 1,2\n"
        cfg = parse_config(MINIMAL + "n_grid = " + ",".join(map(str, range(1, 26))) + "\n" + twos)
        assert len(cfg.n_grid) * len(cfg.t_grid) == 50
        with pytest.raises(ValidationError) as err:
            parse_config(MINIMAL + "n_grid = " + ",".join(map(str, range(1, 27))) + "\n" + twos)
        assert err.value.field == "t_grid"

    def test_norm_overflow_names_field(self):
        # alpha = 0.02: n^(1/alpha) = 10^350 at n = 10^7; 10^300 at 10^6 is fine
        small = MINIMAL.replace("alpha = 0.5", "alpha = 0.02")
        with pytest.raises(ValueError, match="n = 10000000"):
            classify_regime(0.02, 0.8).time_norm(10**7)
        with pytest.raises(ValidationError) as err:
            parse_config(small + "n_grid = 10000000\n")
        assert err.value.field == "n_grid"
        assert parse_config(small + "n_grid = 1000000\n").n_grid == (10**6,)
        # space norm n^(1/beta) when the speeds dominate
        with pytest.raises(ValidationError) as err:
            parse_config(MINIMAL.replace("beta = 0.8", "beta = 0.02") + "n_grid = 10000000\n")
        assert err.value.field == "n_grid"
        # critical (n ln n)^(1/alpha) overflows where n^(1/alpha) does not
        crit = MINIMAL.replace("alpha = 0.5", "alpha = 0.022").replace("beta = 0.8", "beta = 0.022")
        assert math.isfinite(classify_regime(0.022, 0.022).time_norm(10**6))
        with pytest.raises(ValueError, match="n = 1000000"):
            classify_regime(0.022, 0.022).space_norm(10**6)
        for grid in ("1000000", "1,10"):  # the critical norm also needs n >= 2
            with pytest.raises(ValidationError) as err:
                parse_config(crit + f"n_grid = {grid}\n")
            assert err.value.field == "n_grid"
        # the horizon n^(1/alpha) * t
        with pytest.raises(ValidationError) as err:
            parse_config(small + "n_grid = 10000\nt_grid = 1e250\n")
        assert err.value.field == "t_grid"

    def test_serialize_round_trip(self):
        cfg = parse_config(MINIMAL + "n_grid = 10,20,40\nt_grid = 0.5,2\nseed = 9\n")
        assert parse_config(cfg.serialize()) == cfg


def test_report_csv_format(tmp_path):
    rows = [ReportRow("check-a", "alpha=0.5", 0.25, 3.0, True),
            ReportRow("check-b", "n=100", 1.5, 1.0, False)]
    path = tmp_path / "report.csv"
    write_report_csv(path, rows)
    text = path.read_text()
    assert text == ("test,parameters,statistic,threshold,verdict\n"
                    "check-a,alpha=0.5,0.25,3.0,pass\n"
                    "check-b,n=100,1.5,1.0,fail\n")


def test_ensemble_writer(tmp_path):
    snap = rescaled_ensemble(TailLaw(0.5), TailLaw(0.8), SpectralMeasure.uniform(2),
                             "wait-first", 50, 1.0, 12, 3, 950)
    write_ensemble(str(tmp_path), "ens", snap)
    lines = (tmp_path / "ens.csv").read_text().splitlines()
    assert lines[0] == "sample_index,coordinate_1,coordinate_2"
    assert len(lines) == 13
    first = lines[1].split(",")
    assert first[0] == "0"
    assert float(first[1]) == snap.values[0, 0]
    meta = json.loads((tmp_path / "ens.json").read_text())
    assert meta["alpha"] == 0.5 and meta["n"] == 50 and meta["seed"] == 3
    assert meta["N_samples"] == 12 and meta["measure"] == "uniform(d=2)"
    assert meta["space_norm"] == 2500.0


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_ensemble_writer_refuses_non_finite(tmp_path, bad):
    snap = rescaled_ensemble(TailLaw(0.5), TailLaw(0.8), SpectralMeasure.uniform(2),
                             "wait-first", 50, 1.0, 12, 3, 950)
    broken = [dataclasses.replace(snap, values=snap.values.copy()),
              dataclasses.replace(snap, space_norm=bad),
              dataclasses.replace(snap, time_norm=bad)]
    broken[0].values[5, 1] = bad
    for k, b in enumerate(broken):
        with pytest.raises(ValueError, match=f"ensemble ens{k} "):
            write_ensemble(str(tmp_path), f"ens{k}", b)
    assert os.listdir(tmp_path) == []


def test_run_suite_unknown_name(tmp_path):
    cfg = parse_config(MINIMAL)
    with pytest.raises(ValueError):
        run_suite(cfg, "nonsense", str(tmp_path))


def test_run_suite_tails_report(tmp_path):
    cfg = parse_config(MINIMAL)
    status = run_suite(cfg, "tails", str(tmp_path), threads=2)
    assert status == 0
    report = (tmp_path / "tails" / "report.csv").read_text().splitlines()
    assert report[0] == "test,parameters,statistic,threshold,verdict"
    assert len(report) > 5
    for line in report[1:]:
        assert line.rsplit(",", 1)[1] in ("pass", "fail")
    assert (tmp_path / "tails" / "config.txt").read_text() == cfg.serialize()


SMALL_SIM = ("alpha = 0.5\nbeta = 0.8\nd = 2\nvariant = wait-first\n"
             "n_grid = 20,40\nt_grid = 0.5\nn_samples = 30\ntrajectories = 1\n")


def read_tree(root):
    out = {}
    for dirpath, _, names in os.walk(root):
        for name in names:
            p = os.path.join(dirpath, name)
            with open(p, "rb") as fh:
                out[os.path.relpath(p, root)] = fh.read()
    return out


def test_run_simulate_outputs_and_determinism(tmp_path):
    cfg = parse_config(SMALL_SIM)
    run_simulate(cfg, str(tmp_path / "a"), threads=1)
    files = sorted(os.listdir(tmp_path / "a" / "simulate"))
    assert files == ["config.txt", "ensemble_n20_t0.5.csv", "ensemble_n20_t0.5.json",
                     "ensemble_n40_t0.5.csv", "ensemble_n40_t0.5.json", "trajectory_0.csv"]
    run_simulate(cfg, str(tmp_path / "b"), threads=4)
    assert read_tree(tmp_path / "a") == read_tree(tmp_path / "b")


def test_cli_simulate_and_report(tmp_path):
    cfg_path = tmp_path / "cfg.txt"
    cfg_path.write_text(SMALL_SIM + f"out = {tmp_path / 'runs'}\n")
    assert cli_main(["simulate", "--config", str(cfg_path)]) == 0
    # no reports yet
    assert cli_main(["report", "--out", str(tmp_path / "runs")]) == 1
    (tmp_path / "runs" / "x").mkdir()
    (tmp_path / "runs" / "x" / "report.csv").write_text(
        "test,parameters,statistic,threshold,verdict\na,p,1.0,2.0,pass\n")
    assert cli_main(["report", "--out", str(tmp_path / "runs")]) == 0
    (tmp_path / "runs" / "x" / "report.csv").write_text(
        "test,parameters,statistic,threshold,verdict\na,p,1.0,2.0,pass\nb,p,3.0,2.0,fail\n")
    assert cli_main(["report", "--out", str(tmp_path / "runs")]) == 1
    summary = (tmp_path / "runs" / "report_summary.csv").read_text().splitlines()
    assert summary[0] == "experiment,rows,passed,failed"
    assert summary[1] == "x,2,1,1"


def test_cli_simulate_rejects_overflowing_grid(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.txt"
    cfg_path.write_text(MINIMAL.replace("alpha = 0.5", "alpha = 0.02")
                        + f"n_grid = 10000000\nout = {tmp_path / 'runs'}\n")
    assert cli_main(["simulate", "--config", str(cfg_path)]) == 2
    assert "n_grid" in capsys.readouterr().err
    assert not (tmp_path / "runs").exists()


def test_report_names_failing_rows(tmp_path, capsys):
    # verify critical fails its documented log-correction-flat-noncritical row
    cfg_path = tmp_path / "cfg.txt"
    cfg_path.write_text(MINIMAL + f"out = {tmp_path / 'runs'}\n")
    assert cli_main(["verify", "critical", "--config", str(cfg_path)]) == 1
    failing = [line.split(",") for line in
               (tmp_path / "runs" / "critical" / "report.csv").read_text().splitlines()
               if line.endswith(",fail")]
    assert [row[0] for row in failing] == ["log-correction-flat-noncritical"]
    capsys.readouterr()
    assert cli_main(["report", "--out", str(tmp_path / "runs")]) == 1
    out = capsys.readouterr().out.splitlines()
    test, statistic, threshold = failing[0][0], failing[0][-3], failing[0][-2]
    assert out == ["critical: 1/2 passed",
                   f"critical: fail {test} statistic={statistic} threshold={threshold}",
                   "total: 1/2 passed"]
    summary = (tmp_path / "runs" / "report_summary.csv").read_text()
    assert summary == "experiment,rows,passed,failed\ncritical,2,1,1\n"


def test_cli_config_errors(tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("alpha = 1.5\nbeta = 0.8\nd = 1\nvariant = wait-first\n")
    assert cli_main(["verify", "tails", "--config", str(bad)]) == 2
    bad.write_text("alpha 0.5\n")
    assert cli_main(["simulate", "--config", str(bad)]) == 2


def test_cli_thread_count_bounds(tmp_path, monkeypatch):
    # run_simulate is replaced, so no thread pool starts whatever is asked
    cfg_path = tmp_path / "cfg.txt"
    cfg_path.write_text(SMALL_SIM)
    seen = []
    monkeypatch.setattr(cli, "run_simulate", lambda cfg, out, threads: seen.append(threads) or 0)
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    for k in ("1", "3", "64"):
        assert cli_main(["simulate", "--config", str(cfg_path), "--threads", k]) == 0
    assert seen == [1, 3, 3]
    for k in ("0", "-2"):
        with pytest.raises(SystemExit) as exc:
            cli_main(["simulate", "--config", str(cfg_path), "--threads", k])
        assert exc.value.code == 2
    assert seen == [1, 3, 3]


@pytest.mark.parametrize("seed", ["-1", str(2**64)])
def test_cli_seed_override_is_validated(tmp_path, capsys, seed):
    cfg_path = tmp_path / "cfg.txt"
    cfg_path.write_text(SMALL_SIM)
    out = tmp_path / "runs"
    assert cli_main(["simulate", "--config", str(cfg_path), "--out", str(out),
                     "--seed", seed]) == 2
    assert capsys.readouterr().err.startswith("config validation error: seed: ")
    assert not out.exists()


def test_cli_overrides(tmp_path):
    cfg_path = tmp_path / "cfg.txt"
    cfg_path.write_text(SMALL_SIM)
    out = tmp_path / "o1"
    assert cli_main(["simulate", "--config", str(cfg_path), "--out", str(out),
                     "--seed", "42"]) == 0
    snap = json.loads((out / "simulate" / "ensemble_n20_t0.5.json").read_text())
    assert snap["seed"] == 42


def test_experiment_config_direct():
    cfg = ExperimentConfig(alpha=0.3, beta=0.4, d=3, variant="jump-first")
    m = cfg.spectral_measure()
    assert m.is_uniform and m.dimension == 3
