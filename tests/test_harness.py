import dataclasses
import hashlib
import json
import math
import os
import tracemalloc

import numpy as np
import pytest

from levywalk import (ConfigError, ExperimentConfig, SpectralMeasure, TailLaw,
                      ValidationError, classify_regime, draw_pareto, parse_config,
                      rescaled_ensemble, run_simulate, run_suite)
from levywalk.harness import (INVARIANTS_MIN_ALPHA, INVARIANTS_MIN_BETA,
                              MAX_ENSEMBLE_VALUES, MAX_TRAJECTORIES,
                              MAX_TRAJECTORY_ROWS, MAX_WALK_VALUES, ReportRow,
                              _counting_limit_rows, _determinism_row,
                              _identity_rows, _interpolation_rows, _validate,
                              _validate_suite, suite_critical, suite_tails,
                              write_ensemble, write_report_csv)
from levywalk.stats import FEW_THRESHOLDS, _counts_below, _top, counts_at_most
from levywalk.walk import _first_block_size
from levywalk import cli, harness, stats
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

    @pytest.mark.parametrize("atoms", ["nan @ 1 0", "1 @ nan nan", "inf @ 1 0",
                                       "1 @ inf 0", "0.5 @ 1 0; nan @ 0 1"])
    def test_atoms_must_be_finite(self, atoms):
        with pytest.raises(ValidationError) as err:
            parse_config(MINIMAL.replace("d = 1", "d = 2") + f"measure = atoms\natoms = {atoms}\n")
        assert err.value.field == "atoms"

    def test_atoms_must_match_d(self):
        with pytest.raises(ValidationError) as err:
            parse_config(MINIMAL.replace("d = 1", "d = 2") +
                         "measure = atoms\natoms = 1 @ 0 0 1\n")
        assert err.value.field == "atoms"

    @pytest.mark.parametrize("grid", ["nan", "1,nan", "inf", "-inf"])
    def test_t_grid_must_be_finite(self, grid):
        with pytest.raises(ValidationError) as err:
            parse_config(MINIMAL + f"t_grid = {grid}\n")
        assert err.value.field == "t_grid"

    @pytest.mark.parametrize("out", ["runs#1", "runs\n1", "runs\r1", " runs", "runs "])
    def test_out_must_survive_the_config_file(self, out):
        cfg = parse_config(MINIMAL)
        with pytest.raises(ValidationError) as err:
            _validate(dataclasses.replace(cfg, out=out))
        assert err.value.field == "out"

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

    def test_sample_counts_are_capped(self):
        # validation only: nothing is allocated
        three = MINIMAL.replace("d = 1", "d = 3")
        at_cap = MAX_ENSEMBLE_VALUES // 3
        assert parse_config(three + f"n_samples = {at_cap}\n").n_samples == at_cap
        for n_samples in (at_cap + 1, 10**15):
            with pytest.raises(ValidationError) as err:
                parse_config(three + f"n_samples = {n_samples}\n")
            assert err.value.field == "n_samples"
        assert parse_config(MINIMAL + f"trajectories = {MAX_TRAJECTORIES}\n").trajectories \
            == MAX_TRAJECTORIES
        with pytest.raises(ValidationError) as err:
            parse_config(MINIMAL + f"trajectories = {MAX_TRAJECTORIES + 1}\n")
        assert err.value.field == "trajectories"

    @pytest.mark.parametrize("text, field", [
        # the first block at n = 10^15 holds 1.4 * 10^14 steps, 1.01 PiB of durations
        ("alpha = 0.9\nbeta = 0.5\nd = 2\nn_grid = 1000000000000000\nn_samples = 1\n", "n_grid"),
        # a first block of 98 steps, but of 5 * 10^7 direction coordinates each
        ("alpha = 0.5\nbeta = 0.8\nd = 50000000\nn_grid = 100\nn_samples = 2\n", "d"),
    ], ids=["n", "d"])
    def test_walk_work_is_capped(self, text, field):
        # validation only: no walk runs
        with pytest.raises(ValidationError) as err:
            parse_config(text + "variant = wait-first\ntrajectories = 0\n")
        assert err.value.field == field
        assert f"MAX_WALK_VALUES = {MAX_WALK_VALUES}" in str(err.value)

    def test_walk_work_cap_is_inclusive(self):
        steps = _first_block_size(TailLaw(0.5), classify_regime(0.5, 0.8).time_norm(100))
        d = MAX_WALK_VALUES // steps - 2
        at_cap = MINIMAL.replace("d = 1", f"d = {d}") + "n_grid = 100\nn_samples = 1\n"
        assert parse_config(at_cap).d == d
        with pytest.raises(ValidationError) as err:
            parse_config(at_cap.replace(f"d = {d}", f"d = {d + 1}"))
        assert err.value.field == "d"

    def test_trajectory_rows_are_capped(self):
        steps = _first_block_size(TailLaw(0.5), classify_regime(0.5, 0.8).time_norm(1000))
        k = MAX_TRAJECTORY_ROWS // steps
        assert parse_config(MINIMAL + f"n_grid = 1000\ntrajectories = {k}\n").trajectories == k
        with pytest.raises(ValidationError) as err:
            parse_config(MINIMAL + f"n_grid = 1000\ntrajectories = {k + 1}\n")
        assert err.value.field == "trajectories"
        assert f"MAX_TRAJECTORY_ROWS = {MAX_TRAJECTORY_ROWS}" in str(err.value)

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


@pytest.mark.parametrize("a,b", [(0.5, 0.5), (0.5, 0.8)])
def test_product_counts_match_one_shot(monkeypatch, a, b):
    # a chunk that does not divide n leaves a short last chunk
    monkeypatch.setattr(stats, "PRODUCT_CHUNK", 1000)
    n = 4321
    rng_one = np.random.default_rng(7)
    x = draw_pareto(TailLaw(a), rng_one, n) * draw_pareto(TailLaw(b), rng_one, n)
    x_sorted = np.sort(x)
    # grid points on sample values pin the side of the count: X <= z
    z = np.unique(np.concatenate([[0.5, 1.0, 10.0, 1e3, 1e6], x_sorted[[100, 2000, 4000]]]))
    real, exact = stats._products_into, []

    def recording_products(laws, rngs, out, scratch):
        # the chunks counted from their products, copied out of the reused buffer
        exact.append(real(laws, rngs, out, scratch).copy())
        return out

    monkeypatch.setattr(stats, "_products_into", recording_products)
    rng = np.random.default_rng(7)
    below = _counts_below((a, b), rng, n, z)
    np.testing.assert_array_equal(below, np.searchsorted(x_sorted, z, side="right"))
    assert rng.bit_generator.state == rng_one.bit_generator.state
    # the chunks holding the three sample values fall inside a band
    assert 1 <= len(exact) <= 3
    # a band wider than any proxy counts every chunk from its products
    monkeypatch.setattr(stats, "BAND", math.inf)
    exact.clear()
    rng = np.random.default_rng(7)
    np.testing.assert_array_equal(_counts_below((a, b), rng, n, z), below)
    assert [c.size for c in exact] == [1000] * 4 + [321]
    assert np.concatenate(exact).tobytes() == x.tobytes()
    assert rng.bit_generator.state == rng_one.bit_generator.state


def test_product_counts_need_pcg64():
    with pytest.raises(TypeError, match="PCG64"):
        _counts_below((0.5, 0.5), np.random.Generator(np.random.Philox(0)), 10,
                      np.array([10.0]))


def test_product_counts_reject_non_finite(monkeypatch):
    # a factor of index 0.01 is (1 - u)^-100, which overflows once 1 - u is
    # below about 8e-4; the finiteness check, not the power's warning, is
    # what must raise, with warnings as errors
    monkeypatch.setattr(stats, "PRODUCT_CHUNK", 1000)
    n, z = 10**4, np.array([10.0, 1e3])
    for indices in ((0.01,), (0.01, 0.8), (0.8, 0.01)):
        with np.errstate(over="ignore"):
            rng_one = np.random.default_rng(0)
            x = np.prod([draw_pareto(TailLaw(a), rng_one, n) for a in indices], axis=0)
        assert not np.isfinite(x).all()
        for band in (stats.BAND, math.inf):
            monkeypatch.setattr(stats, "BAND", band)
            rng = np.random.default_rng(0)
            with pytest.raises(ValueError, match="finite"):
                _counts_below(indices, rng, n, z)
            # as the one-shot draw, which raises before it can move rng
            assert rng.bit_generator.state == np.random.default_rng(0).bit_generator.state


@pytest.mark.parametrize("index", [0.5, 0.8])
def test_pareto_counts_match_one_shot(monkeypatch, index):
    monkeypatch.setattr(stats, "PRODUCT_CHUNK", 1000)
    n = 4321
    rng_one = np.random.default_rng(11)
    x = draw_pareto(TailLaw(index), rng_one, n)
    # grid points on sample values pin the side of the count: X > z
    z = np.concatenate([[2.0, 10.0, 100.0], np.sort(x)[[50, 3000]]])
    rng = np.random.default_rng(11)
    above = n - _counts_below((index,), rng, n, z)
    assert [int(c) / n for c in above] == [float(np.mean(x > zi)) for zi in z]
    assert rng.bit_generator.state == rng_one.bit_generator.state


def test_pareto_counts_match_broadcast_count(monkeypatch):
    # the (n, len(z)) mask the per-threshold counts replace
    monkeypatch.setattr(stats, "PRODUCT_CHUNK", 1000)
    n, law = 4321, TailLaw(0.8)
    x = draw_pareto(law, np.random.default_rng(13), n)
    z = np.concatenate([[2.0, 10.0, 100.0], x[[7, 4000]]])
    above = n - _counts_below((0.8,), np.random.default_rng(13), n, z)
    np.testing.assert_array_equal(above, np.count_nonzero(x[:, None] > z, axis=0))


def _products(size, seed):
    rng = np.random.default_rng(seed)
    return draw_pareto(TailLaw(0.5), rng, size) * draw_pareto(TailLaw(0.5), rng, size)


@pytest.mark.parametrize("m", [0, 1, FEW_THRESHOLDS, FEW_THRESHOLDS + 1, 25])
def test_counts_at_most_on_both_sides_of_the_switch(m):
    x = _products(5000, 3)
    # an increasing grid with sample values on it, and a repeated value
    z = np.sort(np.concatenate([np.geomspace(10.0, 1e4, max(m - 2, 0)), x[[11, 11]]]))[:m]
    chunk = x.copy()
    np.testing.assert_array_equal(counts_at_most(chunk, z),
                                  np.searchsorted(np.sort(x), z, side="right"))
    assert np.sort(chunk).tobytes() == np.sort(x).tobytes()


def test_counts_at_most_when_every_value_is_at_or_below_the_lowest_threshold():
    x = _products(1000, 4)
    z = np.concatenate([[x.max()], np.geomspace(2 * x.max(), 4 * x.max(), FEW_THRESHOLDS)])
    np.testing.assert_array_equal(counts_at_most(x.copy(), z), [x.size] * z.size)


def test_counts_at_most_when_every_value_is_above_the_lowest_threshold():
    x = _products(1000, 5)
    z = np.sort(np.concatenate([[0.5], x[[1, 2, 3]], np.geomspace(2.0, 1e5, FEW_THRESHOLDS)]))
    np.testing.assert_array_equal(counts_at_most(x.copy(), z),
                                  np.searchsorted(np.sort(x), z, side="right"))


@pytest.mark.parametrize("a,b,n,k,chunk", [
    pytest.param(a, b, n, k, chunk, id=f"{a}-{b}{tag}")
    for a, b in ((0.5, 0.5), (0.5, 0.8))
    for n, k, chunk, tag in (
        (4321, 1500, 1000, ""),                # k + 1 above the chunk; a short last chunk
        (4321, 999, 1000, "-top-equals-chunk"),
        (4321, 300, 1000, "-top-below-chunk"),
        (700, 150, 1000, "-one-short-chunk"),  # n below the chunk
    )])
def test_product_top_matches_one_shot(monkeypatch, a, b, n, k, chunk):
    monkeypatch.setattr(stats, "PRODUCT_CHUNK", chunk)
    rng_one = np.random.default_rng(5)
    x = draw_pareto(TailLaw(a), rng_one, n) * draw_pareto(TailLaw(b), rng_one, n)
    rng = np.random.default_rng(5)
    top = _top((a, b), rng, n, k)
    assert np.sort(top).tobytes() == np.sort(x)[-k - 1:].tobytes()
    assert stats.hill_estimator(top, k) == stats.hill_estimator(x, k)
    assert rng.bit_generator.state == rng_one.bit_generator.state


def test_product_top_needs_pcg64():
    with pytest.raises(TypeError, match="PCG64"):
        _top((0.5, 0.8), np.random.Generator(np.random.Philox(0)), 100, 20)


@pytest.mark.parametrize("seed", [0, 1])
def test_tail_suite_reports_match_golden_bytes(tmp_path, seed):
    # the reports pin the draws and tail counts, which streaming and
    # counting from the uniforms must not move, and the bits of the
    # closed-form fits, which call no BLAS or LAPACK and so do not depend on
    # the CPU's BLAS kernel; log-correction-flat-noncritical stays the
    # documented fail
    golden = os.path.join(os.path.dirname(__file__), "golden")
    cfg_path = tmp_path / "cfg.txt"
    cfg_path.write_text(MINIMAL)
    for suite, status in (("tails", 0), ("critical", 1), ("laplace", 0)):
        assert cli_main(["verify", suite, "--config", str(cfg_path), "--seed", str(seed),
                         "--out", str(tmp_path / "out")]) == status
        with open(os.path.join(golden, f"{suite}_report_seed{seed}.csv"), "rb") as fh:
            expected = fh.read()
        assert (tmp_path / "out" / suite / "report.csv").read_bytes() == expected


def test_simulate_matches_golden_digests(tmp_path):
    # the SHA-256 of every data file of a small simulate run at seed 0
    cfg_path = tmp_path / "cfg.txt"
    cfg_path.write_text("alpha = 0.5\nbeta = 0.8\nd = 2\nvariant = wait-first\n"
                        "n_grid = 50,100\nt_grid = 1\nn_samples = 200\ntrajectories = 2\n")
    assert cli_main(["simulate", "--config", str(cfg_path), "--out", str(tmp_path / "out")]) == 0
    with open(os.path.join(os.path.dirname(__file__), "golden", "simulate_seed0.sha256")) as fh:
        expected = dict(line.split()[::-1] for line in fh)
    out = tmp_path / "out" / "simulate"
    found = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
             for p in out.iterdir() if p.suffix in (".csv", ".json")}
    assert found == expected


def test_tail_chunks_are_drawn_into_buffers_made_once(monkeypatch):
    # the buffers hold about 1.1 MiB: (k + 1 + chunk) doubles and one scratch
    # chunk for _top, two uniform chunks for _counts_below; a fresh array per
    # chunk adds at least one more chunk (0.5 MiB) to the peak
    rng = np.random.default_rng(3)
    monkeypatch.setattr(stats, "BAND", math.inf)  # every chunk is counted from its products
    for tail in (lambda: _top((0.5, 0.8), rng, 10**6, 10**4),
                 lambda: _counts_below((0.5, 0.8), rng, 10**6, np.geomspace(1e2, 1e4, 25))):
        tracemalloc.start()
        try:
            tail()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * 2**20, peak


def test_tail_suites_memory_is_bounded():
    # tracemalloc sees numpy's data buffers; a 10^6-sample float array is
    # 7.6 MiB, so a whole draw with the mask or product formed from it
    # breaks the bound
    cfg = parse_config(MINIMAL)
    for suite in (suite_critical, suite_tails):
        tracemalloc.start()
        try:
            suite(cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20, (suite.__name__, peak)


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


def test_cli_refuses_a_walk_over_the_work_cap(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.txt"
    cfg_path.write_text(MINIMAL.replace("d = 1", "d = 50000000")
                        + f"n_grid = 100\nn_samples = 2\ntrajectories = 0\n"
                        f"out = {tmp_path / 'runs'}\n")
    assert cli_main(["simulate", "--config", str(cfg_path)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "d: a walk at n = 100" in err and "Traceback" not in err
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


def test_cli_config_errors(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("alpha = 1.5\nbeta = 0.8\nd = 1\nvariant = wait-first\n")
    assert cli_main(["verify", "tails", "--config", str(bad)]) == 2
    bad.write_text("alpha 0.5\n")
    assert cli_main(["simulate", "--config", str(bad)]) == 2
    capsys.readouterr()
    for unreadable in (tmp_path / "missing.txt", tmp_path):
        assert cli_main(["simulate", "--config", str(unreadable)]) == 2
        assert capsys.readouterr().err.startswith("config read error: ")
    bad.write_bytes(b"alpha = \xff\n")
    assert cli_main(["simulate", "--config", str(bad)]) == 2
    assert capsys.readouterr().err.startswith("config read error: ")


@pytest.mark.parametrize("field,text,args", [
    ("t_grid", "t_grid = nan\n", []),
    ("atoms", "measure = atoms\natoms = nan @ 1\n", []),
    ("out", "", ["--out", "runs#1"]),
])
def test_cli_rejects_non_finite_and_unsafe_values(tmp_path, capsys, monkeypatch, field, text, args):
    monkeypatch.chdir(tmp_path)
    cfg_path = tmp_path / "cfg.txt"
    cfg_path.write_text(MINIMAL + text)
    assert cli_main(["simulate", "--config", str(cfg_path)] + args) == 2
    assert capsys.readouterr().err.startswith(f"config validation error: {field}: ")
    assert not os.path.exists("runs") and not os.path.exists("runs#1")


def test_counting_limit_rows_thread_invariant():
    cfg = parse_config(MINIMAL)
    one = _counting_limit_rows(cfg, 1, n=10**3, n_traj=200, n_paths=200)
    two = _counting_limit_rows(cfg, 2, n=10**3, n_traj=200, n_paths=200)
    assert [r.test for r in one] == ["counting-limit-match", "counting-limit-grid-shrink"]
    assert one == two


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


def test_rerun_into_an_existing_run_directory_is_refused(tmp_path, capsys):
    # a rerun with n_grid = 10 used to keep the first run's ensemble_n100_t1.*
    # beside a config.txt that says n_grid = 10, and exit 0
    cfg_path = tmp_path / "cfg.txt"
    out = tmp_path / "runs"
    run = ["--config", str(cfg_path), "--out", str(out)]
    cfg_path.write_text(MINIMAL + "t_grid = 1\nn_samples = 20\ntrajectories = 1\n"
                        "n_grid = 10,100\n")
    assert cli_main(["simulate"] + run) == 0
    assert cli_main(["verify", "tails"] + run) == 0
    before = read_tree(out)
    assert "simulate/ensemble_n100_t1.csv" in before
    cfg_path.write_text(MINIMAL + "t_grid = 1\nn_samples = 20\ntrajectories = 1\n"
                        "n_grid = 10\n")
    capsys.readouterr()
    for command, name in ((["simulate"], "simulate"), (["verify", "tails"], "tails")):
        assert cli_main(command + run) == 2
        err = capsys.readouterr().err
        assert err.startswith("run refused: out: ") and str(out / name) in err
    assert read_tree(out) == before
    # another out runs as before
    assert cli_main(["simulate", "--config", str(cfg_path), "--out", str(tmp_path / "o2")]) == 0
    assert sorted(os.listdir(tmp_path / "o2" / "simulate")) == [
        "config.txt", "ensemble_n10_t1.csv", "ensemble_n10_t1.json", "trajectory_0.csv"]


def test_failed_run_leaves_nothing(tmp_path, monkeypatch):
    def fail(cfg, threads):
        raise RuntimeError("suite failed")

    monkeypatch.setitem(harness._SUITE_FUNCS, "tails", fail)
    cfg = parse_config(MINIMAL)
    with pytest.raises(RuntimeError, match="suite failed"):
        run_suite(cfg, "tails", str(tmp_path / "runs"))
    assert not (tmp_path / "runs").exists()
    (tmp_path / "runs").mkdir()
    with pytest.raises(RuntimeError, match="suite failed"):
        run_suite(cfg, "tails", str(tmp_path / "runs"))
    assert os.listdir(tmp_path / "runs") == []


def test_non_finite_ensemble_is_a_named_error(tmp_path, capsys):
    # at alpha = beta = 0.02 some steps of the n = 10^4 ensemble overflow a
    # float; simulate used to write the n = 10 files and stop at a bare
    # ValueError from write_ensemble
    cfg_path = tmp_path / "cfg.txt"
    cfg_path.write_text("alpha = 0.02\nbeta = 0.02\nd = 2\nvariant = wait-first\n"
                        "n_grid = 10,10000\nn_samples = 100\ntrajectories = 1\n")
    out = tmp_path / "runs"
    # no errstate here: with warnings as errors, an overflow warning from the
    # walks, also on a worker thread, would pre-empt the named error
    with pytest.raises(ValidationError, match="n_grid") as exc:
        run_simulate(parse_config(cfg_path.read_text()), str(out))
    assert "n = 10000" in str(exc.value) and "alpha = 0.02, beta = 0.02" in str(exc.value)
    assert not out.exists()
    for threads in ("1", "2"):
        assert cli_main(["simulate", "--config", str(cfg_path), "--out", str(out),
                         "--threads", threads]) == 2
        err = capsys.readouterr().err
        assert err.startswith("run refused: n_grid: ") and "Traceback" not in err
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


def _invariants_config(alpha, seed=0, beta=0.8):
    return parse_config(f"alpha = {alpha}\nbeta = {beta}\nd = 2\nvariant = wait-first\n"
                        f"n_grid = 1\nseed = {seed}\n")


def test_identity_rows_at_float_ties():
    # at alpha = 0.25 a giant step leaves R_k + T_(k+1) == R_k in float; at
    # 0.05 such ties reach the trajectory's end (run in the bound test below)
    rows = {r.test: r for r in _identity_rows(_invariants_config(0.25))}
    assert rows["renewal-count-inclusive"].passed


def test_cli_invariants_rejects_small_alpha(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.txt"
    cfg_path.write_text(MINIMAL.replace("alpha = 0.5", "alpha = 0.001")
                        + f"n_grid = 1\nout = {tmp_path / 'runs'}\n")
    assert cli_main(["verify", "invariants", "--config", str(cfg_path)]) == 2
    assert capsys.readouterr().err.startswith("config validation error: alpha: ")
    assert not (tmp_path / "runs").exists()
    # the bound belongs to the suite: the config and the other suites accept it
    cfg = parse_config(cfg_path.read_text())
    for suite in ("laplace", "tails", "critical", "collapse", "exponents"):
        _validate_suite(cfg, suite)


def test_invariants_alpha_bound_both_sides():
    # RuntimeWarning is an error under pytest, so "clean" means no overflow
    with pytest.raises(ValidationError) as err:
        _validate_suite(_invariants_config(math.nextafter(INVARIANTS_MIN_ALPHA, 0.0)),
                        "invariants")
    assert err.value.field == "alpha"
    for seed in (0, 1):
        cfg = _invariants_config(INVARIANTS_MIN_ALPHA, seed)
        _validate_suite(cfg, "invariants")
        rows = _identity_rows(cfg) + _interpolation_rows(cfg) + _determinism_row(cfg)
        assert len(rows) == 7
    # one step below the bound, seed 8's identity rows overflow
    with pytest.raises(RuntimeWarning, match="overflow"):
        _identity_rows(_invariants_config(0.04, seed=8))


def test_cli_invariants_rejects_small_beta(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.txt"
    cfg_path.write_text(MINIMAL.replace("beta = 0.8", "beta = 0.001")
                        + f"n_grid = 1\nout = {tmp_path / 'runs'}\n")
    assert cli_main(["verify", "invariants", "--config", str(cfg_path)]) == 2
    assert capsys.readouterr().err.startswith("config validation error: beta: ")
    assert not (tmp_path / "runs").exists()
    cfg = parse_config(cfg_path.read_text())
    for suite in ("laplace", "tails", "critical", "collapse", "exponents"):
        _validate_suite(cfg, suite)


def test_invariants_beta_bound_both_sides():
    with pytest.raises(ValidationError) as err:
        _validate_suite(_invariants_config(0.5, beta=math.nextafter(INVARIANTS_MIN_BETA, 0.0)),
                        "invariants")
    assert err.value.field == "beta"
    _validate_suite(_invariants_config(0.5), "invariants")  # the default beta = 0.8
    for seed in (0, 7):
        cfg = _invariants_config(0.5, seed, beta=INVARIANTS_MIN_BETA)
        _validate_suite(cfg, "invariants")
        rows = _identity_rows(cfg) + _interpolation_rows(cfg) + _determinism_row(cfg)
        assert len(rows) == 7
    # one step below the bound, seed 7's identity rows overflow
    with pytest.raises(RuntimeWarning, match="overflow"):
        _identity_rows(_invariants_config(0.5, seed=7, beta=0.04))
