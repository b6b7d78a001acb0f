"""Tests of the benchmark itself: metric names, byte identity, span accounting, checks.

    python3 -m pytest perfbench -q
"""

import json
import math
import os
import re
import shutil
import subprocess
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import tracing  # noqa: E402
import workloads  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")
SMALL = 12  # samples per ensemble in the small-size runs


@pytest.fixture
def workdir():
    path = os.path.join(ROOT, ".perfbench", f"test-{os.getpid()}-{time.monotonic_ns()}")
    os.makedirs(path)
    yield path
    shutil.rmtree(path, ignore_errors=True)


def _spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def test_metric_names_and_units():
    spec = _spec()
    for m in spec["end_to_end"] + spec["per_layer"]:
        assert NAME.fullmatch(m["name"]), m["name"]
        assert m["unit"], m["name"]
    assert [w["name"] for w in spec["workloads"]] == list(workloads.NAMES)
    # the traced run reports exactly the per-layer metrics BENCHMARK.json lists
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(tracing.PER_LAYER)


def _ensemble_pass(workdir, threads, seed=3):
    wl = workloads.Ensemble(pool_threads=2, n_samples=SMALL)
    wl.prepare(workdir, seed)
    out = os.path.join(workdir, f"t{threads}")
    status = wl.run(out, threads)
    return wl, out, status


def test_thread_counts_give_identical_bytes(workdir):
    wl, out1, status1 = _ensemble_pass(workdir, 1)
    _, out2, status2 = _ensemble_pass(workdir, 2)
    assert status1 == status2 == 0
    digest = workloads.output_digest(os.path.join(out1, "simulate"))
    assert digest == workloads.output_digest(os.path.join(out2, "simulate"))
    # the benchmark's own identity pass agrees
    assert wl.check(out1, status1)[1] == 0
    assert wl.finish(workdir) == (6, 0, {"digest": digest})


def _traced_pass(workdir, name):
    wl = workloads.Ensemble(pool_threads=2, n_samples=SMALL)
    wl.prepare(workdir, 5)
    tracer = tracing.Tracer()
    t0 = time.perf_counter()
    with tracer, tracer.span("pass"):
        wl.run(os.path.join(workdir, name))
    return tracer, time.perf_counter() - t0


def test_self_times_sum_within_wall_time(workdir):
    # one thread: spans on a single stack never overlap their siblings
    tracer, wall = _traced_pass(workdir, "a")
    self_s = tracer.self_times()
    assert self_s["walk.sample_trajectory"] > 0.0
    assert all(v >= 0.0 for v in self_s.values())
    assert sum(self_s.values()) <= wall + 1e-9


def test_tracer_restores_functions_and_counts_repeat(workdir):
    import levywalk
    before = levywalk.scaling.VARIANTS["wait-first"], levywalk.harness.sample_trajectory
    first, _ = _traced_pass(workdir, "a")
    assert (levywalk.scaling.VARIANTS["wait-first"], levywalk.harness.sample_trajectory) == before
    second, _ = _traced_pass(workdir, "b")
    counts = [{k: v for k, v in tracing.layer_values(t).items() if not k.endswith("_s")
               and not k.startswith("scaling.us_per_sample")} for t in (first, second)]
    assert counts[0] == counts[1]
    assert counts[0]["scaling.rescaled_ensemble.samples"] == 3 * SMALL
    assert counts[0]["walk.steps_drawn"] >= counts[0]["walk.sample_trajectory.calls"]
    assert 0.0 < counts[0]["walk.step_use_ratio"] <= 1.0


def _rewrite_cell(path, row, col, value):
    with open(path) as fh:
        lines = fh.read().splitlines()
    cells = lines[row].split(",")
    cells[col] = value
    lines[row] = ",".join(cells)
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def test_ensemble_check_catches_corruption(workdir):
    wl, out, status = _ensemble_pass(workdir, 1)
    attempted, failed, _ = wl.check(out, status)
    assert (attempted, failed) == (6, 0)
    # a repeat pass with different bytes is caught by the digest
    _rewrite_cell(os.path.join(out, "simulate", "ensemble_n1000_t1.csv"), 3, 1, "0.5")
    assert wl.check(out, status)[1] >= 1
    # so is a non-finite value in the first pass a check sees
    wl.reference = None
    _rewrite_cell(os.path.join(out, "simulate", "ensemble_n100_t1.csv"), 2, 2, "nan")
    assert wl.check(out, status)[1] >= 1
    # and a file the config asks for but the pass did not write
    wl.reference = None
    os.remove(os.path.join(out, "simulate", "trajectory_2.csv"))
    assert wl.check(out, status) == (6, 2, {"digest": wl.reference})


def _write_report(outdir, suite, rows):
    os.makedirs(os.path.join(outdir, suite), exist_ok=True)
    with open(os.path.join(outdir, suite, "report.csv"), "w") as fh:
        fh.write("test,parameters,statistic,threshold,verdict\n")
        for r in rows:
            fh.write(",".join(r) + "\n")


def _estimator_reports(outdir, flip=None, stat=None, drop_red=False, empty_tails=False):
    tails = [["pareto-survival", "index=0.5;x=2.0", "0.4", "3.0", "pass"],
             ["product-tail-hill", "alpha=0.5", "0.01", "0.05", "pass"]]
    critical = [["log-correction-slope-critical", "alpha=0.5", "0.1", "0.2", "pass"],
                ["log-correction-flat-noncritical", "alpha=0.5", "0.3", "0.02", "fail"]]
    if flip is not None:
        row = (tails + critical)[flip]
        row[-1] = "fail" if row[-1] == "pass" else "pass"
    if stat is not None:
        tails[0][2] = stat
    if drop_red:
        critical.pop()
    if empty_tails:
        tails = []
    _write_report(outdir, "tails", tails)
    _write_report(outdir, "critical", critical)
    status = [0 if all(r[-1] == "pass" for r in rows) else 1 for rows in (tails, critical)]
    return status


def test_estimators_check_catches_corruption(workdir):
    wl = workloads.Estimators()
    assert wl.check(workdir, _estimator_reports(workdir)) == (4, 0, {})
    for flip in range(4):  # a flipped verdict on any row, the red one included
        assert wl.check(workdir, _estimator_reports(workdir, flip=flip))[1] >= 1
    assert wl.check(workdir, _estimator_reports(workdir, stat="nan"))[1] == 1
    assert wl.check(workdir, _estimator_reports(workdir, stat="inf"))[1] == 1
    assert wl.check(workdir, _estimator_reports(workdir, drop_red=True))[1] == 1
    assert wl.check(workdir, _estimator_reports(workdir, empty_tails=True))[1] == 1
    # an exit status that disagrees with the rows fails them all
    _estimator_reports(workdir)
    assert wl.check(workdir, [1, 1])[1] == 2


def _counting_rows(walk_mean, inverse_mean, stat=0.01):
    from levywalk.harness import _row
    params = "alpha=0.5;n=1000000;trajectories=4000;delta_tau=0.0001"
    return [_row("counting-limit-match",
                 params + f";walk_mean={walk_mean!r};inverse_mean={inverse_mean!r}",
                 stat, 0.05, True),
            _row("counting-limit-grid-shrink", params + ";gap_at_delta=2e-05;gap_at_half=1e-05",
                 1e-05, 2e-05, True)]


def test_counting_check_catches_corruption():
    wl = workloads.Counting()
    exact = workloads.EXACT_MEAN
    assert wl.check(None, _counting_rows(exact, exact + 0.01))[:2] == (2, 0)
    assert wl.check(None, _counting_rows(exact, float("nan")))[1] == 2
    assert wl.check(None, _counting_rows(exact, exact, stat=float("inf")))[1] == 2
    assert wl.check(None, _counting_rows(exact * 1.06, exact))[1] == 1
    assert wl.check(None, _counting_rows(exact, exact + 0.2))[1] == 1


def test_counting_small_pass(monkeypatch):
    monkeypatch.setattr(workloads, "COUNTING_WALKS", 3)
    monkeypatch.setattr(workloads, "COUNTING_PATHS", 2)
    wl = workloads.Counting()
    wl.prepare(None, 2)
    rows = wl.run(None)
    assert [r.test for r in rows] == ["counting-limit-match", "counting-limit-grid-shrink"]
    assert "trajectories=3;" in rows[0].parameters
    info = wl.check(None, rows)[2]
    assert math.isfinite(info["walk_mean"]) and info["path_mean"] > 0.0


def test_all_passes_failing_still_reports(monkeypatch, capsys):
    import run
    for name in run.PINNED_THREADS:  # restored after the test
        monkeypatch.setenv(name, "1")

    def broken(self, outdir):
        raise FloatingPointError("broken program")

    monkeypatch.setattr(workloads.Counting, "run", broken)
    code = run.main(["--workload", "counting", "--seed", "1", "--seconds", "0", "--trace", "1"])
    lines = capsys.readouterr().out.splitlines()
    result = json.loads(lines[-1])
    assert code == 1
    attempted = 2 * run.MIN_PASSES
    assert result == {"correct": False, "attempted": attempted, "failed": attempted,
                      "metrics": {}}
    assert f"error_rate {attempted}/{attempted} = 1.0 ratio" in lines


def test_refuses_to_run_without_sources(workdir):
    bare = os.path.join(workdir, "bare")
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "ensemble-t1",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=bare, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
