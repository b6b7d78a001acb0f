"""The benchmark workloads: inputs made from a seed, one pass, and its checks.

Every workload calls levywalk only through module attributes looked up at
call time (`lw.cli.main`, `lw.harness._counting_limit_rows`), so a tracer
that rebinds those attributes sees every call. A pass repeats the same
inputs, so its outputs must repeat exactly; `check` turns one pass's
outputs into (operations attempted, operations failed).
"""

import csv
import hashlib
import json
import math
import os

import levywalk as lw
import levywalk.cli  # noqa: F401  (lw.cli is not imported by the package)

ENSEMBLE_SAMPLES = 800
ENSEMBLE_GRID = (100, 1000, 10000)
TRAJECTORIES = 3
COUNTING_WALKS = 4000
COUNTING_PATHS = 400
# The inverse alpha-stable subordinator at t=1, alpha=1/2, has mean
# 1 / Gamma(1 + alpha) and second moment 2 / Gamma(1 + 2 alpha) = 2
# (Meerschaert & Straka 2013). The counting check's path mean must sit
# within COUNTING_PATH_SE standard errors of that mean.
EXACT_MEAN = 1.0 / math.gamma(1.5)
INVERSE_SD = math.sqrt(2.0 - EXACT_MEAN ** 2)
COUNTING_PATH_SE = 4.0
# the suite's tolerance for the walk mean, applied against the exact mean:
# at COUNTING_PATHS paths the path mean's own standard error (~4%) is too
# wide to serve as the reference
COUNTING_WALK_REL = 0.05
EXPECTED_FAIL_ROWS = ("log-correction-flat-noncritical",)

_MODEL = """alpha = 0.5
beta = 0.8
d = 2
variant = wait-first
measure = uniform
t_grid = 1.0
seed = {seed}
"""


def ensemble_config(seed, n_samples=ENSEMBLE_SAMPLES):
    n_grid = ",".join(str(n) for n in ENSEMBLE_GRID)
    return _MODEL.format(seed=seed) + (
        f"n_grid = {n_grid}\nn_samples = {n_samples}\ntrajectories = {TRAJECTORIES}\n")


def tiny_config(seed):
    """Config of the set-up warm-up call: one small ensemble, one trajectory."""
    return _MODEL.format(seed=seed) + "n_grid = 10\nn_samples = 4\ntrajectories = 1\n"


def _finite_cells(rows):
    try:
        return all(math.isfinite(float(x)) for row in rows for x in row)
    except ValueError:
        return False


def _finite_numbers(meta):
    return all(math.isfinite(v) for v in meta.values() if isinstance(v, (int, float)))


def output_digest(dirpath):
    """sha256 over the names and bytes of every .csv and .json file under dirpath."""
    h = hashlib.sha256()
    for root, dirs, names in os.walk(dirpath):
        dirs.sort()
        for name in sorted(names):
            if name.endswith((".csv", ".json")):
                path = os.path.join(root, name)
                h.update(os.path.relpath(path, dirpath).encode() + b"\0")
                with open(path, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()


class Ensemble:
    """`levywalk simulate --threads 1` on the benchmark's ensemble config.

    `finish` repeats the pass once, untimed, at `pool_threads`: by the
    thread-count byte-identity guarantee it must write the same bytes.
    """

    threads = 1

    def __init__(self, pool_threads, n_samples=ENSEMBLE_SAMPLES):
        self.pool_threads = pool_threads
        self.n_samples = n_samples
        self.reference = None

    def prepare(self, workdir, seed):
        self.config = os.path.join(workdir, "ensemble.txt")
        with open(self.config, "w") as fh:
            fh.write(ensemble_config(seed, self.n_samples))
        self.reference = None

    def run(self, outdir, threads=1):
        return lw.cli.main(["simulate", "--config", self.config, "--out", outdir,
                            "--threads", str(threads)])

    def finish(self, workdir):
        outdir = os.path.join(workdir, "identity")
        return self.check(outdir, self.run(outdir, self.pool_threads))

    def check(self, outdir, status):
        """One operation per expected ensemble and trajectory file.

        An ensemble fails when it is missing, a value is non-finite, its
        row count or sidecar is wrong, or the pass's bytes differ from the
        first pass's.
        """
        simdir = os.path.join(outdir, "simulate")
        digest = output_digest(simdir)
        if self.reference is None:
            self.reference = digest
        same = status == 0 and digest == self.reference
        failed = 0
        for n in ENSEMBLE_GRID:
            stem = os.path.join(simdir, f"ensemble_n{n}_t1")
            try:
                with open(stem + ".csv", newline="") as fh:
                    rows = list(csv.reader(fh))[1:]
                with open(stem + ".json") as fh:
                    meta = json.load(fh)
            except FileNotFoundError:
                failed += 1
                continue
            ok = (same and len(rows) == meta["N_samples"] == self.n_samples
                  and [r[0] for r in rows] == [str(j) for j in range(len(rows))]
                  and _finite_cells(rows) and _finite_numbers(meta))
            failed += not ok
        for k in range(TRAJECTORIES):
            try:
                with open(os.path.join(simdir, f"trajectory_{k}.csv"), newline="") as fh:
                    rows = list(csv.reader(fh))[1:]
            except FileNotFoundError:
                failed += 1
                continue
            failed += not (same and rows and _finite_cells(rows))
        return len(ENSEMBLE_GRID) + TRAJECTORIES, failed, {"digest": digest}


class Estimators:
    """`levywalk verify tails` then `verify critical`: bulk draws, sorts, Hill and log fits."""

    suites = ("tails", "critical")

    def prepare(self, workdir, seed):
        self.config = os.path.join(workdir, "estimators.txt")
        with open(self.config, "w") as fh:
            fh.write(_MODEL.format(seed=seed))

    def run(self, outdir):
        return [lw.cli.main(["verify", s, "--config", self.config, "--out", outdir])
                for s in self.suites]

    def check(self, outdir, status):
        """One operation per report row.

        A row fails when a number in it is non-finite, its verdict is not
        `pass` (or, for the documented red row, not `fail`), or the suite's
        exit status disagrees with its rows.
        """
        attempted = failed = red_rows = 0
        for suite, code in zip(self.suites, status):
            with open(os.path.join(outdir, suite, "report.csv"), newline="") as fh:
                rows = list(csv.reader(fh))[1:]
            consistent = code == (0 if all(r[-1] == "pass" for r in rows) else 1)
            if not rows:  # a suite that reports nothing has failed
                attempted += 1
                failed += 1
            for test, _params, stat, threshold, verdict in rows:
                expected = "fail" if test in EXPECTED_FAIL_ROWS else "pass"
                red_rows += test in EXPECTED_FAIL_ROWS
                ok = consistent and verdict == expected and _finite_cells([[stat, threshold]])
                attempted += 1
                failed += not ok
        # the documented red row is never skipped: a missing one is a failed operation
        missing = int(red_rows != len(EXPECTED_FAIL_ROWS))
        return attempted + missing, failed + missing, {}


class Counting:
    """The laplace suite's counting-limit rows at reduced counts.

    Calls the program's own `harness._counting_limit_rows`, the part of
    `verify laplace` that takes most of its time (grid subordinator paths
    and d=1 renewal counts), at one thread, with COUNTING_WALKS walks and
    COUNTING_PATHS paths instead of 10^4 each.
    """

    def prepare(self, workdir, seed):
        self.cfg = lw.harness.parse_config(_MODEL.format(seed=seed))

    def run(self, outdir):
        return lw.harness._counting_limit_rows(
            self.cfg, 1, n_traj=COUNTING_WALKS, n_paths=COUNTING_PATHS)

    def check(self, outdir, rows):
        """Two reference statistics, each checked against 1 / Gamma(1 + alpha).

        The walk mean and the inverse-subordinator mean are read from the
        `counting-limit-match` row. The rows' own verdicts hold for 10^4
        paths and are not used; every number in the rows must be finite.
        """
        match = next(r for r in rows if r.test == "counting-limit-match")
        params = dict(kv.split("=", 1) for kv in match.parameters.split(";"))
        walk_mean = float(params["walk_mean"])
        path_mean = float(params["inverse_mean"])
        numbers = [walk_mean, path_mean] + [x for r in rows for x in (r.statistic, r.threshold)]
        finite = all(math.isfinite(x) for x in numbers)
        path_se = INVERSE_SD / math.sqrt(COUNTING_PATHS)
        path_ok = finite and abs(path_mean - EXACT_MEAN) <= COUNTING_PATH_SE * path_se
        walk_ok = finite and abs(walk_mean - EXACT_MEAN) <= COUNTING_WALK_REL * EXACT_MEAN
        info = {"path_mean": path_mean, "path_se": path_se, "walk_mean": walk_mean,
                "exact_mean": EXACT_MEAN}
        return 2, (not path_ok) + (not walk_ok), info


def make(name, nproc):
    """Workload by name; thread counts never exceed nproc."""
    if name == "ensemble-t1":
        return Ensemble(pool_threads=min(2, nproc))
    if name == "estimators":
        return Estimators()
    if name == "counting":
        return Counting()
    raise KeyError(name)


NAMES = ("ensemble-t1", "estimators", "counting")
