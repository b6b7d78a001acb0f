"""Experiment orchestration: config parsing, verification suites, run staging, writers.

One experiment = one directory holding the resolved config snapshot, the
ensemble/trajectory CSVs with JSON sidecars, and a report CSV whose rows
are (test, parameters, statistic, threshold, verdict). Identical (config,
seed) reruns produce byte-identical files regardless of thread count:
every sample j of every ensemble e draws from stream_rng(seed, e, j) and
results are merged by sample index. The suites' kernels sit beside the
code they extend: the chunked tail counts in stats, grid passages in randgen.
"""

import contextlib
import json
import math
import os
import shutil
import tempfile
from dataclasses import dataclass, fields
from functools import partial

import numpy as np

from .errors import ConfigError, ValidationError
from .randgen import (TailLaw, SpectralMeasure, _grid_passage_index, _stream_rngs,
                      build_subordinator_path, positive_stable, stream_rng)
from .walk import (_first_block_size, position_continuous, position_jump_first,
                   position_wait_first, renewal_count, sample_trajectory, walks,
                   write_trajectory_csv)
from .scaling import (VARIANTS, classify_regime,
                      continuous_limit_interpolation, joint_partial_sums,
                      _map_spans, rescaled_ensemble)
from . import stats

# stream id blocks: ensemble index "e" in the (master seed, e, j) scheme
SIM_STREAM = 0
TRAJ_STREAM = 50
LAPLACE_STREAM = 100
TAILS_STREAM = 200
CRITICAL_STREAM = 300
COLLAPSE_STREAM = 400
EXPONENTS_STREAM = 500
INVARIANTS_STREAM = 600

# caps on what a config may ask for: an ensemble is one (n_samples, d) array
MAX_ENSEMBLE_VALUES = 10**8
MAX_TRAJECTORIES = 10**4
# one walk's first block at the largest n and t, in doubles: its durations,
# speeds and d direction coordinates a step. A walk's peak RSS measured about
# 3 bytes for every byte of these (d = 2, n = 4 * 10^6, 20 walks), so the
# cap keeps a walk near 0.5 GB, and one that runs into a third block near 1 GB
MAX_WALK_VALUES = 2 * 10**7
# the trajectory rows simulate writes at least: trajectories x the first
# block at the trajectories' horizon; at 85-180 bytes a row for d = 1 to 3,
# about 0.9 GB of CSV at the cap
MAX_TRAJECTORY_ROWS = 5 * 10**6
# below these indices the invariants suite's fixed scales overflow floats:
# with warnings as errors, at seeds 0-19, 2 seeds overflow at alpha = 0.04
# (beta = 0.8) and 1 at beta = 0.04 (alpha = 0.5); none at 0.05
INVARIANTS_MIN_ALPHA = 0.05
INVARIANTS_MIN_BETA = 0.05


@dataclass
class ExperimentConfig:
    alpha: float
    beta: float
    d: int
    variant: str
    measure: str = "uniform"
    atoms: str = ""
    n_grid: tuple = (100, 1000, 10000)
    t_grid: tuple = (1.0,)
    n_samples: int = 10000
    seed: int = 0
    out: str = "runs"
    trajectories: int = 3

    def spectral_measure(self) -> SpectralMeasure:
        if self.measure == "uniform":
            return SpectralMeasure.uniform(self.d)
        vecs, probs = [], []
        for part in self.atoms.split(";"):
            p_str, _, v_str = part.partition("@")
            probs.append(float(p_str))
            vecs.append([float(c) for c in v_str.split()])
        return SpectralMeasure.atoms(vecs, probs)

    def serialize(self) -> str:
        lines = []
        for f in fields(self):
            v = getattr(self, f.name)
            if isinstance(v, tuple):
                v = ",".join(repr(x) if isinstance(x, float) else str(x) for x in v)
            elif isinstance(v, float):
                v = repr(v)
            lines.append(f"{f.name} = {v}")
        return "\n".join(lines) + "\n"


_REQUIRED = ("alpha", "beta", "d", "variant")

_PARSERS = {
    "alpha": float, "beta": float, "d": int, "variant": str,
    "measure": str, "atoms": str,
    "n_grid": lambda s: tuple(int(x) for x in s.split(",")),
    "t_grid": lambda s: tuple(float(x) for x in s.split(",")),
    "n_samples": int, "seed": int, "out": str, "trajectories": int,
}


def parse_config(text: str) -> ExperimentConfig:
    """Parse a flat key-value document: one `key = value` per line.

    Blank lines and `#` comments are ignored. Duplicate or unknown keys and
    shapeless lines raise ConfigError with the line number; out-of-range
    values raise ValidationError naming the field.
    """
    seen = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, eq, value = line.partition("=")
        if not eq:
            raise ConfigError(f"expected `key = value`, got {raw!r}", line=lineno)
        key = key.strip()
        value = value.strip()
        if key not in _PARSERS:
            raise ConfigError(f"unknown key {key!r}", line=lineno)
        if key in seen:
            raise ConfigError(f"duplicate key {key!r}", line=lineno)
        try:
            seen[key] = _PARSERS[key](value)
        except ValueError:
            raise ValidationError(key, f"cannot parse value {value!r}")
    for key in _REQUIRED:
        if key not in seen:
            raise ValidationError(key, "required field is missing")
    cfg = ExperimentConfig(**seen)
    _validate(cfg)
    return cfg


def _validate(cfg: ExperimentConfig):
    if not 0.0 < cfg.alpha < 1.0:
        raise ValidationError("alpha", f"must be in (0,1), got {cfg.alpha}")
    if not 0.0 < cfg.beta < 1.0:
        raise ValidationError("beta", f"must be in (0,1), got {cfg.beta}")
    if cfg.d < 1:
        raise ValidationError("d", "must be >= 1")
    if cfg.variant not in VARIANTS:
        raise ValidationError("variant", f"must be one of {tuple(VARIANTS)}")
    if cfg.measure not in ("uniform", "atoms"):
        raise ValidationError("measure", "must be `uniform` or `atoms`")
    if cfg.measure == "atoms":
        if not cfg.atoms:
            raise ValidationError("atoms", "required when measure = atoms")
        try:
            measure = cfg.spectral_measure()
        except (ValueError, IndexError) as exc:
            raise ValidationError("atoms", str(exc))
        if measure.dimension != cfg.d:
            raise ValidationError("atoms", f"atoms have dimension {measure.dimension}, d = {cfg.d}")
    elif cfg.atoms:
        raise ValidationError("atoms", "only read when measure = atoms")
    if len(cfg.n_grid) < 1 or any(b <= a for a, b in zip(cfg.n_grid, cfg.n_grid[1:])):
        raise ValidationError("n_grid", "must be strictly increasing")
    if any(n < 1 for n in cfg.n_grid):
        raise ValidationError("n_grid", "scales must be >= 1")
    if not all(0.0 < t < math.inf for t in cfg.t_grid):
        raise ValidationError("t_grid", "times must be positive and finite")
    if len({_ensemble_name(1, t) for t in cfg.t_grid}) < len(cfg.t_grid):
        raise ValidationError("t_grid", "times must have distinct ensemble file names (`:g` format)")
    if len(cfg.n_grid) * len(cfg.t_grid) > TRAJ_STREAM - SIM_STREAM:
        raise ValidationError("t_grid", f"n_grid x t_grid may hold at most "
                              f"{TRAJ_STREAM - SIM_STREAM} (n, t) pairs, one stream each")
    _validate_norms(cfg)
    if cfg.n_samples < 1:
        raise ValidationError("n_samples", "must be >= 1")
    if cfg.n_samples * cfg.d > MAX_ENSEMBLE_VALUES:
        raise ValidationError("n_samples", f"n_samples x d must be <= {MAX_ENSEMBLE_VALUES}")
    if not 0 <= cfg.seed < 2**64:
        raise ValidationError("seed", f"must be in [0, 2^64), got {cfg.seed}")
    if not 0 <= cfg.trajectories <= MAX_TRAJECTORIES:
        raise ValidationError("trajectories", f"must be in [0, {MAX_TRAJECTORIES}]")
    _validate_work(cfg)
    # config.txt must parse back to the value: parse_config cuts lines at
    # `#` and at line breaks, and strips each value
    if "#" in cfg.out or cfg.out.strip() != cfg.out or len(cfg.out.splitlines()) > 1:
        raise ValidationError("out", f"must hold no `#`, line break or surrounding "
                              f"space, got {cfg.out!r}")


def _validate_norms(cfg):
    regime = classify_regime(cfg.alpha, cfg.beta)
    for n in cfg.n_grid:
        try:
            regime.space_norm(n)
            time_norm = regime.time_norm(n)
        except ValueError as exc:
            raise ValidationError("n_grid", str(exc))
        if time_norm * max(cfg.t_grid) == math.inf:
            raise ValidationError("t_grid", f"the horizon n^(1/alpha) * t overflows at n = {n}")


def _validate_work(cfg):
    """Refuse a config whose walks or trajectory files exceed the work caps."""
    regime, dur, t = classify_regime(cfg.alpha, cfg.beta), TailLaw(cfg.alpha), max(cfg.t_grid)
    n = cfg.n_grid[-1]
    steps = _first_block_size(dur, regime.time_norm(n) * t)
    if steps * (cfg.d + 2) > MAX_WALK_VALUES:
        # name the larger factor: the steps, or a step's doubles
        raise ValidationError(
            "d" if cfg.d + 2 > steps else "n_grid",
            f"a walk at n = {n}, t = {t:g} draws a first block of {steps} steps of d + 2 "
            f"doubles each, over MAX_WALK_VALUES = {MAX_WALK_VALUES}; use a smaller n, t or d")
    rows = cfg.trajectories * _first_block_size(dur, regime.time_norm(cfg.n_grid[0]) * t)
    if rows > MAX_TRAJECTORY_ROWS:
        raise ValidationError(
            "trajectories", f"{cfg.trajectories} trajectories at n = {cfg.n_grid[0]}, "
            f"t = {t:g} write at least {rows} rows, over MAX_TRAJECTORY_ROWS = "
            f"{MAX_TRAJECTORY_ROWS}; use fewer trajectories or a smaller first n")


@dataclass
class ReportRow:
    test: str
    parameters: str
    statistic: float
    threshold: float
    passed: bool


def _row(test, parameters, statistic, threshold, passed):
    return ReportRow(test, parameters, float(statistic), float(threshold), bool(passed))


def write_report_csv(path, rows):
    with open(path, "w", newline="\n") as fh:
        fh.write("test,parameters,statistic,threshold,verdict\n")
        for r in rows:
            verdict = "pass" if r.passed else "fail"
            fh.write(f"{r.test},{r.parameters},{repr(r.statistic)},{repr(r.threshold)},{verdict}\n")


def write_ensemble(dirpath, name, snap):
    if not (np.isfinite(snap.values).all() and math.isfinite(snap.space_norm)
            and math.isfinite(snap.time_norm)):
        raise ValueError(f"ensemble {name} holds a non-finite value or norm; nothing written")
    csv_path = os.path.join(dirpath, name + ".csv")
    with open(csv_path, "w", newline="\n") as fh:
        cols = ["sample_index"] + [f"coordinate_{i+1}" for i in range(snap.dimension)]
        fh.write(",".join(cols) + "\n")
        for j, row in enumerate(snap.values):
            fh.write(",".join([str(j)] + [repr(float(x)) for x in row]) + "\n")
    meta = {
        "alpha": snap.alpha,
        "beta": snap.beta,
        "variant": snap.variant,
        "n": snap.n,
        "t": snap.t,
        "N_samples": snap.n_samples,
        "seed": snap.seed,
        "stream": snap.stream,
        "space_norm": snap.space_norm,
        "time_norm": snap.time_norm,
        "d": snap.dimension,
        "measure": snap.measure.describe(),
    }
    with open(os.path.join(dirpath, name + ".json"), "w", newline="\n") as fh:
        json.dump(meta, fh, sort_keys=True, indent=2)
        fh.write("\n")


# ---------------------------------------------------------------------------
# verification suites


def suite_laplace(cfg, threads=1):
    """Subordinator transform check plus the counting-process limit."""
    rows = []
    for i, alpha in enumerate((0.3, 0.5, 0.8)):
        rng = stream_rng(cfg.seed, LAPLACE_STREAM + i, 0)
        draws = positive_stable(alpha, rng, 10**5)
        for s in (0.5, 1.0, 2.0):
            vals = np.exp(-s * draws)
            exact = math.exp(-(s**alpha))
            se = vals.std(ddof=1) / math.sqrt(vals.size)
            dev = abs(vals.mean() - exact) / se
            rows.append(_row("subordinator-laplace", f"alpha={alpha};s={s}", dev, 3.0, dev <= 3.0))
    rows.extend(_counting_limit_rows(cfg, threads))
    return rows, []


def _counting_limit_rows(cfg, threads, n=10**6, n_traj=10**4, n_paths=10**4):
    alpha, delta, t = 0.5, 1e-4, 1.0
    # durations normalized so the count limit is the standard inverse
    # subordinator: cutoff = Gamma(1-alpha)^(-1/alpha)
    law = TailLaw.stable_normalized(alpha)
    counts = _map_spans(cfg.seed, LAPLACE_STREAM + 10, n_traj, threads,
                        partial(_renewal_counts, law, float(n)))
    walk_mean = float(counts.mean()) * n ** (-alpha)

    # one passage per sample at quarter resolution; the passage times at
    # delta, delta / 2 and delta / 4 come from rounding the same first
    # passage up to each grid, so the grid-refinement gaps are pure
    # discretization quantities with the MC noise differenced away
    fine = delta / 4.0
    k = _grid_passage_index(alpha, fine, t,
                            stream_rng(cfg.seed, LAPLACE_STREAM + 12, 0), n_paths)
    tau = fine * np.column_stack([k + (-k) % 4, k + (-k) % 2, k])
    m_delta, m_half, m_quarter = (float(x) for x in tau.mean(axis=0))
    match = abs(walk_mean - m_delta) / m_delta
    gap = m_delta - m_half
    gap_half = m_half - m_quarter
    params = f"alpha={alpha};n={n};trajectories={n_traj};delta_tau={delta}"
    rows = [
        _row("counting-limit-match", params + f";walk_mean={walk_mean!r};inverse_mean={m_delta!r}",
             match, 0.05, match <= 0.05),
        _row("counting-limit-grid-shrink",
             params + f";gap_at_delta={gap!r};gap_at_half={gap_half!r}",
             gap_half, gap, 0.0 < gap_half < gap),
    ]
    return rows


def _renewal_counts(law, horizon, rngs):
    return walks(law, 1.0, SpectralMeasure.uniform(1), rngs, horizon)[0]


def suite_tails(cfg, threads=1):
    """Pareto survival spot checks, product tail index, critical-asymptote drift.

    Every bulk draw streams in stats.PRODUCT_CHUNK pieces and reduces to integer
    counts or a top-k, so the rows equal those of whole arrays bit for bit.
    """
    rows = []
    n = 10**6
    for i, index in enumerate((0.5, 0.8)):
        law = TailLaw(index)
        rng = stream_rng(cfg.seed, TAILS_STREAM + i, 0)
        zs = [mult * law.cutoff for mult in (2.0, 10.0, 100.0)]
        # n - #{x <= z} = #{x > z} for finite draws; count / n is np.mean(x > z) exactly
        above = n - stats._counts_below((index,), rng, n, np.array(zs))
        for z, count in zip(zs, above):
            p = float(law.survival(z))
            p_hat = int(count) / n
            se = math.sqrt(p * (1.0 - p) / n)
            dev = abs(p_hat - p) / se
            rows.append(_row("pareto-survival", f"index={index};x={z}", dev, 3.0, dev <= 3.0))

    rng = stream_rng(cfg.seed, TAILS_STREAM + 10, 0)
    estimate = stats.hill_estimator(stats._top((0.5, 0.8), rng, n, 10**4), 10**4)
    dev = abs(estimate - 0.5)
    rows.append(_row("product-tail-hill",
                     f"alpha=0.5;beta=0.8;N=1000000;k=10000;estimate={estimate!r}",
                     dev, 0.05, dev <= 0.05))

    rng = stream_rng(cfg.seed, TAILS_STREAM + 11, 0)
    zs = np.array([1e2, 1e3, 1e4])
    p_hat = 1.0 - stats._counts_below((0.5, 0.5), rng, 10**7, zs) / 10**7
    ratios = p_hat / stats.product_tail_theory(zs, 0.5)
    worst_step = float(np.max(np.diff(ratios)))
    rows.append(_row("product-tail-ratio-monotone",
                     f"alpha=0.5;ratios={';'.join(repr(float(r)) for r in ratios)}",
                     worst_step, 0.0, worst_step < 0.0))
    rows.append(_row("product-tail-ratio-final", f"alpha=0.5;z=10000",
                     abs(float(ratios[-1]) - 1.0), 0.3, abs(float(ratios[-1]) - 1.0) <= 0.3))
    return rows, []


def suite_critical(cfg, threads=1):
    """Log-correction fits: critical slope matches alpha, noncritical slope is flat."""
    z_grid = np.geomspace(1e2, 1e4, 25)
    rng = stream_rng(cfg.seed, CRITICAL_STREAM, 0)
    below = stats._counts_below((0.5, 0.5), rng, 10**7, z_grid)
    fit = stats.log_correction_fit_counts(10**7 - below, 10**7, z_grid, 0.5)
    rel = abs(fit.slope - 0.5) / 0.5
    rows = [_row("log-correction-slope-critical",
                 f"alpha=0.5;beta=0.5;N=10000000;slope={fit.slope!r}", rel, 0.20, rel <= 0.20)]

    rng = stream_rng(cfg.seed, CRITICAL_STREAM + 1, 0)
    below = stats._counts_below((0.5, 0.8), rng, 10**7, z_grid)
    fit_n = stats.log_correction_fit_counts(10**7 - below, 10**7, z_grid, 0.5)
    rows.append(_row("log-correction-flat-noncritical",
                     f"alpha=0.5;beta=0.8;N=10000000;slope={fit_n.slope!r};fit_se={fit_n.slope_se!r}",
                     abs(fit_n.slope), 2.0 * fit_n.slope_se,
                     abs(fit_n.slope) < 2.0 * fit_n.slope_se))
    return rows, []


_REGIME_PAIRS = ((0.5, 0.8), (0.8, 0.5), (0.5, 0.5))


def suite_collapse(cfg, threads=1):
    """Two-sample KS between rescaled wait-first ensembles across scales.

    Pinned to d=2, t=1, 10^4 samples: the 0.03 bound was calibrated there.
    Control rows compare independent ensembles at equal n.
    """
    rows, artifacts = [], []
    measure = SpectralMeasure.uniform(2)
    stream = COLLAPSE_STREAM
    for alpha, beta in _REGIME_PAIRS:
        dur, vel = TailLaw(alpha), TailLaw(beta)
        snaps = {}
        for tag, n in (("a", 10**3), ("a", 10**4), ("b", 10**3), ("b", 10**4)):
            snap = rescaled_ensemble(dur, vel, measure, "wait-first", n, 1.0,
                                     10**4, cfg.seed, stream, threads)
            snaps[(tag, n)] = snap
            artifacts.append((f"collapse_a{alpha}_b{beta}_n{n}_{tag}", snap))
            stream += 1
        params = f"alpha={alpha};beta={beta};t=1;N=10000"
        checks = [
            ("collapse-cross-n", snaps[("a", 10**3)].coordinate(), snaps[("a", 10**4)].coordinate()),
            ("collapse-cross-n-radial", snaps[("a", 10**3)].radial(), snaps[("a", 10**4)].radial()),
            ("collapse-control-small-n", snaps[("a", 10**3)].coordinate(), snaps[("b", 10**3)].coordinate()),
            ("collapse-control-large-n", snaps[("a", 10**4)].coordinate(), snaps[("b", 10**4)].coordinate()),
        ]
        for name, a, b in checks:
            d = stats.ks_distance(a, b)
            rows.append(_row(name, params, d, 0.03, d <= 0.03))
    return rows, artifacts


def suite_exponents(cfg, threads=1):
    """Radial-quantile growth exponents across the three regimes."""
    rows, artifacts = [], []
    measure = SpectralMeasure.uniform(2)
    targets = {(0.5, 0.8): (1.0, 0.10), (0.8, 0.5): (1.6, 0.15), (0.5, 0.5): (1.0, 0.10)}
    stream = EXPONENTS_STREAM
    for alpha, beta in _REGIME_PAIRS:
        dur, vel = TailLaw(alpha), TailLaw(beta)
        snaps = []
        for n in (100, 1000, 10000):
            snap = rescaled_ensemble(dur, vel, measure, "wait-first", n, 1.0,
                                     3000, cfg.seed, stream, threads)
            snaps.append(snap)
            artifacts.append((f"exponents_a{alpha}_b{beta}_n{n}", snap))
            stream += 1
        gamma = stats.scaling_exponent_fit(snaps, q=0.5)
        target, tol = targets[(alpha, beta)]
        dev = abs(gamma - target)
        rows.append(_row("exponent-gamma",
                         f"alpha={alpha};beta={beta};gamma={gamma!r};target={target}",
                         dev, tol, dev <= tol))
    return rows, artifacts


def suite_invariants(cfg, threads=1):
    """Pathwise identities, coupling diagnostic, interpolation checks, determinism."""
    rows = []
    rows.extend(_identity_rows(cfg))
    rows.extend(_coupling_rows(cfg, threads))
    rows.extend(_interpolation_rows(cfg))
    rows.extend(_determinism_row(cfg))
    return rows, []


def _identity_rows(cfg):
    n_traj, n_times = 1000, 100
    dur, vel = TailLaw(cfg.alpha), TailLaw(cfg.beta)
    measure = cfg.spectral_measure()
    c = dur.tail_constant
    # horizon sized for roughly 100 completed steps
    horizon = (100.0 * math.gamma(1 + cfg.alpha) * math.gamma(1 - cfg.alpha) * c) ** (1.0 / cfg.alpha)
    worst_jump = worst_renewal = worst_speed = 0.0
    violations = 0
    for _, rng in _stream_rngs(cfg.seed, INVARIANTS_STREAM, 0, n_traj):
        traj = sample_trajectory(dur, vel, measure, rng, horizon)
        ts = rng.random(n_times) * horizon
        n = renewal_count(traj, ts)
        u_pos = position_wait_first(traj, ts)
        o_pos = position_jump_first(traj, ts)
        w_pos = position_continuous(traj, ts)
        jumps = traj.jumps()[n]
        scale = np.maximum(np.linalg.norm(o_pos, axis=1), np.linalg.norm(u_pos, axis=1))
        scale = np.maximum(scale, np.linalg.norm(jumps, axis=1))
        err = np.linalg.norm((o_pos - u_pos) - jumps, axis=1) / np.maximum(scale, 1e-300)
        worst_jump = max(worst_jump, float(err.max()))

        r_ext = np.concatenate([[0.0], traj.renewal_times])
        resid = ts - r_ext[n]
        lhs = np.linalg.norm(w_pos - u_pos, axis=1)
        rhs = traj.V[n] * resid
        scale2 = np.maximum.reduce([lhs, rhs, np.linalg.norm(u_pos, axis=1)])
        worst_speed = max(worst_speed, float((np.abs(lhs - rhs) / np.maximum(scale2, 1e-300)).max()))

        # exact ties at the first 50 renewal times: N(R_k) = max{j : R_j <= R_k}
        # exceeds k where steps too short to move R_k in float tie it; W(R_k)
        # reads the step after the tie group, so R_k must lie below the end
        R = traj.renewal_times
        probes = R[:50][R[:50] < traj.total_duration]
        if not probes.size:
            continue
        n_at = renewal_count(traj, probes)
        expected = len(R) - np.argmax((R <= probes[:, None])[:, ::-1], axis=1)
        violations += int(np.sum(n_at != expected))
        w_at = position_continuous(traj, probes)
        u_at = position_wait_first(traj, probes)
        delta = np.linalg.norm(w_at - u_at, axis=1)
        ref = np.maximum(np.linalg.norm(u_at, axis=1), 1e-300)
        worst_renewal = max(worst_renewal, float((delta / ref).max()))
    params = f"alpha={cfg.alpha};beta={cfg.beta};trajectories={n_traj};times={n_times}"
    return [
        _row("sandwich-jump-difference", params, worst_jump, 1e-9, worst_jump <= 1e-9),
        _row("continuous-equals-wait-at-renewals", params, worst_renewal, 1e-9, worst_renewal <= 1e-9),
        _row("residual-speed-identity", params, worst_speed, 1e-9, worst_speed <= 1e-9),
        _row("renewal-count-inclusive", params, violations, 0.0, violations == 0),
    ]


def _coupling_rows(cfg, threads):
    n = n_samples = 10**4
    # well separated index pairs so the finite-n residual dependence of the
    # uncoupled case sits far below the test resolution
    measure = SpectralMeasure.uniform(2)
    sigma3 = 3.0 / math.sqrt(n_samples - 1)
    rows = []
    for i, (alpha, beta, coupled) in enumerate(((0.5, 0.8, True), (0.9, 0.3, False))):
        radial, dursum = joint_partial_sums(TailLaw(alpha), TailLaw(beta), measure,
                                            n, n_samples, cfg.seed,
                                            INVARIANTS_STREAM + 10 + i, threads)
        rho = stats.spearman(radial, dursum)
        params = f"alpha={alpha};beta={beta};n={n};N={n_samples}"
        if coupled:
            rows.append(_row("coupling-dependent", params, rho, sigma3, rho > sigma3))
        else:
            rows.append(_row("coupling-independent", params, abs(rho), sigma3, abs(rho) < sigma3))
    return rows


def _interpolation_rows(cfg):
    n_paths, n_times = 1000, 100
    dur = TailLaw(cfg.alpha)
    vel = TailLaw(cfg.beta)
    measure = cfg.spectral_measure()
    weight_bad = 0
    worst_excess = -np.inf
    for _, rng in _stream_rngs(cfg.seed, INVARIANTS_STREAM + 20, 0, n_paths):
        path = build_subordinator_path(cfg.alpha, 1.0, 0.01, rng, velocity_law=vel,
                                       measure=measure)
        C = path.cumulative
        ts = rng.random(n_times) * C[-1] * 0.999
        k = np.searchsorted(C, ts, side="right")
        G, H = C[k - 1], C[k]
        w = (ts - G) / (H - G)
        weight_bad += int(np.sum((w < 0.0) | (w > 1.0)))
        # continuity along the path: displacement within one straddling
        # interval is the jump scaled by the weight increment
        delta = (H - G) * 1e-4
        p0 = continuous_limit_interpolation(path, ts)
        p1 = continuous_limit_interpolation(path, ts + delta)
        spatial = path.spatial_jumps()
        jumps = np.linalg.norm(spatial, axis=1)[k - 1]
        moved = np.linalg.norm(p1 - p0, axis=1)
        # times inside the snap window get their weight clamped to 0 or 1,
        # so the admissible displacement widens by that window; and both
        # positions round at the scale of the partial sums they lie between
        snap = 1e-12 * np.maximum(1.0, np.maximum(np.abs(G), np.abs(H)))
        sums = np.concatenate([[0.0], np.linalg.norm(np.cumsum(spatial, axis=0), axis=1)])
        allowed = (jumps * ((delta + 2.0 * snap) / (H - G)) + 1e-12
                   + 4.0 * np.finfo(float).eps * np.maximum(sums[k - 1], sums[k]))
        same_cell = ts + delta < H
        if np.any(same_cell):
            worst_excess = max(worst_excess, float((moved - allowed)[same_cell].max()))
    params = f"alpha={cfg.alpha};paths={n_paths};times={n_times};delta_tau=0.01"
    return [
        _row("interpolation-weight-bounds", params, weight_bad, 0.0, weight_bad == 0),
        _row("interpolation-continuity", params, worst_excess, 0.0, worst_excess <= 0.0),
    ]


def _determinism_row(cfg):
    dur, vel = TailLaw(cfg.alpha), TailLaw(cfg.beta)
    measure = cfg.spectral_measure()
    a = rescaled_ensemble(dur, vel, measure, cfg.variant, 100, 1.0, 500,
                          cfg.seed, INVARIANTS_STREAM + 30, threads=1)
    b = rescaled_ensemble(dur, vel, measure, cfg.variant, 100, 1.0, 500,
                          cfg.seed, INVARIANTS_STREAM + 30, threads=4)
    same = bool(np.array_equal(a.values, b.values))
    return [_row("thread-count-determinism", "threads=1-vs-4;N=500", 0.0 if same else 1.0,
                 0.0, same)]


def _validate_suite(cfg, suite):
    if suite != "invariants":
        return
    if cfg.alpha < INVARIANTS_MIN_ALPHA:
        raise ValidationError("alpha", f"verify invariants needs alpha >= {INVARIANTS_MIN_ALPHA}")
    if cfg.beta < INVARIANTS_MIN_BETA:
        raise ValidationError("beta", f"verify invariants needs beta >= {INVARIANTS_MIN_BETA}")


_SUITE_FUNCS = {
    "laplace": suite_laplace,
    "tails": suite_tails,
    "critical": suite_critical,
    "collapse": suite_collapse,
    "exponents": suite_exponents,
    "invariants": suite_invariants,
}
SUITES = tuple(_SUITE_FUNCS)


def _write_run(cfg, out_dir, name, run):
    """Call run(dirpath) on a fresh directory and move it to out_dir/name once run returns.

    An existing out_dir/name is refused with a ValidationError naming `out`
    before anything runs, so a rerun never mixes its files with an earlier
    run's. The directory is filled inside a temporary sibling, so a run that
    raises leaves no partial directory behind (nor an out_dir it made).
    """
    out_dir = out_dir or os.curdir
    exp_dir = os.path.join(out_dir, name)
    if os.path.lexists(exp_dir):
        raise ValidationError("out", f"{exp_dir!r} already exists; remove it or "
                              f"choose another out")
    made_out = not os.path.isdir(out_dir)
    os.makedirs(out_dir, exist_ok=True)
    stage = tempfile.mkdtemp(prefix=f".{name}-", dir=out_dir)
    try:
        # mkdtemp's directory is private (0700); the one moved into place is
        # made inside it, so it has the permissions any new directory gets
        work = os.path.join(stage, name)
        os.mkdir(work)
        with open(os.path.join(work, "config.txt"), "w", newline="\n") as fh:
            fh.write(cfg.serialize())
        status = run(work)
        os.rename(work, exp_dir)
    finally:
        shutil.rmtree(stage, ignore_errors=True)
        if made_out and not os.path.exists(exp_dir):
            with contextlib.suppress(OSError):
                os.rmdir(out_dir)  # only if the failed run left it empty
    return status


def run_suite(cfg: ExperimentConfig, suite: str, out_dir: str, threads: int = 1) -> int:
    """Run one named suite into out_dir/suite, with its artifacts and report. Returns exit status."""
    if suite not in _SUITE_FUNCS:
        raise ValueError(f"unknown suite {suite!r}; choose from {SUITES}")
    _validate_suite(cfg, suite)

    def run(exp_dir):
        rows, artifacts = _SUITE_FUNCS[suite](cfg, threads)
        for name, snap in artifacts:
            write_ensemble(exp_dir, name, snap)
        write_report_csv(os.path.join(exp_dir, "report.csv"), rows)
        return 0 if all(r.passed for r in rows) else 1

    return _write_run(cfg, out_dir, suite, run)


def _ensemble_name(n, t):
    return f"ensemble_n{n}_t{t:g}"


def run_simulate(cfg: ExperimentConfig, out_dir: str, threads: int = 1) -> int:
    """Dump trajectories and rescaled ensembles for the configured model into out_dir/simulate."""
    dur, vel = TailLaw(cfg.alpha), TailLaw(cfg.beta)
    measure = cfg.spectral_measure()

    def run(exp_dir):
        stream = SIM_STREAM
        for n in cfg.n_grid:
            for t in cfg.t_grid:
                snap = rescaled_ensemble(dur, vel, measure, cfg.variant, n, t,
                                         cfg.n_samples, cfg.seed, stream, threads)
                if not np.isfinite(snap.values).all():
                    raise ValidationError(
                        "n_grid", f"the ensemble at n = {n}, t = {t:g} holds a non-finite "
                        f"position at alpha = {cfg.alpha}, beta = {cfg.beta}: a step "
                        f"overflows a float; use a smaller n")
                write_ensemble(exp_dir, _ensemble_name(n, t), snap)
                stream += 1
        regime = classify_regime(cfg.alpha, cfg.beta)
        horizon = regime.time_norm(cfg.n_grid[0]) * max(cfg.t_grid)
        for k, rng in _stream_rngs(cfg.seed, TRAJ_STREAM, 0, cfg.trajectories):
            with np.errstate(over="ignore", invalid="ignore"):  # refused below
                traj = sample_trajectory(dur, vel, measure, rng, horizon)
            parts = traj.T, traj.V, traj.U, traj.renewal_times, traj.positions
            if not all(np.isfinite(a).all() for a in parts):
                raise ValidationError(
                    "trajectories", f"trajectory {k} holds a non-finite step or position "
                    f"at alpha = {cfg.alpha}, beta = {cfg.beta}: a step overflows a float; "
                    f"use fewer trajectories or larger indices")
            with open(os.path.join(exp_dir, f"trajectory_{k}.csv"), "w", newline="\n") as fh:
                write_trajectory_csv(traj, fh)
        return 0

    return _write_run(cfg, out_dir, "simulate", run)


def aggregate_reports(out_dir: str) -> int:
    """Collect all report.csv files under out_dir into a summary. 0 iff all pass."""
    found = []
    for root, _, names in sorted(os.walk(out_dir)):
        if "report.csv" in names:
            found.append(os.path.join(root, "report.csv"))
    if not found:
        print(f"no report.csv files under {out_dir}")
        return 1
    total = failed = 0
    lines = ["experiment,rows,passed,failed"]
    for path in sorted(found):
        with open(path) as fh:
            rows = fh.read().splitlines()[1:]
        failing = [r for r in rows if r.rsplit(",", 1)[-1] == "fail"]
        n_fail = len(failing)
        total += len(rows)
        failed += n_fail
        rel = os.path.relpath(os.path.dirname(path), out_dir)
        lines.append(f"{rel},{len(rows)},{len(rows) - n_fail},{n_fail}")
        print(f"{rel}: {len(rows) - n_fail}/{len(rows)} passed")
        for r in failing:
            # only the parameters field may hold commas
            test = r.split(",", 1)[0]
            statistic, threshold = r.rsplit(",", 3)[1:3]
            print(f"{rel}: fail {test} statistic={statistic} threshold={threshold}")
    with open(os.path.join(out_dir, "report_summary.csv"), "w", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")
    print(f"total: {total - failed}/{total} passed")
    return 0 if failed == 0 else 1
