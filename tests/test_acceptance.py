"""End-to-end acceptance checks, one test per guarantee the package makes.

Each test recomputes its statistic from the public API with fresh RNG
streams (ids 1000+, disjoint from everything the verification suites use),
so a pass here and a pass in `levywalk verify` are two independent routes
to the same number.
"""

import math
import os
import subprocess
import sys

import numpy as np

from levywalk import (PathTooShort, SpectralMeasure, TailLaw,
                      build_subordinator_path, continuous_limit_interpolation,
                      extend_subordinator_path, hill_estimator,
                      inverse_subordinator, joint_partial_sums, ks_distance,
                      log_correction_fit, position_continuous,
                      position_jump_first, position_wait_first, positive_stable,
                      renewal_count, rescaled_ensemble, sample_trajectory,
                      scaling_exponent_fit, spearman, stream_rng)

SEED = 0
THREADS = min(4, os.cpu_count() or 1)


def test_01_subordinator_laplace_transform():
    """E[exp(-s S_alpha(1))] = exp(-s^alpha) within 3 MC standard errors."""
    for i, alpha in enumerate((0.3, 0.5, 0.8)):
        draws = positive_stable(alpha, stream_rng(SEED, 1000 + i, 0), 10**5)
        for s in (0.5, 1.0, 2.0):
            vals = np.exp(-s * draws)
            exact = math.exp(-(s**alpha))
            se = vals.std(ddof=1) / math.sqrt(vals.size)
            assert abs(vals.mean() - exact) <= 3.0 * se, (alpha, s)


def test_02_product_tail_hill_index():
    """Hill estimate on 10^6 products of Pareto(0.5) x Pareto(0.8) draws."""
    rng = stream_rng(SEED, 1010, 0)
    t = (1.0 - rng.random(10**6)) ** (-1.0 / 0.5)
    v = (1.0 - rng.random(10**6)) ** (-1.0 / 0.8)
    estimate = hill_estimator(t * v, 10**4)
    assert abs(estimate - 0.5) <= 0.05, estimate


def test_03_critical_log_correction():
    """Survival fit picks up the log factor iff the two indices coincide.

    First clause: for alpha = beta = 0.5 the fitted log-slope matches the
    tail index within 20%.

    Second clause: for alpha=0.5, beta=0.8 the exact survival is
    S(z) = (8/3) z^{-1/2} - (5/3) z^{-4/5}, so the fit regresses
    z^{1/2} S(z) = 8/3 - (5/3) z^{-0.3} on ln z. That curve still bends
    over any finite window, and its least-squares slope on this grid is
    about 0.066, not 0. The fitted slope must match that exact value
    within 3 Monte Carlo standard deviations, and must miss the critical
    clause's criterion. Both the prediction and its deviation come from
    the closed form: the slope is a fixed linear combination sum_i c_i *
    P_hat(Z > z_i), and the empirical survivals at the grid points have
    covariance (S(max(z_i, z_j)) - S(z_i) S(z_j)) / N. The fit's own
    `slope_se` is not used: it measures how far the data are from a
    straight line, not the sampling error.
    """
    z_grid = np.geomspace(1e2, 1e4, 25)
    rng = stream_rng(SEED, 1020, 0)
    crit = (1.0 - rng.random(10**7)) ** (-2.0) * (1.0 - rng.random(10**7)) ** (-2.0)
    fit = log_correction_fit(crit, z_grid, 0.5)
    assert abs(fit.slope - 0.5) / 0.5 <= 0.20, fit.slope

    rng = stream_rng(SEED, 1021, 0)
    non = (1.0 - rng.random(10**7)) ** (-2.0) * (1.0 - rng.random(10**7)) ** (-1.25)
    fit_n = log_correction_fit(non, z_grid, 0.5)

    survival = (8.0 / 3.0) * z_grid ** -0.5 - (5.0 / 3.0) * z_grid ** -0.8
    design = np.column_stack([np.ones_like(z_grid), np.log(z_grid)])
    coeffs = np.linalg.pinv(design)[1] * z_grid ** 0.5
    # S decreases, so S(max(z_i, z_j)) = min(S(z_i), S(z_j))
    cov = (np.minimum.outer(survival, survival) - np.outer(survival, survival)) / non.size
    expected = float(coeffs @ survival)
    sd = float(np.sqrt(coeffs @ cov @ coeffs))
    assert abs(fit_n.slope - expected) <= 3.0 * sd, (
        f"noncritical slope {fit_n.slope:.5f} vs exact {expected:.5f} +- 3*{sd:.5f}")
    assert abs(fit_n.slope - 0.5) / 0.5 > 0.20, fit_n.slope


def test_04_counting_process_limit():
    """n^-alpha N(n) matches the inverse-subordinator mean; gap halves with the grid."""
    alpha, n, t = 0.5, 10**6, 1.0
    law = TailLaw.stable_normalized(alpha)
    measure = SpectralMeasure.uniform(1)
    counts = np.empty(10**4)
    for j in range(counts.size):
        rng = stream_rng(SEED, 1030, j)
        traj = sample_trajectory(law, 1.0, measure, rng, float(n))
        counts[j] = renewal_count(traj, float(n))
    walk_mean = counts.mean() * n ** (-alpha)

    # same first passage rounded up to the delta, delta/2 and delta/4 grids
    delta = 1e-4
    fine = delta / 4.0
    tau = np.empty((10**4, 3))
    for j in range(tau.shape[0]):
        rng = stream_rng(SEED, 1031, j)
        path = build_subordinator_path(alpha, 2.0, fine, rng)
        while True:
            try:
                tf = inverse_subordinator(path, t)
                break
            except PathTooShort:
                path = extend_subordinator_path(path, rng, path.tau_max)
        k = int(round(tf / fine))
        tau[j] = [fine * (k + (-k) % 4), fine * (k + (-k) % 2), tf]
    m_delta, m_half, m_quarter = tau.mean(axis=0)

    assert abs(walk_mean - m_delta) / m_delta <= 0.05, (walk_mean, m_delta)
    gap, gap_half = m_delta - m_half, m_half - m_quarter
    assert 0.0 < gap_half < gap, (gap, gap_half)


def test_05_scaling_collapse_per_regime():
    """Rescaled wait-first laws agree across n=10^3 vs 10^4 in all three regimes."""
    measure = SpectralMeasure.uniform(2)
    stream = 1040
    for alpha, beta in ((0.5, 0.8), (0.8, 0.5), (0.5, 0.5)):
        dur, vel = TailLaw(alpha), TailLaw(beta)
        snaps = {}
        for tag, n in (("a", 10**3), ("a", 10**4), ("b", 10**3), ("b", 10**4)):
            snaps[(tag, n)] = rescaled_ensemble(dur, vel, measure, "wait-first",
                                                n, 1.0, 10**4, SEED, stream, THREADS)
            stream += 1
        pairs = [
            (snaps[("a", 10**3)].coordinate(), snaps[("a", 10**4)].coordinate()),
            (snaps[("a", 10**3)].radial(), snaps[("a", 10**4)].radial()),
            (snaps[("a", 10**3)].coordinate(), snaps[("b", 10**3)].coordinate()),
            (snaps[("a", 10**4)].coordinate(), snaps[("b", 10**4)].coordinate()),
        ]
        for k, (a, b) in enumerate(pairs):
            assert ks_distance(a, b) <= 0.03, (alpha, beta, k)


def test_06_exponent_table():
    """Quantile growth exponents: 1.0, 1.6, 1.0 across the three regimes."""
    measure = SpectralMeasure.uniform(2)
    targets = {(0.5, 0.8): (1.0, 0.10), (0.8, 0.5): (1.6, 0.15), (0.5, 0.5): (1.0, 0.10)}
    stream = 1060
    for (alpha, beta), (target, tol) in targets.items():
        snaps = []
        for n in (100, 1000, 10000):
            snaps.append(rescaled_ensemble(TailLaw(alpha), TailLaw(beta), measure,
                                           "wait-first", n, 1.0, 3000, SEED,
                                           stream, THREADS))
            stream += 1
        gamma = scaling_exponent_fit(snaps, q=0.5)
        assert abs(gamma - target) <= tol, (alpha, beta, gamma)


def test_07_pathwise_identities():
    """Sandwich, renewal-time, and residual-speed identities at 1e-9 relative."""
    dur, vel = TailLaw(0.5), TailLaw(0.8)
    measure = SpectralMeasure.uniform(2)
    c = dur.tail_constant
    horizon = (100.0 * math.gamma(1.5) * math.gamma(0.5) * c) ** 2.0
    for i in range(1000):
        rng = stream_rng(SEED, 1070, i)
        traj = sample_trajectory(dur, vel, measure, rng, horizon)
        ts = rng.random(100) * horizon
        n = renewal_count(traj, ts)
        u = position_wait_first(traj, ts)
        o = position_jump_first(traj, ts)
        w = position_continuous(traj, ts)

        jumps = traj.jumps()[n]
        scale = np.maximum.reduce([np.linalg.norm(o, axis=1), np.linalg.norm(u, axis=1),
                                   np.linalg.norm(jumps, axis=1), np.full(ts.shape, 1e-300)])
        assert np.all(np.linalg.norm((o - u) - jumps, axis=1) / scale <= 1e-9)

        r_ext = np.concatenate([[0.0], traj.renewal_times])
        lhs = np.linalg.norm(w - u, axis=1)
        rhs = traj.V[n] * (ts - r_ext[n])
        scale2 = np.maximum.reduce([lhs, rhs, np.linalg.norm(u, axis=1), np.full(ts.shape, 1e-300)])
        assert np.all(np.abs(lhs - rhs) / scale2 <= 1e-9)

        k = min(len(traj.T) - 1, 50)
        probes = traj.renewal_times[:k]
        assert np.array_equal(renewal_count(traj, probes), np.arange(1, k + 1))
        gap = np.linalg.norm(position_continuous(traj, probes)
                             - position_wait_first(traj, probes), axis=1)
        ref = np.maximum(np.linalg.norm(position_wait_first(traj, probes), axis=1), 1e-300)
        assert np.all(gap / ref <= 1e-9)


def test_08_coupling_diagnostic():
    """Displacement correlates with duration sum iff alpha < beta."""
    measure = SpectralMeasure.uniform(2)
    sigma3 = 3.0 / math.sqrt(10**4 - 1)
    radial, dursum = joint_partial_sums(TailLaw(0.5), TailLaw(0.8), measure,
                                        10**4, 10**4, SEED, 1080, THREADS)
    assert spearman(radial, dursum) > sigma3
    radial, dursum = joint_partial_sums(TailLaw(0.9), TailLaw(0.3), measure,
                                        10**4, 10**4, SEED, 1081, THREADS)
    assert abs(spearman(radial, dursum)) < sigma3


def test_09_interpolation_weight():
    """Straddle weight stays in [0,1]; interpolant moves continuously in t."""
    vel, measure = TailLaw(0.8), SpectralMeasure.uniform(2)
    for i in range(1000):
        rng = stream_rng(SEED, 1090, i)
        path = build_subordinator_path(0.5, 1.0, 0.01, rng, velocity_law=vel,
                                       measure=measure)
        C = path.cumulative
        ts = rng.random(100) * C[-1] * 0.999
        k = np.searchsorted(C, ts, side="right")
        G, H = C[k - 1], C[k]
        w = (ts - G) / (H - G)
        assert np.all((w >= 0.0) & (w <= 1.0))

        delta = (H - G) * 1e-4
        moved = np.linalg.norm(continuous_limit_interpolation(path, ts + delta)
                               - continuous_limit_interpolation(path, ts), axis=1)
        jumps = np.linalg.norm(path.spatial_jumps(), axis=1)[k - 1]
        snap = 1e-12 * np.maximum(1.0, np.maximum(np.abs(G), np.abs(H)))
        allowed = jumps * ((delta + 2.0 * snap) / (H - G)) + 1e-12
        same_cell = ts + delta < H
        assert np.all(moved[same_cell] <= allowed[same_cell])


def test_10_thread_reproducibility(tmp_path):
    """Same seed, different --threads: every CSV byte-identical, via the CLI."""
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("alpha = 0.5\nbeta = 0.8\nd = 2\nvariant = wait-first\n"
                   "n_grid = 50,100\nt_grid = 1\nn_samples = 200\ntrajectories = 2\n")

    def run(args, out, threads):
        r = subprocess.run([sys.executable, "-m", "levywalk.cli", *args,
                            "--config", str(cfg), "--out", str(out),
                            "--threads", str(threads)],
                           capture_output=True, text=True)
        assert r.returncode == 0, r.stderr

    def tree(root):
        # config.txt snapshots the resolved out path, so skip it and
        # compare the data files
        found = {}
        for dirpath, _, names in os.walk(root):
            for name in names:
                if not name.endswith((".csv", ".json")):
                    continue
                p = os.path.join(dirpath, name)
                with open(p, "rb") as fh:
                    found[os.path.relpath(p, root)] = fh.read()
        assert found
        return found

    run(["verify", "tails"], tmp_path / "v1", 1)
    run(["verify", "tails"], tmp_path / "v4", 4)
    assert tree(tmp_path / "v1") == tree(tmp_path / "v4")

    run(["simulate"], tmp_path / "s1", 1)
    run(["simulate"], tmp_path / "s4", 4)
    assert tree(tmp_path / "s1") == tree(tmp_path / "s4")
