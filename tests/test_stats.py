import math

import numpy as np
import pytest
from scipy import stats as sps

from levywalk import (CRITICAL, DegenerateInput, EnsembleSnapshot,
                      InsufficientData, SpectralMeasure, TailLaw,
                      hill_estimator, ks_distance, log_correction_fit,
                      product_tail_theory, scaling_exponent_fit, spearman,
                      stream_rng)


def pareto(alpha, rng, size):
    return (1.0 - rng.random(size)) ** (-1.0 / alpha)


class TestHill:
    def test_exact_pareto(self):
        x = pareto(0.5, stream_rng(0, 940, 0), 10**6)
        fit = hill_estimator(x, 10**4)
        assert abs(fit.estimate - 0.5) < 0.02
        assert fit.k == 10**4
        assert fit.se == pytest.approx(fit.estimate / 100.0)

    def test_product_min_index(self):
        rng = stream_rng(0, 940, 1)
        prod = pareto(0.5, rng, 10**6) * pareto(0.8, rng, 10**6)
        assert abs(hill_estimator(prod, 10**4).estimate - 0.5) < 0.05

    def test_scale_invariance(self):
        x = pareto(0.5, stream_rng(0, 940, 2), 10**4)
        a = hill_estimator(x, 100).estimate
        b = hill_estimator(1e6 * x, 100).estimate
        assert a == pytest.approx(b, rel=1e-9)

    def test_degenerate_and_domain(self):
        with pytest.raises(DegenerateInput):
            hill_estimator(np.ones(1000), 50)
        with pytest.raises(ValueError):
            hill_estimator(np.arange(1.0, 100.0), 5)  # k < 10
        with pytest.raises(ValueError):
            hill_estimator(np.arange(1.0, 20.0), 30)  # k >= sample count
        with pytest.raises(ValueError):
            hill_estimator(np.array([-1.0] + [2.0] * 100), 10)


class TestProductTailTheory:
    def test_values(self):
        assert product_tail_theory(math.e, 0.5) == pytest.approx(0.5 * math.exp(-0.5))
        assert product_tail_theory(1.0 + 1e-12, 0.5) == pytest.approx(0.0, abs=1e-12)
        np.testing.assert_allclose(product_tail_theory(np.array([4.0, 9.0]), 0.5),
                                   [0.5 * math.log(4.0) / 2.0, 0.5 * math.log(9.0) / 3.0])

    def test_domain(self):
        with pytest.raises(ValueError):
            product_tail_theory(1.0, 0.5)
        with pytest.raises(ValueError):
            product_tail_theory(np.array([2.0, 0.5]), 0.5)

    def test_decreasing_past_knee(self):
        # alpha z^(-alpha) ln z peaks at z = e^(1/alpha)
        z = np.geomspace(math.exp(2.0) + 0.1, 1e5, 200)
        assert np.all(np.diff(product_tail_theory(z, 0.5)) < 0.0)

    def test_empirical_ratio_drifts_to_one(self):
        rng = stream_rng(0, 941, 0)
        prod = pareto(0.5, rng, 10**7) * pareto(0.5, rng, 10**7)
        prod.sort()
        zs = np.array([1e2, 1e3, 1e4])
        p_hat = 1.0 - np.searchsorted(prod, zs, side="right") / prod.size
        ratios = p_hat / product_tail_theory(zs, 0.5)
        assert np.all(np.diff(ratios) < 0.0)
        assert abs(ratios[-1] - 1.0) < 0.3


class TestKSDistance:
    def test_identical_and_disjoint(self):
        x = np.array([1.0, 2.0, 3.0])
        assert ks_distance(x, x) == 0.0
        assert ks_distance(x, x + 10.0) == 1.0

    def test_matches_scipy(self):
        rng = stream_rng(0, 942, 0)
        for _ in range(5):
            a = rng.standard_normal(257)
            b = rng.standard_normal(123) + 0.3
            assert ks_distance(a, b) == pytest.approx(sps.ks_2samp(a, b).statistic, abs=1e-12)

    def test_symmetry_and_triangle(self):
        rng = stream_rng(0, 942, 1)
        a, b, c = rng.standard_normal((3, 200))
        assert ks_distance(a, b) == ks_distance(b, a)
        assert ks_distance(a, c) <= ks_distance(a, b) + ks_distance(b, c) + 1e-12

    def test_empty_error(self):
        with pytest.raises(ValueError):
            ks_distance(np.array([]), np.array([1.0]))

    def test_same_law_stays_small(self):
        rng = stream_rng(0, 942, 2)
        a = pareto(0.5, rng, 10**4)
        b = pareto(0.5, rng, 10**4)
        assert ks_distance(a, b) < 0.03


class TestLogCorrectionFit:
    def synthetic_samples(self, a, b, alpha, z):
        # place atoms so the empirical survival at each z equals
        # (a + b ln z) * z^(-alpha) up to 1/N count rounding
        n = 10**6
        counts = np.round(n * (a + b * np.log(z)) * z ** (-alpha)).astype(int)
        assert np.all(np.diff(counts) < 0) and counts[-1] > 0
        vals = [np.full(n - counts[0], z[0] * 0.5)]
        for i in range(len(z) - 1):
            vals.append(np.full(counts[i] - counts[i + 1], 0.5 * (z[i] + z[i + 1])))
        vals.append(np.full(counts[-1], z[-1] * 2.0))
        return np.concatenate(vals)

    def test_recovers_planted_slope(self):
        z = np.geomspace(10.0, 1e4, 12)
        samples = self.synthetic_samples(0.3, 0.5, 0.5, z)
        fit = log_correction_fit(samples, z, 0.5)
        assert fit.slope == pytest.approx(0.5, abs=1e-3)
        assert fit.intercept == pytest.approx(0.3, abs=2e-3)
        assert fit.residual_norm < 1e-3

    def test_critical_product_slope(self):
        rng = stream_rng(0, 943, 0)
        prod = pareto(0.5, rng, 10**6) * pareto(0.5, rng, 10**6)
        fit = log_correction_fit(prod, np.geomspace(1e2, 1e4, 25), 0.5)
        assert abs(fit.slope - 0.5) < 0.2 * 0.5

    def test_noncritical_residual_slope(self):
        # min(alpha, beta) = 0.5 with beta = 0.8: no log factor, but the
        # subleading z^(-0.3) term leaves a small positive residual slope
        rng = stream_rng(0, 943, 1)
        prod = pareto(0.5, rng, 10**6) * pareto(0.8, rng, 10**6)
        fit = log_correction_fit(prod, np.geomspace(1e2, 1e4, 25), 0.5)
        assert abs(fit.slope) < 0.15

    def test_insufficient_data(self):
        x = pareto(0.5, stream_rng(0, 943, 2), 1000)
        with pytest.raises(InsufficientData):
            log_correction_fit(x, np.geomspace(10, 100, 4), 0.5)  # short grid
        with pytest.raises(InsufficientData):
            log_correction_fit(x, np.array([10.0, 9.0, 20.0, 30.0, 40.0]), 0.5)
        with pytest.raises(InsufficientData):
            log_correction_fit(x, np.geomspace(1e8, 1e9, 8), 0.5)  # empty tail


class TestScalingExponentFit:
    def snap(self, n, values, space_norm=1.0, time_norm=None, kind=None, alpha=0.5):
        return EnsembleSnapshot(
            values=np.asarray(values, float)[:, None], alpha=alpha, beta=0.8,
            measure=SpectralMeasure.uniform(1), variant="wait-first", n=n, t=1.0,
            n_samples=len(values), seed=0, stream=0, space_norm=space_norm,
            time_norm=n**2.0 if time_norm is None else time_norm, regime_kind=kind)

    def test_exact_power_law(self):
        snaps = [self.snap(n, np.full(10, (n**2.0) ** 1.3)) for n in (100, 1000, 10000)]
        assert scaling_exponent_fit(snaps) == pytest.approx(1.3, rel=1e-9)

    def test_critical_log_removal(self):
        snaps = [self.snap(n, np.full(10, n**2 * math.log(n) ** 2), kind=CRITICAL)
                 for n in (100, 1000, 10000)]
        assert scaling_exponent_fit(snaps) == pytest.approx(1.0, rel=1e-9)

    def test_quantile_choice(self):
        snaps = [self.snap(n, np.linspace(1.0, 3.0, 11) * n**2) for n in (10, 100, 1000)]
        assert scaling_exponent_fit(snaps, q=0.5) == pytest.approx(1.0, rel=1e-9)
        with pytest.raises(ValueError):
            scaling_exponent_fit(snaps, q=1.5)

    def test_needs_three_scales(self):
        snaps = [self.snap(n, np.full(10, float(n))) for n in (100, 1000)]
        with pytest.raises(InsufficientData):
            scaling_exponent_fit(snaps)

    def test_degenerate_quantile(self):
        snaps = [self.snap(n, np.zeros(10)) for n in (100, 1000, 10000)]
        with pytest.raises(InsufficientData):
            scaling_exponent_fit(snaps)


class TestSpearman:
    def test_monotone(self):
        x = np.array([1.0, 2.0, 5.0, 9.0])
        assert spearman(x, x**3) == pytest.approx(1.0)
        assert spearman(x, -x) == pytest.approx(-1.0)

    def test_matches_scipy(self):
        rng = stream_rng(0, 944, 0)
        x, y = rng.standard_normal((2, 500))
        assert spearman(x, y) == pytest.approx(sps.spearmanr(x, y).statistic, abs=1e-12)

    def test_domain(self):
        with pytest.raises(ValueError):
            spearman(np.arange(3.0), np.arange(4.0))
        with pytest.raises(ValueError):
            spearman(np.arange(2.0), np.arange(2.0))


ESTIMATORS = {
    "hill": lambda x, ref: hill_estimator(x, 10),
    "ks-first": lambda x, ref: ks_distance(x, ref),
    "ks-second": lambda x, ref: ks_distance(ref, x),
    "log-fit": lambda x, ref: log_correction_fit(x, np.geomspace(1.5, 20.0, 5), 0.5),
    "spearman-first": lambda x, ref: spearman(x, ref),
    "spearman-second": lambda x, ref: spearman(ref, x),
}


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("name", list(ESTIMATORS))
def test_estimators_reject_non_finite(name, bad):
    ref = pareto(0.5, stream_rng(0, 945, 0), 200)
    x = ref.copy()
    x[17] = bad
    with pytest.raises(ValueError):
        ESTIMATORS[name](x, ref)
    ESTIMATORS[name](ref, ref)  # the same call on finite samples is fine
