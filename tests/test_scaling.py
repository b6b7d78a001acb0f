import math

import numpy as np
import pytest

from levywalk import (CRITICAL, SUBORDINATOR_DOMINATED, VELOCITY_DOMINATED,
                      PathTooShort, SpectralMeasure, SubordinatorPath, TailLaw,
                      build_subordinator_path, classify_regime,
                      continuous_limit_interpolation, joint_partial_sums,
                      ks_distance, rescaled_ensemble,
                      stream_rng)


class TestClassifyRegime:
    def test_subordinator_dominated(self):
        r = classify_regime(0.5, 0.8)
        assert r.kind == SUBORDINATOR_DOMINATED
        assert r.alpha_star == 0.5
        assert r.coupled is True
        assert r.space_norm(10) == pytest.approx(100.0)
        assert r.time_norm(10) == pytest.approx(100.0)

    def test_velocity_dominated(self):
        r = classify_regime(0.8, 0.5)
        assert r.kind == VELOCITY_DOMINATED
        assert r.alpha_star == 0.5
        assert r.coupled is False
        assert r.space_norm(10) == pytest.approx(100.0)  # n^(1/beta)
        assert r.time_norm(10) == pytest.approx(10.0**1.25)

    def test_critical(self):
        r = classify_regime(0.5, 0.5)
        assert r.kind == CRITICAL
        assert r.coupled is False
        assert r.space_norm(100) == pytest.approx((100.0 * math.log(100.0)) ** 2)
        assert r.time_norm(100) == pytest.approx(10**4)
        # the log factor needs n >= 2
        with pytest.raises(ValueError):
            r.space_norm(1)

    def test_norm_overflow_raises(self):
        # (n ln n)^(1/alpha) overflows at alpha = 0.022, n = 10^6, before any draw
        law, m = TailLaw(0.022), SpectralMeasure.uniform(2)
        with pytest.raises(ValueError, match="n = 1000000, index = 0.022"):
            rescaled_ensemble(law, law, m, "wait-first", 10**6, 1.0, 10, 0, 932)
        with pytest.raises(ValueError, match="n = 1000000, index = 0.022"):
            joint_partial_sums(law, law, m, 10**6, 10, 0, 932)

    def test_exact_equality_only(self):
        assert classify_regime(0.5, 0.5 + 1e-12).kind == SUBORDINATOR_DOMINATED

    def test_domain(self):
        for a, b in ((0.0, 0.5), (0.5, 1.0), (1.2, 0.5)):
            with pytest.raises(ValueError):
                classify_regime(a, b)


class TestRescaledEnsemble:
    def test_zero_time(self):
        dur, vel = TailLaw(0.5), TailLaw(0.8)
        m = SpectralMeasure.uniform(2)
        for variant in ("wait-first", "continuous"):
            snap = rescaled_ensemble(dur, vel, m, variant, 100, 0.0, 50, 0, 924)
            np.testing.assert_array_equal(snap.values, 0.0)
        # jump-first starts with one full jump already taken
        snap = rescaled_ensemble(dur, vel, m, "jump-first", 100, 0.0, 50, 0, 924)
        assert np.all(np.linalg.norm(snap.values, axis=1) > 0.0)

    def test_snapshot_metadata(self):
        snap = rescaled_ensemble(TailLaw(0.5), TailLaw(0.8), SpectralMeasure.uniform(2),
                                 "wait-first", 100, 1.0, 20, 7, 925)
        assert snap.dimension == 2
        assert snap.values.shape == (20, 2)
        assert snap.n == 100 and snap.t == 1.0 and snap.seed == 7 and snap.stream == 925
        assert snap.space_norm == pytest.approx(10**4)
        assert snap.regime_kind == SUBORDINATOR_DOMINATED
        np.testing.assert_array_equal(snap.coordinate(1), snap.values[:, 1])
        np.testing.assert_allclose(snap.radial(), np.linalg.norm(snap.values, axis=1))
        assert np.all(np.isfinite(snap.values))

    def test_degenerate_speed_renewal_bound(self):
        # V = 1, d = 1, all steps to +e1: the rescaled wait-first value is the
        # rescaled renewal sum, which cannot exceed the elapsed time
        m = SpectralMeasure.atoms([[1.0]], [1.0])
        snap = rescaled_ensemble(TailLaw(0.5), 1.0, m, "wait-first", 100, 0.7, 200, 0, 926)
        assert snap.beta is None and snap.regime_kind is None
        assert snap.space_norm == snap.time_norm
        assert np.all(snap.values >= 0.0)
        assert np.all(snap.values <= 0.7)

    def test_thread_count_invariance(self):
        args = (TailLaw(0.5), TailLaw(0.8), SpectralMeasure.uniform(2),
                "wait-first", 200, 1.0, 120, 0, 927)
        np.testing.assert_array_equal(rescaled_ensemble(*args, threads=1).values,
                                      rescaled_ensemble(*args, threads=3).values)

    def test_cross_scale_collapse_small(self):
        m = SpectralMeasure.uniform(2)
        a = rescaled_ensemble(TailLaw(0.5), TailLaw(0.8), m, "wait-first",
                              300, 1.0, 2000, 0, 920, threads=2)
        b = rescaled_ensemble(TailLaw(0.5), TailLaw(0.8), m, "wait-first",
                              1000, 1.0, 2000, 0, 921, threads=2)
        assert ks_distance(a.coordinate(), b.coordinate()) < 0.06

    def test_validation(self):
        with pytest.raises(ValueError):
            rescaled_ensemble(TailLaw(0.5), TailLaw(0.8), SpectralMeasure.uniform(1),
                              "sideways", 100, 1.0, 10, 0, 0)
        with pytest.raises(ValueError):
            rescaled_ensemble(TailLaw(0.5), TailLaw(0.8), SpectralMeasure.uniform(1),
                              "wait-first", 100, 1.0, 0, 0, 0)


class TestLimitProxy:
    # the pre-limit at n = 10^5 stands in for the limit law

    def test_proxy_trend_across_scales(self):
        # distance to the reference law decreases, then flattens at the
        # two-sample noise floor
        args = (TailLaw(0.5), TailLaw(0.8), SpectralMeasure.uniform(1), "wait-first")
        proxy = rescaled_ensemble(*args, 10**5, 1.0, 1000, 0, 922, threads=4)
        ks = []
        for i, n in enumerate((100, 1000, 10000)):
            snap = rescaled_ensemble(*args, n, 1.0, 1000, 0, 923 + i, threads=4)
            ks.append(ks_distance(snap.coordinate(), proxy.coordinate()))
        assert ks[1] <= ks[0] + 0.01
        assert ks[2] <= ks[1] + 0.01
        assert ks[2] < 0.08

    def test_degenerate_speed_cone_bound(self):
        m = SpectralMeasure.uniform(1)
        proxy = rescaled_ensemble(TailLaw(0.5), 1.0, m, "wait-first",
                                  10**5, 0.5, 100, 0, 929, threads=4)
        assert np.all(np.abs(proxy.values) <= 0.5)

    def test_jump_first_dominates_wait_first(self):
        # shared stream means shared trajectories, so the one-sided-measure
        # dominance O >= U holds pathwise and therefore in distribution
        m = SpectralMeasure.atoms([[1.0]], [1.0])
        args = (TailLaw(0.5), TailLaw(0.8), m)
        wait = rescaled_ensemble(*args, "wait-first", 300, 1.0, 400, 0, 930)
        jump = rescaled_ensemble(*args, "jump-first", 300, 1.0, 400, 0, 930)
        assert np.all(jump.values >= wait.values)
        grid = np.linspace(0.0, np.max(jump.values), 50)
        cdf_jump = np.searchsorted(np.sort(jump.coordinate()), grid, side="right") / 400
        cdf_wait = np.searchsorted(np.sort(wait.coordinate()), grid, side="right") / 400
        assert np.all(cdf_jump <= cdf_wait + 1e-12)


class TestInterpolation:
    def toy_path(self):
        # one dominant temporal jump of size 2 straddled by small increments
        return SubordinatorPath(alpha=0.5, delta_tau=0.1,
                                increments=np.array([0.5, 2.0, 0.5]),
                                mark_v=np.array([3.0, 3.0, 3.0]),
                                mark_u=np.array([[1.0], [1.0], [1.0]]))

    def test_hand_weight(self):
        p = self.toy_path()  # cumulative [0, 0.5, 2.5, 3.0]; spatial jumps [1.5, 6, 1.5]
        np.testing.assert_allclose(continuous_limit_interpolation(p, 1.5), [4.5])
        np.testing.assert_allclose(continuous_limit_interpolation(p, 0.5), [1.5])  # at a path value
        np.testing.assert_allclose(continuous_limit_interpolation(p, 2.5), [7.5])
        np.testing.assert_allclose(continuous_limit_interpolation(p, 0.0), [0.0])

    def test_path_too_short_and_unmarked(self):
        with pytest.raises(PathTooShort):
            continuous_limit_interpolation(self.toy_path(), 3.5)
        bare = build_subordinator_path(0.5, 1.0, 0.1, stream_rng(0, 931, 0))
        with pytest.raises(ValueError):
            continuous_limit_interpolation(bare, 0.5)

    def test_output_between_straddle_values(self):
        m = SpectralMeasure.atoms([[1.0]], [1.0])
        rng = stream_rng(0, 931, 1)
        p = build_subordinator_path(0.5, 1.0, 0.01, rng, mark_jumps=True,
                                    velocity_law=TailLaw(0.8), measure=m)
        s = np.concatenate([[0.0], np.cumsum(p.spatial_jumps()[:, 0])])
        ts = rng.random(300) * p.cumulative[-1] * 0.999
        out = continuous_limit_interpolation(p, ts)[:, 0]
        k = np.searchsorted(p.cumulative, ts, side="right")
        assert np.all(out >= s[k - 1] - 1e-12)
        assert np.all(out <= s[k] + 1e-12)

    def test_vector_and_scalar_queries_agree(self):
        p = self.toy_path()
        ts = np.array([0.2, 1.5, 2.7])
        batch = continuous_limit_interpolation(p, ts)
        single = np.array([continuous_limit_interpolation(p, float(t)) for t in ts])
        np.testing.assert_array_equal(batch, single)


def test_joint_partial_sums_basic():
    m = SpectralMeasure.uniform(2)
    radial, dursum = joint_partial_sums(TailLaw(0.5), TailLaw(0.8), m, 2000, 2000, 0, 932, threads=2)
    assert radial.shape == dursum.shape == (2000,)
    assert np.all(radial >= 0.0) and np.all(dursum > 0.0)
    r2, d2 = joint_partial_sums(TailLaw(0.5), TailLaw(0.8), m, 2000, 2000, 0, 932, threads=1)
    np.testing.assert_array_equal(radial, r2)
    np.testing.assert_array_equal(dursum, d2)
    # the alpha < beta case shares its dominant jumps between components
    from levywalk import spearman
    assert spearman(radial, dursum) > 0.3
