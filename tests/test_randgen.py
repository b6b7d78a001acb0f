import math

import numpy as np
import pytest
from scipy import stats as sps

from levywalk import randgen
from levywalk import (PathTooShort, SpectralMeasure, TailLaw,
                      build_subordinator_path, draw_pareto,
                      extend_subordinator_path, first_passage,
                      inverse_subordinator, positive_stable, sample_direction,
                      stream_rng)


def test_stream_rng_reproducible_and_disjoint():
    a = stream_rng(7, 3, 11).random(8)
    b = stream_rng(7, 3, 11).random(8)
    np.testing.assert_array_equal(a, b)
    assert not np.array_equal(a, stream_rng(7, 3, 12).random(8))
    assert not np.array_equal(a, stream_rng(7, 4, 11).random(8))
    assert not np.array_equal(a, stream_rng(8, 3, 11).random(8))


class TestTailLaw:
    def test_validation(self):
        for bad in (0.0, 1.0, -0.2, 1.7):
            with pytest.raises(ValueError):
                TailLaw(bad)
        with pytest.raises(ValueError):
            TailLaw(0.5, scale=0.0)
        with pytest.raises(ValueError):
            TailLaw(0.5, cutoff=-1.0)

    def test_survival(self):
        law = TailLaw(0.5)
        assert law.survival(4.0) == pytest.approx(0.5)
        assert law.survival(0.5) == 1.0  # below cutoff
        law2 = TailLaw(0.8, cutoff=2.0)
        assert law2.survival(2.0) == pytest.approx(1.0)
        assert law2.survival(20.0) == pytest.approx(10.0**-0.8)

    def test_tail_constant(self):
        assert TailLaw(0.5, cutoff=4.0).tail_constant == pytest.approx(2.0)
        assert TailLaw(0.3).tail_constant == pytest.approx(1.0)

    def test_stable_normalized(self):
        # cutoff chosen so the tail constant is 1/Gamma(1-index)
        law = TailLaw.stable_normalized(0.5)
        assert law.cutoff == pytest.approx(1.0 / math.pi)
        assert law.tail_constant == pytest.approx(1.0 / math.sqrt(math.pi))
        law = TailLaw.stable_normalized(0.8)
        assert law.tail_constant == pytest.approx(1.0 / math.gamma(0.2))


class FixedUniforms:
    """Stand-in generator whose random(size) returns the given values."""

    def __init__(self, values):
        self.values = np.asarray(values, dtype=float)

    def random(self, size=None):
        return self.values


class TestParetoSampling:
    def test_inversion_formula(self):
        # draw_pareto inverts the survival at u = 1 - random()
        np.testing.assert_allclose(draw_pareto(TailLaw(0.5), FixedUniforms([0.75]), 1), [16.0])
        np.testing.assert_allclose(draw_pareto(TailLaw(0.8, cutoff=2.0), FixedUniforms([0.5]), 1),
                                   [2.0 * 2.0**1.25])
        # u = 1 is the support boundary
        assert draw_pareto(TailLaw(0.5, cutoff=3.0), FixedUniforms([0.0]), 1)[0] == 3.0

    def test_domain_errors(self):
        with pytest.raises(ValueError):  # only scale 1 is a law on [cutoff, inf)
            draw_pareto(TailLaw(0.5, scale=2.0), FixedUniforms([0.5]), 1)

    def test_survival_spot_checks(self):
        # empirical survival at {2,10,100} * cutoff within 3 MC sigma
        n = 10**6
        for i, law in enumerate((TailLaw(0.3), TailLaw(0.5), TailLaw(0.8, cutoff=2.5))):
            x = draw_pareto(law, stream_rng(0, 900, i), n)
            assert x.min() >= law.cutoff
            for mult in (2.0, 10.0, 100.0):
                z = mult * law.cutoff
                p = float(law.survival(z))
                se = math.sqrt(p * (1.0 - p) / n)
                assert abs(np.mean(x > z) - p) < 3.0 * se


class TestSpectralMeasure:
    def test_atom_validation(self):
        with pytest.raises(ValueError):
            SpectralMeasure.atoms([[1.0, 1.0]], [1.0])  # not unit norm
        with pytest.raises(ValueError):
            SpectralMeasure.atoms([[1.0, 0.0]], [0.7])  # probs sum != 1
        with pytest.raises(ValueError):
            SpectralMeasure.atoms([[1.0, 0.0], [0.0, 1.0]], [1.2, -0.2])
        with pytest.raises(ValueError):
            SpectralMeasure(0)

    def test_degenerate_atom(self):
        m = SpectralMeasure.atoms([[1.0, 0.0]], [1.0])
        u = sample_direction(m, stream_rng(0, 901, 0), 100)
        np.testing.assert_array_equal(u, np.tile([1.0, 0.0], (100, 1)))

    def test_two_sided_d1_mean(self):
        m = SpectralMeasure.atoms([[1.0], [-1.0]], [0.5, 0.5])
        u = sample_direction(m, stream_rng(0, 901, 1), 10**6)
        assert abs(u.mean()) < 3.0 / math.sqrt(10**6)

    def test_uniform_sphere_norms(self):
        for d in (1, 2, 5):
            u = sample_direction(SpectralMeasure.uniform(d), stream_rng(0, 901, d), 5000)
            assert u.shape == (5000, d)
            np.testing.assert_allclose(np.linalg.norm(u, axis=1), 1.0, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("d", range(1, 11))
    def test_uniform_equals_normalized_normals(self, d):
        # pins the bytes of every direction: the cheap norm used below d = 8
        # must equal np.linalg.norm exactly
        u = sample_direction(SpectralMeasure.uniform(d), stream_rng(0, 903, d), 4000)
        rng = stream_rng(0, 903, d)
        if d == 1:
            # the 1-d sphere {-1, +1} is drawn with a fair coin
            ref = np.where(rng.random(4000) < 0.5, -1.0, 1.0)[:, None]
        else:
            g = rng.standard_normal((4000, d))
            ref = g / np.linalg.norm(g, axis=1, keepdims=True)
        np.testing.assert_array_equal(u, ref)

    def test_uniform_isotropy(self):
        u = sample_direction(SpectralMeasure.uniform(3), stream_rng(0, 902, 0), 10**5)
        # each coordinate has mean 0, variance 1/3
        assert np.all(np.abs(u.mean(axis=0)) < 4.0 / math.sqrt(3 * 10**5))

    def test_single_draw_shape(self):
        u = sample_direction(SpectralMeasure.uniform(2), stream_rng(0, 902, 1))
        assert u.shape == (2,)


class TestPositiveStable:
    def test_laplace_transform_grid(self):
        for i, alpha in enumerate((0.3, 0.5, 0.8)):
            x = positive_stable(alpha, stream_rng(0, 903, i), 10**5)
            for s in (0.5, 1.0, 2.0):
                vals = np.exp(-s * x)
                se = vals.std(ddof=1) / math.sqrt(vals.size)
                assert abs(vals.mean() - math.exp(-(s**alpha))) < 3.0 * se

    def test_alpha_half_closed_form(self):
        # alpha = 1/2 positive stable with E exp(-sX) = exp(-sqrt(s)) is
        # the Levy distribution with scale 1/2
        x = positive_stable(0.5, stream_rng(0, 903, 10), 2 * 10**4)
        ks = sps.kstest(x, sps.levy(scale=0.5).cdf).statistic
        assert ks < 0.015

    @pytest.mark.parametrize("a", [0.3, 0.5, 0.8])
    def test_bitwise_kanter_formula(self, a):
        rng = stream_rng(0, 903, 30)
        u = np.pi * (1.0 - rng.random(5000))
        w = rng.standard_exponential(5000)
        kanter = (np.sin(a * u) / np.sin(u) ** (1.0 / a)) * (np.sin((1.0 - a) * u) / w) ** ((1.0 - a) / a)
        assert np.array_equal(positive_stable(a, stream_rng(0, 903, 30), 5000), kanter)

    def test_domain(self):
        with pytest.raises(ValueError):
            positive_stable(1.0, stream_rng(0, 903, 20))
        with pytest.raises(ValueError):
            positive_stable(0.0, stream_rng(0, 903, 20))


class TestSubordinatorPath:
    def test_shape_and_monotonicity(self):
        path = build_subordinator_path(0.5, 1.0, 0.01, stream_rng(0, 906, 0))
        assert len(path.increments) == 100
        assert path.cumulative[0] == 0.0
        assert np.all(np.diff(path.cumulative) > 0.0)
        assert path.tau_max == pytest.approx(1.0)

    def test_infinite_divisibility(self):
        from levywalk import ks_distance
        # sum of 10 grid increments over [0,1] is one S(1) draw
        sums = np.array([build_subordinator_path(0.5, 1.0, 0.1, stream_rng(0, 907, j))
                         .cumulative[-1] for j in range(10**4)])
        direct = positive_stable(0.5, stream_rng(0, 907, 10**5), 10**4)
        assert ks_distance(sums, direct) < 0.03

    def test_degenerate_marks_reproduce_increments(self):
        m = SpectralMeasure.atoms([[1.0, 0.0]], [1.0])
        path = build_subordinator_path(0.5, 1.0, 0.05, stream_rng(0, 906, 1),
                                       mark_jumps=True, velocity_law=1.0, measure=m)
        jumps = path.spatial_jumps()
        np.testing.assert_allclose(jumps[:, 0], path.increments, rtol=1e-15)
        np.testing.assert_array_equal(jumps[:, 1], 0.0)

    def test_mark_requirements(self):
        with pytest.raises(ValueError):
            build_subordinator_path(0.5, 1.0, 0.1, stream_rng(0, 906, 2), mark_jumps=True)
        with pytest.raises(ValueError):
            build_subordinator_path(0.5, 1.0, 2.0, stream_rng(0, 906, 3))  # delta > tau_max

    def test_extend_preserves_prefix(self):
        rng = stream_rng(0, 906, 4)
        path = build_subordinator_path(0.5, 1.0, 0.1, rng)
        longer = extend_subordinator_path(path, rng, 1.0)
        assert longer.tau_max == pytest.approx(2.0)
        np.testing.assert_array_equal(longer.increments[:10], path.increments)
        np.testing.assert_array_equal(longer.cumulative[:11], path.cumulative[:11])


class TestInverseSubordinator:
    def path(self):
        return build_subordinator_path(0.5, 1.5, 0.5, stream_rng(0, 908, 0)).__class__(
            alpha=0.5, delta_tau=0.5, increments=np.array([1.0, 2.0, 3.0]))

    def test_hand_path(self):
        p = self.path()  # cumulative [0, 1, 3, 6]
        assert inverse_subordinator(p, 0.0) == pytest.approx(0.5)
        assert inverse_subordinator(p, 0.5) == pytest.approx(0.5)
        assert inverse_subordinator(p, 1.0) == pytest.approx(1.0)  # strict exceedance
        assert inverse_subordinator(p, 2.99) == pytest.approx(1.0)
        assert inverse_subordinator(p, 3.0) == pytest.approx(1.5)
        assert inverse_subordinator(p, 5.999) == pytest.approx(1.5)
        with pytest.raises(PathTooShort):
            inverse_subordinator(p, 6.0)
        with pytest.raises(ValueError):
            inverse_subordinator(p, -0.1)

    def test_monotone_and_right_continuous(self):
        p = build_subordinator_path(0.5, 1.0, 0.01, stream_rng(0, 908, 1))
        ts = np.sort(stream_rng(0, 908, 2).random(500) * p.cumulative[-1] * 0.99)
        taus = inverse_subordinator(p, ts)
        assert np.all(np.diff(taus) >= 0.0)
        # right continuity at the jump values: value at C_k holds just after
        for k in (1, 7, 42):
            ck = p.cumulative[k]
            eps = (p.cumulative[k + 1] - ck) * 1e-6
            assert inverse_subordinator(p, ck) == inverse_subordinator(p, ck + eps)
            assert inverse_subordinator(p, ck - eps) < inverse_subordinator(p, ck)

    def test_mean_matches_mittag_leffler_moment(self):
        # E[S^{-1}(1)] = 1/Gamma(1+alpha) = 2/sqrt(pi) at alpha = 1/2
        taus = []
        for j in range(10**4):
            rng = stream_rng(0, 909, j)
            p = build_subordinator_path(0.5, 2.0, 1e-3, rng)
            while True:
                try:
                    taus.append(inverse_subordinator(p, 1.0))
                    break
                except PathTooShort:
                    p = extend_subordinator_path(p, rng, p.tau_max)
        mean = np.mean(taus)
        target = 2.0 / math.sqrt(math.pi)
        assert abs(mean - target) < 0.05 * target


def passage_by_path(alpha, delta_tau, t, rng, tau_max):
    """The build -> inverse -> extend loop that first_passage streams."""
    path = build_subordinator_path(alpha, tau_max, delta_tau, rng)
    extensions = 0
    while True:
        try:
            return inverse_subordinator(path, t), extensions
        except PathTooShort:
            path = extend_subordinator_path(path, rng, path.tau_max)
            extensions += 1


class FixedRng:
    """Uniforms all 1/2 and the given exponentials, in order."""

    def __init__(self, w):
        self.w = np.asarray(w, dtype=float)
        self.pos = 0

    def random(self, m):
        return np.full(m, 0.5)

    def standard_exponential(self, k):
        self.pos += k
        if self.pos > self.w.size:
            raise IndexError("read past the given exponentials")
        return self.w[self.pos - k:self.pos]


class TestFirstPassage:
    @pytest.mark.parametrize("alpha", [0.2, 0.5, 0.75, 0.95])
    @pytest.mark.parametrize("delta_tau,tau_max,t", [
        (1e-3, 2.0, 1.0), (1e-3, 2.0, 0.0), (0.01, 0.05, 20.0), (0.07, 0.3, 5.0),
        (0.1, 0.3, 5.0)])  # blocks of 3, 4, 7, ...: 0.1 * 3 / 0.1 rounds up
    def test_equals_path_loop(self, alpha, delta_tau, tau_max, t):
        extensions = []
        for j in range(6):
            expected, n_ext = passage_by_path(alpha, delta_tau, t, stream_rng(0, 910, j), tau_max)
            extensions.append(n_ext)
            got = first_passage(alpha, delta_tau, t, stream_rng(0, 910, j), tau_max)
            assert type(got) is float and got == expected
        if tau_max == 0.05:
            assert max(extensions) >= 3  # several blocks after the first

    @pytest.mark.parametrize("alpha", [0.3, 0.5])
    def test_passage_on_chunk_and_block_boundaries(self, alpha, monkeypatch):
        # blocks of 20 increments read in chunks of 8, 8 and 4
        monkeypatch.setattr(randgen, "PASSAGE_CHUNK", 8)
        rng = stream_rng(0, 911, 0)
        path = build_subordinator_path(alpha, 2.5, 0.125, rng)
        path = extend_subordinator_path(path, rng, path.tau_max)
        path = extend_subordinator_path(path, rng, path.tau_max)
        assert len(path.increments) == 80
        for k in (1, 8, 9, 16, 17, 20, 21, 40, 41, 80):
            # S(k - 1) <= t < S(k): the passage is at grid index k
            t = path.cumulative[k - 1]
            got = first_passage(alpha, 0.125, t, stream_rng(0, 911, 0), 2.5)
            assert got == 0.125 * k == passage_by_path(alpha, 0.125, t, stream_rng(0, 911, 0), 2.5)[0]

    def test_domain(self):
        rng = stream_rng(0, 912, 0)
        for t in (-0.1, math.inf, math.nan):
            with pytest.raises(ValueError):
                first_passage(0.5, 0.01, t, rng, 1.0)
        with pytest.raises(ValueError):
            first_passage(1.0, 0.01, 1.0, rng, 1.0)
        with pytest.raises(ValueError):
            first_passage(0.5, 2.0, 1.0, rng, 1.0)  # delta > tau_max

    def test_only_formed_increments_are_checked(self, monkeypatch):
        monkeypatch.setattr(randgen, "PASSAGE_CHUNK", 8)
        # an infinite exponential makes a zero increment
        w = np.ones(64)
        w[20] = math.inf
        x = first_passage(0.5, 1.0, 0.0, FixedRng(w), 64.0)
        assert x == 1.0  # passage in the first chunk; increment 21 never formed
        with pytest.raises(ValueError):
            first_passage(0.5, 1.0, 1e9, FixedRng(w), 64.0)
