"""Estimators and distances that turn limit statements into numbers.

All estimators are pure functions of sample arrays they leave unchanged, or
of integer tail counts from `counts_at_most`, which reorders its sample.
The tail suites' bulk samples are never held whole: `_counts_below` counts
Pareto products below thresholds, and `_top` keeps their largest values,
PRODUCT_CHUNK samples at a time, bit for bit as the one-shot draw.

No estimator calls BLAS or LAPACK (no matrix product, lstsq, inv, polyfit,
corrcoef, or norm of a 1-D vector): the line fits and the rank correlation
are closed forms over np.sum, which adds pairwise. So the critical and
exponents suites map no OpenBLAS kernel (1.4 and 1.1 MB of resident pages
when they did), and no fit's bits depend on which kernel the CPU selects.
"""

import copy
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateInput, InsufficientData
from .randgen import TailLaw, _pareto_from_uniforms
from .scaling import CRITICAL

__all__ = [
    "LogCorrectionFit",
    "hill_estimator",
    "product_tail_theory",
    "ks_distance",
    "counts_at_most",
    "log_correction_fit",
    "log_correction_fit_counts",
    "scaling_exponent_fit",
    "spearman",
]


@dataclass(frozen=True)
class LogCorrectionFit:
    slope: float
    intercept: float
    slope_se: float
    residual_norm: float


def _require_finite(*arrays):
    # sorting puts -inf first and inf and NaN last, so callers holding a
    # sorted array pass only its ends
    if not all(np.isfinite(a).all() for a in arrays):
        raise ValueError("samples must be finite")


def hill_estimator(samples, k: int) -> float:
    """Hill tail-index estimate from the k largest order statistics.

    Returns 1 / mean(log(X_(j) / X_(k+1)), j = 1..k), whose asymptotic
    standard error is the estimate over sqrt(k). Unbiased for exact Pareto
    at any k; k is a bias/variance dial for anything else.
    """
    x = np.asarray(samples, dtype=float)
    if k < 10:
        raise ValueError("k must be at least 10")
    if k >= x.size:
        raise ValueError("k must be smaller than the sample count")
    if np.any(x <= 0.0):
        raise ValueError("samples must be positive")
    top = np.partition(x, x.size - k - 1)[x.size - k - 1:]
    top = np.sort(top)  # top[0] is X_(k+1)
    _require_finite(top[-1:])
    mean_log = np.mean(np.log(top[1:]) - np.log(top[0]))
    if mean_log <= 0.0:
        raise DegenerateInput("top order statistics carry no log spacing")
    return float(1.0 / mean_log)


def product_tail_theory(z, alpha: float):
    """Critical product-tail asymptote alpha * z^(-alpha) * ln z, z > 1."""
    z = np.asarray(z, dtype=float)
    if np.any(z <= 1.0):
        raise ValueError("z must exceed 1")
    out = alpha * z ** (-alpha) * np.log(z)
    return float(out) if out.ndim == 0 else out


def ks_distance(a, b) -> float:
    """Two-sample Kolmogorov-Smirnov sup distance between empirical CDFs."""
    a = np.sort(np.asarray(a, dtype=float))
    b = np.sort(np.asarray(b, dtype=float))
    if a.size == 0 or b.size == 0:
        raise ValueError("samples must be nonempty")
    _require_finite(a[[0, -1]], b[[0, -1]])
    pooled = np.concatenate([a, b])
    fa = np.searchsorted(a, pooled, side="right") / a.size
    fb = np.searchsorted(b, pooled, side="right") / b.size
    return float(np.abs(fa - fb).max())


# counts_at_most counts up to this many thresholds with one pass over the
# sample each. On a 2^16 chunk of products (2-vCPU VM, numpy 2.4.6) a pass
# costs about 0.02 ms, and partitioning at the lowest threshold and sorting
# the 22-33 % above it costs 0.23-0.3 ms, so they cross at 12-16.
FEW_THRESHOLDS = 12

# the tails and critical suites draw their Pareto samples and products in
# pieces of this many samples (512 KiB of doubles) instead of holding them
PRODUCT_CHUNK = 2**16
# relative half-width of the band around each threshold of _counts_below's
# proxy inside which a chunk is counted from its products; the proxy and the
# products round at about 1e-16, so a chunk rarely falls back
BAND = 1e-9


def counts_at_most(x, z):
    """#{x <= z_i} for each z_i of the nondecreasing array z, reordering x in place.

    With at most FEW_THRESHOLDS thresholds, each is one contiguous count.
    With more, only the values above z[0] are sorted: a partition at
    low = #{x <= z[0]} leaves exactly those in x[low:], and searchsorted
    counts them at or below each z_i.
    """
    if z.size <= FEW_THRESHOLDS:
        return np.array([np.count_nonzero(x <= t) for t in z], dtype=np.int64)
    low = np.count_nonzero(x <= z[0])
    if 0 < low < x.size:
        x.partition(low)
    above = x[low:]
    above.sort()
    return low + np.searchsorted(above, z, side="right")


def _factor_rngs(indices, rng, n, start=0):
    """One generator per factor of the one-shot product of n samples, each
    at sample start of its factor.

    Factor i starts i * n doubles on, and random() reads one 64-bit word a
    double, so a copy of the bit generator advanced by i * n + start words
    draws it. rng itself is not moved.
    """
    if not isinstance(rng.bit_generator, np.random.PCG64):
        raise TypeError(f"need a PCG64 generator to skip ahead, "
                        f"got {type(rng.bit_generator).__name__}")
    return [np.random.Generator(copy.deepcopy(rng.bit_generator).advance(i * n + start))
            for i in range(len(indices))]


def _products_into(laws, rngs, out, scratch):
    """Write into out the next m = len(out) products of draw_pareto(law, rng_i, m)
    over the factors, bit for bit; return out.

    Factor 1's uniforms are drawn into out and factor i > 1's into scratch
    (at least as long as out), each turned into draw_pareto's variates in
    place by _pareto_from_uniforms, so no array is allocated.
    """
    with np.errstate(over="ignore"):  # an overflow is the finiteness check's to refuse
        _pareto_from_uniforms(laws[0], rngs[0].random(out=out))
        y = scratch[:out.size]
        for law, rng_i in zip(laws[1:], rngs[1:]):
            np.multiply(out, _pareto_from_uniforms(law, rng_i.random(out=y)), out=out)
    # the products are positive, so an inf or NaN shows in their max
    if not np.isfinite(out.max()):
        raise ValueError("samples must be finite")
    return out


def _counts_below(indices, rng, n, z):
    """#{X <= z_j} for each z_j of the nondecreasing array z, over the n
    products X of draw_pareto(TailLaw(a), rng, n) over a in indices, the
    factors drawn one after another, counted from their uniforms.

    With a_i = 1 - u_i (exact) for factor i's uniforms, a product is
    X = p^(-1/alpha_1) for the proxy p = a_1 prod_{i>1} a_i^(alpha_1/alpha_i),
    so X <= z_j exactly when p >= q_j = z_j^(-alpha_1): equal indices need
    no pow at all. A chunk is counted from -p against -q_j (1 + BAND) and
    -q_j (1 - BAND) with counts_at_most, which the uniforms' buffers
    hold in place of the uniforms. Where the rounding of p or of X could
    decide a count, because some p lies inside a band, or where some
    factor or product could overflow, because some p lies below
    2^(-1000 alpha_1) (X above 2^1000), the chunk is drawn again from the
    same words into the same buffers and counted from its products
    (_products_into, with its finiteness check). So the counts, and any
    ValueError, are those of the one-shot product. Once counted, rng is in
    the state the one-shot draw leaves.
    """
    laws = [TailLaw(a) for a in indices]
    rngs = _factor_rngs(indices, rng, n)
    lead = indices[0]
    # every X is >= 1, so z < 1 counts none; the clamp keeps q finite and
    # above 1 >= p
    q = np.maximum(z, 0.5) ** -lead
    edges = np.append(np.column_stack([-q * (1.0 + BAND), -q * (1.0 - BAND)]).ravel(),
                      -2.0 ** (-1000.0 * lead))
    order = np.argsort(edges, kind="stable")  # bands of close z_j overlap
    sorted_edges = edges[order]
    counts = np.empty(edges.size, dtype=np.int64)
    below = np.zeros(z.size, dtype=np.int64)
    uniforms = [np.empty(min(PRODUCT_CHUNK, n)) for _ in indices]
    for start in range(0, n, PRODUCT_CHUNK):
        m = min(PRODUCT_CHUNK, n - start)
        a = [rng_i.random(out=u[:m]) for rng_i, u in zip(rngs, uniforms)]
        neg_p = np.subtract(a[0], 1.0, out=a[0])  # -a_1
        for index, a_i in zip(indices[1:], a[1:]):
            np.subtract(1.0, a_i, out=a_i)
            if index != lead:
                np.power(a_i, lead / index, out=a_i)
            neg_p = np.multiply(neg_p, a_i, out=a_i)
        counts[order] = counts_at_most(neg_p, sorted_edges)
        # #{p >= q_j (1 + BAND)}, #{p >= q_j (1 - BAND)}, #{p >= 2^(-1000 alpha_1)}
        outer, inner, safe = counts[:-1:2], counts[1:-1:2], counts[-1]
        if safe == m and np.array_equal(outer, inner):
            below += outer
        else:
            # one factor needs no scratch, so uniforms[-1] may be uniforms[0]
            x = _products_into(laws, _factor_rngs(indices, rng, n, start), uniforms[0][:m],
                               uniforms[-1])
            below += counts_at_most(x, z)
    rng.bit_generator.advance(len(indices) * n)
    return below


def _top(indices, rng, n, k):
    """The k + 1 largest of the n products of draw_pareto(TailLaw(a), rng, n)
    over a in indices, unordered; rng is left as the one-shot draw leaves it.

    The products are drawn PRODUCT_CHUNK at a time, bit for bit those of
    the one-shot expression, into one array that keeps the running top at
    its end: each chunk is written just in front of the top, and the two
    together are partitioned in place so that the k + 1 largest end up at
    the end again. That is the same multiset as the top k + 1 of the
    whole product, which is all a Hill estimate reads. The array and the
    further factors' scratch chunk are made once, so no chunk allocates or
    frees an array: a chunk freed each time lets glibc trim the heap top
    after every chunk, at about 4000 more page faults in the Hill row.
    """
    laws = [TailLaw(a) for a in indices]
    rngs = _factor_rngs(indices, rng, n)
    chunk = min(PRODUCT_CHUNK, n)
    buf, scratch = np.empty(k + 1 + chunk), np.empty(chunk)
    kept = 0
    for start in range(0, n, PRODUCT_CHUNK):
        m = min(PRODUCT_CHUNK, n - start)
        lo = buf.size - kept - m
        _products_into(laws, rngs, buf[lo:lo + m], scratch)
        kept = min(kept + m, k + 1)
        if buf.size - lo > kept:
            buf[lo:].partition(buf.size - lo - kept)
    rng.bit_generator.advance(len(indices) * n)
    return buf[buf.size - kept:]


def log_correction_fit(samples, z_grid, alpha: float) -> LogCorrectionFit:
    """Least squares of y(z) = z^alpha * P_hat(X > z) against x = ln z.

    A product with a critical logarithmic tail factor gives y growing
    linearly in ln z with slope alpha; a pure power tail gives slope 0 up
    to the subleading correction, which over a finite window can leave a
    clearly nonzero slope (about 0.066 for indices 0.5 and 0.8 on
    geomspace(1e2, 1e4, 25)).

    The fit is closed-form (`_line_fit`). `slope_se` is the usual
    residual-variance formula, sqrt(sum(r^2) / (N - 2) / sum((x - mean x)^2))
    over the N grid points' residuals r, so it measures how far the points
    are from a straight line, not the sampling error of the slope: every y
    value is read off the same upper-tail samples, so the points are
    correlated. For the critical product of two Pareto(1/2) factors with
    10^7 samples `slope_se` is about 0.00024 while the Monte Carlo
    standard deviation of the slope is about 0.0015.
    """
    x = np.array(samples, dtype=float)  # a copy: counts_at_most reorders it
    z = np.array(z_grid, dtype=float, ndmin=1)
    _require_finite(x)
    return log_correction_fit_counts(x.size - counts_at_most(x, z), x.size, z, alpha)


def log_correction_fit_counts(tail_counts, n: int, z_grid, alpha: float) -> LogCorrectionFit:
    """`log_correction_fit` from the tail counts #{X > z} of n samples at each z.

    The same least squares, for callers that count a sample too large to
    hold instead of keeping it.
    """
    z = np.asarray(z_grid, dtype=float)
    _require_finite(z)
    if z.size < 5 or np.any(np.diff(z) <= 0.0):
        raise InsufficientData("need a strictly increasing z grid with >= 5 points")
    tail_counts = np.asarray(tail_counts)
    if np.count_nonzero(tail_counts) < 5:
        raise InsufficientData("fewer than 5 grid points with nonzero tail counts")
    return _line_fit(np.log(z), z**alpha * (tail_counts / n))


def _line_fit(x, y) -> LogCorrectionFit:
    """Least squares of y = intercept + slope * x over at least 3 points.

    Closed form from centred sums: with xc = x - mean(x), slope =
    sum(xc (y - mean(y))) / sum(xc^2), intercept = mean(y) - slope mean(x),
    and slope_se = sqrt(sum(r^2) / (N - 2) / sum(xc^2)) for the residuals r.
    np.sum adds pairwise and calls no BLAS, so the fit maps no BLAS or
    LAPACK pages and its bits do not depend on the CPU's BLAS kernel.
    """
    xc = x - np.mean(x)
    sxx = np.sum(xc * xc)
    slope = np.sum(xc * (y - np.mean(y))) / sxx
    intercept = np.mean(y) - slope * np.mean(x)
    rss = np.sum((y - (intercept + slope * x)) ** 2)
    return LogCorrectionFit(
        slope=float(slope),
        intercept=float(intercept),
        slope_se=float(np.sqrt(rss / (x.size - 2) / sxx)),
        residual_norm=float(np.sqrt(rss)),
    )


def scaling_exponent_fit(snapshots, q: float = 0.5) -> float:
    """Growth exponent of the q-quantile of radial displacement.

    Regresses log(q-quantile of the unrescaled radial position at horizon
    time_norm(n)) on log(time_norm(n)) across the snapshots. The critical
    normalization carries a slowly varying log factor; for critical-regime
    snapshots the known (1/alpha) * ln ln n term is removed first so the fit
    isolates the power-law exponent.
    """
    if not 0.0 < q < 1.0:
        raise ValueError("q must be in (0,1)")
    snaps = list(snapshots)
    if len({s.n for s in snaps}) < 3:
        raise InsufficientData("need snapshots at >= 3 distinct scales")
    xs, ys = [], []
    for s in snaps:
        quant = float(np.quantile(s.radial() * s.space_norm, q))
        if not np.isfinite(quant) or quant <= 0.0:
            raise InsufficientData(f"degenerate quantile at n={s.n}")
        y = np.log(quant)
        if s.regime_kind == CRITICAL:
            y -= (1.0 / s.alpha) * np.log(np.log(s.n))
        xs.append(np.log(s.time_norm))
        ys.append(y)
    return _line_fit(np.array(xs), np.array(ys)).slope


def spearman(x, y) -> float:
    """Rank correlation. Null standard error is 1/sqrt(N-1) for N pairs.

    Ties are ranked in order of position, so the ranks are two
    permutations of 0..N-1 and rho = 1 - 6 sum(d^2) / (N (N^2 - 1)) for
    their differences d, which is the Pearson correlation of the ranks.
    sum(d^2) is an exact integer and the one division rounds once.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.size != y.size or x.size < 3:
        raise ValueError("need two equal-length samples with at least 3 pairs")
    _require_finite(x, y)
    d = np.argsort(np.argsort(x)) - np.argsort(np.argsort(y))
    # added as Python ints: sum(d^2) reaches N^3 / 3, past an int64 above
    # N = 3 * 10^6
    s = sum((d * d).tolist())
    n = x.size
    m = n * (n * n - 1)
    return (m - 6 * s) / m
