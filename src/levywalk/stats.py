"""Estimators and distances that turn limit statements into numbers.

All estimators are pure functions of sample arrays they leave unchanged, or
of integer tail counts from `counts_at_most`, which reorders its sample.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateInput, InsufficientData
from .scaling import CRITICAL

__all__ = [
    "TailFit",
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
class TailFit:
    estimate: float
    k: int
    se: float  # Hill asymptotic standard error, estimate / sqrt(k)


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


def hill_estimator(samples, k: int) -> TailFit:
    """Hill tail-index estimate from the k largest order statistics.

    estimate = 1 / mean(log(X_(j) / X_(k+1)), j = 1..k). Unbiased for exact
    Pareto at any k; k is a bias/variance dial for anything else.
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
    est = 1.0 / mean_log
    return TailFit(estimate=float(est), k=int(k), se=float(est / np.sqrt(k)))


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


def log_correction_fit(samples, z_grid, alpha: float) -> LogCorrectionFit:
    """Least squares of y(z) = z^alpha * P_hat(X > z) against x = ln z.

    A product with a critical logarithmic tail factor gives y growing
    linearly in ln z with slope alpha; a pure power tail gives slope 0 up
    to the subleading correction, which over a finite window can leave a
    clearly nonzero slope (about 0.066 for indices 0.5 and 0.8 on
    geomspace(1e2, 1e4, 25)).

    `slope_se` comes from the usual residual-variance formula, so it
    measures how far the points are from a straight line, not the
    sampling error of the slope: every y value is read off the same
    upper-tail samples, so the points are correlated. For the critical
    product of two Pareto(1/2) factors with 10^7 samples `slope_se` is
    about 0.00024 while the Monte Carlo standard deviation of the slope
    is about 0.0015.
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
    p_hat = tail_counts / n
    y = z**alpha * p_hat
    x = np.log(z)
    design = np.column_stack([np.ones_like(x), x])
    coef, *_ = np.linalg.lstsq(design, y, rcond=None)
    resid = y - design @ coef
    dof = x.size - 2
    sigma2 = float(resid @ resid) / dof
    cov = sigma2 * np.linalg.inv(design.T @ design)
    return LogCorrectionFit(
        slope=float(coef[1]),
        intercept=float(coef[0]),
        slope_se=float(np.sqrt(cov[1, 1])),
        residual_norm=float(np.linalg.norm(resid)),
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
    return float(np.polyfit(xs, ys, 1)[0])


def spearman(x, y) -> float:
    """Rank correlation. Null standard error is 1/sqrt(N-1) for N pairs."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.size != y.size or x.size < 3:
        raise ValueError("need two equal-length samples with at least 3 pairs")
    _require_finite(x, y)
    rx = np.argsort(np.argsort(x))
    ry = np.argsort(np.argsort(y))
    return float(np.corrcoef(rx, ry)[0, 1])
