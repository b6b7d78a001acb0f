"""Regime classification, rescaled ensembles, and limit-path helpers.

The index pair (alpha, beta) of durations and speeds decides which
normalization makes the walk converge at fixed rescaled time:

    alpha < beta   space n^(1/alpha),        coupled spatial/temporal limits
    beta < alpha   space n^(1/beta),         independent limits
    alpha = beta   space (n log n)^(1/alpha), independent limits

Operational time is always rescaled by n^(1/alpha).
"""

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import PathTooShort
from .randgen import (TailLaw, SpectralMeasure, SubordinatorPath, draw_pareto,
                      sample_direction, stream_rng)
from .walk import (walk_endpoint, position_wait_first, position_jump_first,
                   position_continuous)

__all__ = [
    "SUBORDINATOR_DOMINATED",
    "VELOCITY_DOMINATED",
    "CRITICAL",
    "Regime",
    "classify_regime",
    "EnsembleSnapshot",
    "rescaled_ensemble",
    "continuous_limit_interpolation",
    "joint_partial_sums",
    "VARIANTS",
]

SUBORDINATOR_DOMINATED = "SubordinatorDominated"
VELOCITY_DOMINATED = "VelocityDominated"
CRITICAL = "Critical"

VARIANTS = {
    "wait-first": position_wait_first,
    "jump-first": position_jump_first,
    "continuous": position_continuous,
}


@dataclass(frozen=True)
class Regime:
    kind: str
    alpha: float
    beta: float
    alpha_star: float
    coupled: bool

    def space_norm(self, n) -> float:
        if self.kind == CRITICAL:
            if n < 2:
                raise ValueError("critical normalization needs n >= 2")
            return _norm(n * np.log(n), self.alpha, n)
        return _norm(n, self.alpha_star, n)

    def time_norm(self, n) -> float:
        return _norm(n, self.alpha, n)


def _norm(base, index, n):
    """base^(1/index) as a float; ValueError naming n and index if it overflows."""
    try:
        with np.errstate(over="ignore"):
            value = float(base ** (1.0 / index))
    except OverflowError:
        value = math.inf
    if value == math.inf:
        raise ValueError(f"the norm overflows a float at n = {n}, index = {index}")
    return value


def classify_regime(alpha: float, beta: float) -> Regime:
    """Pick the regime for duration index alpha and speed index beta.

    Critical means exact equality of the supplied floats: the regime is a
    modeling choice, not an estimate, so no epsilon matching.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must be in (0,1), got {alpha}")
    if not 0.0 < beta < 1.0:
        raise ValueError(f"beta must be in (0,1), got {beta}")
    if alpha < beta:
        return Regime(SUBORDINATOR_DOMINATED, alpha, beta, alpha, True)
    if beta < alpha:
        return Regime(VELOCITY_DOMINATED, alpha, beta, beta, False)
    return Regime(CRITICAL, alpha, beta, alpha, False)


@dataclass
class EnsembleSnapshot:
    """I.i.d. rescaled walk positions at one fixed rescaled time."""

    values: np.ndarray  # (n_samples, d)
    alpha: float
    beta: float  # None for the deterministic-speed diagnostic
    measure: SpectralMeasure
    variant: str
    n: int
    t: float
    n_samples: int
    seed: int
    stream: int
    space_norm: float
    time_norm: float
    regime_kind: str = None

    @property
    def dimension(self):
        return self.values.shape[1]

    def radial(self):
        return np.linalg.norm(self.values, axis=1)

    def coordinate(self, i=0):
        return self.values[:, i]


def _norms_for(duration_law, velocity_law, n):
    alpha = duration_law.index
    if isinstance(velocity_law, TailLaw):
        regime = classify_regime(alpha, velocity_law.index)
        return regime.space_norm(n), regime.time_norm(n), regime.kind, velocity_law.index
    # deterministic speed: displacement scales exactly like the duration sum
    norm = _norm(n, alpha, n)
    return norm, norm, None, None


def _parallel_fill(n_samples, threads, fill):
    """Run fill(j) for every sample index, chunked over a thread pool.

    Each j owns its generator, so the partition cannot change any output.
    """
    if threads <= 1:
        for j in range(n_samples):
            fill(j)
        return
    chunk = max(1, n_samples // (threads * 8))
    spans = [(lo, min(lo + chunk, n_samples)) for lo in range(0, n_samples, chunk)]

    def run(span):
        for j in range(*span):
            fill(j)

    with ThreadPoolExecutor(max_workers=threads) as pool:
        list(pool.map(run, spans))


def rescaled_ensemble(duration_law: TailLaw, velocity_law, measure: SpectralMeasure,
                      variant: str, n, t: float, n_samples: int, seed: int,
                      stream: int = 0, threads: int = 1) -> EnsembleSnapshot:
    """N_samples independent draws of space_norm(n)^-1 * X(time_norm(n) * t).

    Each sample is a fresh walk driven by stream_rng(seed, stream, j) and
    evaluated by walk_endpoint, which stores no steps but gives the same
    values as VARIANTS[variant] on a sample_trajectory. velocity_law may be
    a float for the deterministic-speed diagnostic, in which case both
    norms are n^(1/alpha).
    """
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}")
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    if t < 0.0:
        raise ValueError("t must be nonnegative")
    space, time_, regime_kind, beta = _norms_for(duration_law, velocity_law, n)
    horizon = time_ * t
    out = np.empty((n_samples, measure.dimension))

    def fill(j):
        rng = stream_rng(seed, stream, j)
        out[j] = walk_endpoint(duration_law, velocity_law, measure, rng, horizon, variant)[1]

    _parallel_fill(n_samples, threads, fill)
    return EnsembleSnapshot(
        values=out / space, alpha=duration_law.index, beta=beta, measure=measure,
        variant=variant, n=n, t=t, n_samples=n_samples, seed=seed, stream=stream,
        space_norm=space, time_norm=time_, regime_kind=regime_kind)


def continuous_limit_interpolation(path: SubordinatorPath, t):
    """Spatial value of the continuous-walk limit at physical time t.

    The marked path supplies temporal increments and their spatial jumps.
    When t falls at a path value (within 1e-12 relative) the left-limit
    spatial value is returned; strictly inside a straddling jump interval
    (G, H) the spatial jump is traversed linearly with weight
    (t - G) / (H - G), which is the fraction of the jump already covered.
    """
    if not path.marked:
        raise ValueError("interpolation needs a marked path")
    t_arr = np.asarray(t, dtype=float)
    if np.any(t_arr < 0.0):
        raise ValueError("t must be nonnegative")
    C = path.cumulative
    k = np.searchsorted(C, t_arr, side="right")  # first index with C[k] > t
    if np.any(k == len(C)):
        raise PathTooShort(f"path reaches {C[-1]:g}, queried {t_arr.max():g}")
    s_ext = np.vstack([np.zeros((1, path.mark_u.shape[1])), np.cumsum(path.spatial_jumps(), axis=0)])
    G = C[k - 1]
    H = C[k]
    w = (t_arr - G) / (H - G)
    # snap when t sits on a path value at float resolution; the left-limit
    # spatial value there is the cumulative sum through the matched jump
    w = np.where(np.abs(t_arr - G) <= 1e-12 * np.maximum(1.0, np.abs(G)), 0.0, w)
    w = np.where(np.abs(t_arr - H) <= 1e-12 * np.maximum(1.0, np.abs(H)), 1.0, w)
    out = s_ext[k - 1] + np.asarray(w)[..., None] * (s_ext[k] - s_ext[k - 1])
    return out


def joint_partial_sums(duration_law: TailLaw, velocity_law: TailLaw,
                       measure: SpectralMeasure, n: int, n_samples: int,
                       seed: int, stream: int = 0, threads: int = 1):
    """Samples of the pair (rescaled radial jump sum, rescaled duration sum).

    Both sums run over the same first n steps, which is exactly the object
    whose limit components are coupled for alpha < beta and independent
    for beta < alpha. Returns (radial, dursum) arrays of length n_samples.
    """
    regime = classify_regime(duration_law.index, velocity_law.index)
    space = regime.space_norm(n)
    time_ = regime.time_norm(n)
    radial = np.empty(n_samples)
    dursum = np.empty(n_samples)

    def fill(j):
        rng = stream_rng(seed, stream, j)
        T = draw_pareto(duration_law, rng, n)
        V = draw_pareto(velocity_law, rng, n)
        U = sample_direction(measure, rng, n)
        radial[j] = np.linalg.norm(((V * T)[:, None] * U).sum(axis=0)) / space
        dursum[j] = T.sum() / time_

    _parallel_fill(n_samples, threads, fill)
    return radial, dursum
