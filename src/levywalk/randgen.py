"""Heavy-tailed step sampling and the one-sided stable subordinator.

Everything here is driven by an explicit numpy Generator, so callers own
reproducibility. For ensemble work use stream_rng(master, stream, index):
sample index j of ensemble e always sees the same generator regardless of
how the samples are scheduled across threads.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import PathTooShort

__all__ = [
    "TailLaw",
    "SpectralMeasure",
    "SubordinatorPath",
    "stream_rng",
    "draw_pareto",
    "sample_direction",
    "positive_stable",
    "build_subordinator_path",
    "extend_subordinator_path",
    "inverse_subordinator",
    "first_passage",
]

# first_passage draws and transforms exponentials this many at a time, so
# a path stops forming increments within one chunk of its first passage
PASSAGE_CHUNK = 4096


def stream_rng(master_seed: int, stream: int, index: int) -> np.random.Generator:
    """Independent generator for sample `index` of stream `stream`.

    Stateless counter construction: the generator depends only on the
    triple, never on draw order elsewhere, so parallel schedules cannot
    change the output.
    """
    ss = np.random.SeedSequence(entropy=master_seed, spawn_key=(stream, index))
    return np.random.default_rng(ss)


@dataclass(frozen=True)
class TailLaw:
    """One-sided power tail: survival(x) = scale * (x/cutoff)^(-index) for x >= cutoff.

    index must lie in (0,1): both durations and speeds have infinite mean.
    scale is tail-constant bookkeeping; the Pareto sampler itself requires
    scale == 1 (anything else is not a distribution on [cutoff, inf)).
    """

    index: float
    scale: float = 1.0
    cutoff: float = 1.0

    def __post_init__(self):
        if not 0.0 < self.index < 1.0:
            raise ValueError(f"index must be in (0,1), got {self.index}")
        if self.scale <= 0.0:
            raise ValueError(f"scale must be positive, got {self.scale}")
        if self.cutoff <= 0.0:
            raise ValueError(f"cutoff must be positive, got {self.cutoff}")

    def survival(self, x):
        x = np.asarray(x, dtype=float)
        return np.where(x < self.cutoff, 1.0, self.scale * (x / self.cutoff) ** (-self.index))

    @property
    def tail_constant(self):
        # c in survival(x) ~ c * x^(-index)
        return self.scale * self.cutoff**self.index

    @classmethod
    def stable_normalized(cls, index: float) -> "TailLaw":
        """Pareto law whose partial sums converge to the standard subordinator.

        cutoff = Gamma(1-index)^(-1/index) makes the tail constant equal
        1/Gamma(1-index), which is exactly what turns n^(-1/index) * sum(T_i)
        into S(t) with Laplace transform exp(-t s^index) and no extra scale.
        """
        return cls(index=index, cutoff=math.gamma(1.0 - index) ** (-1.0 / index))


def draw_pareto(law: TailLaw, rng, size=None):
    # 1 - random() lies in (0,1], and u=1 maps to the support boundary.
    if law.scale != 1.0:
        raise ValueError("Pareto sampling requires scale == 1")
    return law.cutoff * (1.0 - rng.random(size)) ** (-1.0 / law.index)


def _draw_speeds(velocity_law, rng, size):
    # a TailLaw, or a plain positive float for the deterministic-speed diagnostic
    if isinstance(velocity_law, TailLaw):
        return draw_pareto(velocity_law, rng, size)
    return float(velocity_law) * np.ones(size)


class SpectralMeasure:
    """Distribution of step directions on the unit sphere in R^d.

    Either the uniform (isotropic) measure or a finite list of atoms
    (unit vector, probability). d = 1 is allowed; its "sphere" is {-1,+1}.
    """

    def __init__(self, dimension: int, vectors=None, probs=None):
        if dimension < 1:
            raise ValueError("dimension must be >= 1")
        self.dimension = int(dimension)
        if vectors is None:
            self.vectors = None
            self.probs = None
            return
        vectors = np.atleast_2d(np.asarray(vectors, dtype=float))
        probs = np.asarray(probs, dtype=float)
        if vectors.shape[0] == 0:
            raise ValueError("need at least one atom")
        if vectors.shape[1] != dimension:
            raise ValueError("atom vectors do not match dimension")
        norms = np.linalg.norm(vectors, axis=1)
        if np.any(np.abs(norms - 1.0) > 1e-12):
            raise ValueError("atom vectors must have unit norm within 1e-12")
        if np.any(probs <= 0.0) or abs(probs.sum() - 1.0) > 1e-12:
            raise ValueError("atom probabilities must be positive and sum to 1 within 1e-12")
        self.vectors = vectors
        self.probs = probs

    @classmethod
    def uniform(cls, dimension: int) -> "SpectralMeasure":
        return cls(dimension)

    @classmethod
    def atoms(cls, vectors, probs) -> "SpectralMeasure":
        vectors = np.atleast_2d(np.asarray(vectors, dtype=float))
        return cls(vectors.shape[1], vectors, probs)

    @property
    def is_uniform(self):
        return self.vectors is None

    def describe(self) -> str:
        if self.is_uniform:
            return f"uniform(d={self.dimension})"
        parts = [
            f"{p:g} @ {' '.join(repr(float(c)) for c in v)}"
            for v, p in zip(self.vectors, self.probs)
        ]
        return "atoms[" + "; ".join(parts) + "]"


def sample_direction(measure: SpectralMeasure, rng, size=None):
    """Draw unit vectors from the spectral measure. Shape (size, d), or (d,) if size is None."""
    n = 1 if size is None else int(size)
    d = measure.dimension
    if measure.is_uniform:
        if d == 1:
            out = np.where(rng.random(n) < 0.5, -1.0, 1.0)[:, None]
        else:
            g = rng.standard_normal((n, d))
            if d <= 7:
                # np.linalg.norm adds fewer than 8 squares in order, so this
                # column form is bit-identical to it and several times
                # cheaper; from 8 columns numpy sums pairwise and bits differ
                sq = g[:, 0] * g[:, 0]
                for k in range(1, d):
                    sq += g[:, k] * g[:, k]
                out = g / np.sqrt(sq)[:, None]
            else:
                out = g / np.linalg.norm(g, axis=1, keepdims=True)
    else:
        cum = np.cumsum(measure.probs)
        idx = np.searchsorted(cum, rng.random(n) * cum[-1], side="right")
        idx = np.minimum(idx, len(cum) - 1)
        out = measure.vectors[idx]
    return out[0] if size is None else out


def positive_stable(alpha: float, rng, size=None):
    """Totally skewed positive stable variate X with E[exp(-s X)] = exp(-s^alpha).

    Kanter's construction: with U uniform on (0, pi) and W standard
    exponential,

        X = (sin(a U) / sin(U)^(1/a)) * (sin((1-a) U) / W)^((1-a)/a).
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must be in (0,1), got {alpha}")
    u = np.pi * (1.0 - rng.random(size))  # in (0, pi]; endpoint is harmless
    w = rng.standard_exponential(size)
    return _kanter(alpha, u, w)


def _kanter(a, u, w):
    """Kanter's formula at angles u and exponentials w (see positive_stable)."""
    sin_au = np.sin(a * u)
    # at a = 1/2 the two angles are the same floats, so one sine serves both
    sin_bu = sin_au if 1.0 - a == a else np.sin((1.0 - a) * u)
    return (sin_au / np.sin(u) ** (1.0 / a)) * (sin_bu / w) ** ((1.0 - a) / a)


@dataclass
class SubordinatorPath:
    """Grid skeleton of a subordinator sample path.

    cumulative[k] = S(k * delta_tau), with cumulative[0] = 0. Optional jump
    marks (speed v, direction u) per increment let the coupled spatial jump
    v * increment * u be reconstructed.
    """

    alpha: float
    delta_tau: float
    increments: np.ndarray
    cumulative: np.ndarray = field(default=None)
    mark_v: np.ndarray = None
    mark_u: np.ndarray = None

    def __post_init__(self):
        if self.cumulative is None:
            self.cumulative = np.concatenate([[0.0], np.cumsum(self.increments)])
        if np.any(self.increments <= 0.0):
            raise ValueError("increments must be strictly positive")

    @property
    def marked(self):
        return self.mark_v is not None

    @property
    def tau_max(self):
        return self.delta_tau * len(self.increments)

    def spatial_jumps(self):
        if not self.marked:
            raise ValueError("path carries no jump marks")
        return (self.mark_v * self.increments)[:, None] * self.mark_u


def build_subordinator_path(
    alpha: float,
    tau_max: float,
    delta_tau: float,
    rng,
    mark_jumps: bool = False,
    velocity_law=None,
    measure: SpectralMeasure = None,
) -> SubordinatorPath:
    """I.i.d. S(delta_tau) increments on a grid covering [0, tau_max].

    velocity_law may be a TailLaw or a plain positive float for a
    deterministic speed (degenerate diagnostic case).
    """
    if tau_max <= 0.0 or delta_tau <= 0.0 or delta_tau > tau_max:
        raise ValueError("need 0 < delta_tau <= tau_max")
    m = int(math.ceil(tau_max / delta_tau))
    inc = delta_tau ** (1.0 / alpha) * positive_stable(alpha, rng, m)
    mark_v = mark_u = None
    if mark_jumps:
        mark_v, mark_u = _draw_marks(m, rng, velocity_law, measure)
    return SubordinatorPath(alpha, delta_tau, inc, mark_v=mark_v, mark_u=mark_u)


def _draw_marks(m, rng, velocity_law, measure):
    if velocity_law is None or measure is None:
        raise ValueError("mark_jumps requires velocity_law and measure")
    return _draw_speeds(velocity_law, rng, m), sample_direction(measure, rng, m)


def extend_subordinator_path(path: SubordinatorPath, rng, extra_tau: float,
                             velocity_law=None, measure=None) -> SubordinatorPath:
    """Append fresh increments covering extra_tau more operational time."""
    m = int(math.ceil(extra_tau / path.delta_tau))
    inc = path.delta_tau ** (1.0 / path.alpha) * positive_stable(path.alpha, rng, m)
    mark_v = mark_u = None
    if path.marked:
        mark_v, mark_u = _draw_marks(m, rng, velocity_law, measure)
        mark_v = np.concatenate([path.mark_v, mark_v])
        mark_u = np.concatenate([path.mark_u, mark_u])
    return SubordinatorPath(
        path.alpha,
        path.delta_tau,
        np.concatenate([path.increments, inc]),
        mark_v=mark_v,
        mark_u=mark_u,
    )


def inverse_subordinator(path: SubordinatorPath, t):
    """First passage above level t, on the grid.

    Returns the smallest grid time tau with S(tau) > t (strict), i.e. the
    inverse subordinator rounded up to resolution delta_tau. Nondecreasing
    and right-continuous in t. Raises PathTooShort when the path never
    exceeds t; the caller extends and retries.
    """
    t = np.asarray(t, dtype=float)
    if np.any(t < 0.0):
        raise ValueError("t must be nonnegative")
    k = np.searchsorted(path.cumulative, t, side="right")
    if np.any(k == len(path.cumulative)):
        raise PathTooShort(f"path covers [0, {path.cumulative[-1]:g}], queried {t.max():g}")
    out = path.delta_tau * k
    return float(out) if out.ndim == 0 else out


def first_passage(alpha: float, delta_tau: float, t: float, rng, tau_max: float) -> float:
    """Grid first passage delta_tau * k, k the first index with S(k * delta_tau) > t.

    Bit-identical to build_subordinator_path(alpha, tau_max, delta_tau, rng)
    followed by extend_subordinator_path(path, rng, path.tau_max) until
    inverse_subordinator(path, t) succeeds: it reads rng in that loop's
    order and block sizes, but keeps no path. Each block draws all its
    uniforms, then its exponentials PASSAGE_CHUNK at a time, and forms
    increments only up to the chunk holding the passage, so only those
    are checked to be positive.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must be in (0,1), got {alpha}")
    if tau_max <= 0.0 or delta_tau <= 0.0 or delta_tau > tau_max:
        raise ValueError("need 0 < delta_tau <= tau_max")
    t = float(t)
    if not 0.0 <= t < math.inf:
        raise ValueError("t must be finite and nonnegative")
    scale = delta_tau ** (1.0 / alpha)
    level = np.zeros(1)  # S at the last formed grid point
    done = 0  # increments drawn by the finished blocks
    m = int(math.ceil(tau_max / delta_tau))
    while True:
        r = rng.random(m)
        for lo in range(0, m, PASSAGE_CHUNK):
            w = rng.standard_exponential(min(PASSAGE_CHUNK, m - lo))
            inc = scale * _kanter(alpha, np.pi * (1.0 - r[lo:lo + w.size]), w)
            if np.any(inc <= 0.0):
                raise ValueError("increments must be strictly positive")
            # prepending the level keeps the sum sequential, as one cumsum
            # over the whole path is; level + cumsum(inc) rounds differently
            s = np.cumsum(np.concatenate([level, inc]))
            i = int(np.searchsorted(s, t, side="right"))
            if i < s.size:
                return delta_tau * (done + lo + i)
            level = s[-1:]
        done += m
        # extend_subordinator_path's block for extra_tau = path.tau_max
        m = int(math.ceil(delta_tau * done / delta_tau))
