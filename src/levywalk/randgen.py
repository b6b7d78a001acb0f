"""Heavy-tailed step sampling and the one-sided stable subordinator.

Everything here is driven by an explicit numpy Generator, so callers own
reproducibility. For ensemble work use stream_rng(master, stream, index):
sample index j of ensemble e always sees the same generator regardless of
how the samples are scheduled across threads. Loops over a run of indices
use _stream_rngs, which yields generators in the same states as
stream_rng's, computed in batches without building a SeedSequence per
index; stream_rng stays the reference that tests compare against.
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
]


def stream_rng(master_seed: int, stream: int, index: int) -> np.random.Generator:
    """Independent generator for sample `index` of stream `stream`.

    Stateless counter construction: the generator depends only on the
    triple, never on draw order elsewhere, so parallel schedules cannot
    change the output.
    """
    ss = np.random.SeedSequence(entropy=master_seed, spawn_key=(stream, index))
    return np.random.default_rng(ss)


# numpy's SeedSequence hash constants (pool of 4 uint32 words) and PCG64's
# 128-bit LCG multiplier, as in numpy/random/bit_generator.pyx and pcg64.h
_POOL_SIZE = 4
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = 0xCA01F9DD
_MIX_MULT_R = 0x4973F715
_MASK32 = 2**32 - 1
_MASK128 = 2**128 - 1
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
# sample indices whose PCG64 states _stream_rngs computes in one pass
SEED_BATCH = 1024


def _uint32_words(x):
    """numpy's 32-bit words of a nonnegative int, least significant first."""
    if x < 0:
        raise ValueError(f"expected a nonnegative integer, got {x}")
    words = [x & _MASK32]
    while x > _MASK32:
        x >>= 32
        words.append(x & _MASK32)
    return words


def _hash_steps(h, mult, k):
    """What k successive SeedSequence hash steps from h xor a word with, and
    then multiply it by, as two uint32 columns of shape (k, 1)."""
    xor, by = [], []
    for _ in range(k):
        xor.append(h)
        h = h * mult & _MASK32
        by.append(h)
    return np.array(xor, dtype=np.uint32)[:, None], np.array(by, dtype=np.uint32)[:, None]


def _pcg64_seeds(master_seed, stream, j):
    """The uint64 words generate_state(4, uint64) gives for each index in j.

    Replays SeedSequence(master_seed, spawn_key=(stream, j)) over the
    uint32 array j. The hash constants do not depend on the data, and every
    word but j's is the same for all indices, so those stay Python ints,
    masked to 32 bits. j's word is the last one hashed: it enters the four
    pool words as one (4, n) uint32 chain, and the eight output words come
    from one (8, n) chain; uint32 arithmetic wraps without a warning.
    Returns four lists of ints.
    """
    run = _uint32_words(master_seed)
    run += [0] * (_POOL_SIZE - len(run))  # numpy pads the entropy before a spawn key
    shared = run + _uint32_words(stream)
    h = _INIT_A

    def hashmix(value):
        nonlocal h
        value = value ^ h
        h = h * _MULT_A & _MASK32
        value = value * h & _MASK32
        return value ^ value >> 16

    def mix(x, y):
        r = ((_MIX_MULT_L * x & _MASK32) - (_MIX_MULT_R * y & _MASK32)) & _MASK32
        return r ^ r >> 16

    pool = [hashmix(w) for w in shared[:_POOL_SIZE]]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for w in shared[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = mix(pool[dst], hashmix(w))
    # j into pool word dst: mix(pool[dst], hashmix(j)), one hash step per dst
    xor, by = _hash_steps(h, _MULT_A, _POOL_SIZE)
    value = (j ^ xor) * by
    value ^= value >> 16
    scaled = np.array([_MIX_MULT_L * w & _MASK32 for w in pool], dtype=np.uint32)[:, None]
    r = scaled - _MIX_MULT_R * value
    pool = r ^ r >> 16
    # output word i hashes pool word i % 4
    xor, by = _hash_steps(_INIT_B, _MULT_B, 2 * _POOL_SIZE)
    value = np.tile(pool, (2, 1))
    value ^= xor
    value *= by
    value ^= value >> 16
    # little-endian pairs of uint32 words make the uint64 words
    words = value[1::2].astype(np.uint64)
    words <<= 32
    words |= value[0::2]
    return words.tolist()


def _stream_rngs(master_seed: int, stream: int, lo: int, hi: int):
    """Yield (j, stream_rng(master_seed, stream, j)) for j in [lo, hi), seeded in batches.

    The PCG64 states of SEED_BATCH indices at a time come from one
    vectorised pass (_pcg64_seeds) and PCG64's seeding step, then one
    Generator is re-stated for each index: the same draws as stream_rng,
    at a fraction of its cost. The yielded generator is valid until the
    next one is yielded. Indices must lie in [0, 2^32), where a spawn key
    index takes one word.
    """
    if lo < hi and not (0 <= lo and hi <= 2**32):
        raise ValueError(f"sample indices [{lo}, {hi}) leave [0, 2^32)")
    bitgen = np.random.PCG64(0)
    rng = np.random.Generator(bitgen)
    for start in range(lo, hi, SEED_BATCH):
        stop = min(start + SEED_BATCH, hi)
        seeds = _pcg64_seeds(int(master_seed), int(stream), np.arange(start, stop, dtype=np.uint32))
        for j, s0, s1, i0, i1 in zip(range(start, stop), *seeds):
            inc = ((i0 << 64 | i1) << 1 | 1) & _MASK128
            state = ((inc + (s0 << 64 | s1)) * _PCG_MULT + inc) & _MASK128
            bitgen.state = {"bit_generator": "PCG64", "state": {"state": state, "inc": inc},
                            "has_uint32": 0, "uinteger": 0}
            yield j, rng


@dataclass(frozen=True)
class TailLaw:
    """Pareto law: survival(x) = (x/cutoff)^(-index) for x >= cutoff.

    index must lie in (0,1): both durations and speeds have infinite mean.
    """

    index: float
    cutoff: float = 1.0

    def __post_init__(self):
        if not 0.0 < self.index < 1.0:
            raise ValueError(f"index must be in (0,1), got {self.index}")
        # written so that NaN fails, like the atom checks below
        if not 0.0 < self.cutoff < math.inf:
            raise ValueError(f"cutoff must be positive and finite, got {self.cutoff}")

    def survival(self, x):
        x = np.asarray(x, dtype=float)
        # the clamp keeps the power, which np.where evaluates everywhere,
        # off zero and negative x; at or above the cutoff it is x itself
        return np.where(x < self.cutoff, 1.0,
                        (np.maximum(x, self.cutoff) / self.cutoff) ** (-self.index))

    @property
    def tail_constant(self):
        # c in survival(x) = c * x^(-index)
        return self.cutoff**self.index

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
    if size is None:
        return law.cutoff * (1.0 - rng.random()) ** (-1.0 / law.index)
    # the same three operations, in place on the one array
    x = rng.random(size)
    np.subtract(1.0, x, out=x)
    np.power(x, -1.0 / law.index, out=x)
    x *= law.cutoff
    return x


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
        if probs.shape != (vectors.shape[0],):
            raise ValueError(f"need one probability per atom, got shape {probs.shape}")
        # written so that NaN fails: every comparison with NaN is false
        norms = np.linalg.norm(vectors, axis=1)
        if not np.all(np.abs(norms - 1.0) <= 1e-12):
            raise ValueError("atom vectors must have unit norm within 1e-12")
        if not (np.all(probs > 0.0) and abs(probs.sum() - 1.0) <= 1e-12):
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
                r = np.sqrt(sq, out=sq)
                for k in range(d):
                    np.divide(g[:, k], r, out=g[:, k])
                out = g
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
