"""Heavy-tailed step sampling and the one-sided stable subordinator.

Everything here is driven by an explicit numpy Generator, so callers own
reproducibility. For ensemble work use stream_rng(master, stream, index):
sample index j of ensemble e always sees the same generator regardless of
how the samples are scheduled across threads. Loops over a run of indices
use _stream_rngs, which yields a fresh generator per index in the same
state as stream_rng's, from seed words computed in batches without building
a SeedSequence per index; stream_rng stays the reference that tests compare
against.
"""

import math
from dataclasses import dataclass, field

import numpy as np
from numpy.random.bit_generator import ISeedSequence

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


# numpy's SeedSequence hash constants (pool of 4 uint32 words), as in
# numpy/random/bit_generator.pyx
_POOL_SIZE = 4
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = 0xCA01F9DD
_MIX_MULT_R = 0x4973F715
_MASK32 = 2**32 - 1
# sample indices whose PCG64 seeds _stream_rngs computes in one pass
SEED_BATCH = 1024


def _hash_steps(h, mult, k):
    """What k successive SeedSequence hash steps from h xor a word with, and
    then multiply it by, as two uint32 arrays of length k."""
    xor, by = [], []
    for _ in range(k):
        xor.append(h)
        h = h * mult & _MASK32
        by.append(h)
    return np.array(xor, dtype=np.uint32), np.array(by, dtype=np.uint32)


def _pcg64_seeds(master_seed, stream, j):
    """The words SeedSequence(master_seed, spawn_key=(stream, j_i)) gives
    PCG64, generate_state(4, uint64), for each j_i of the uint32 array j.

    Every word but j_i's is the same for all indices, so numpy mixes those
    into SeedSequence(master_seed, spawn_key=(stream,)).pool. j_i's word is
    hashed last, after 4 hash steps for each of the n words before it (the
    seed padded to the pool, then the stream). It enters the pool as one
    (len(j), 4) uint32 chain, and the eight output words come from one
    (len(j), 8) chain; uint32 arithmetic wraps without a warning. Returns a
    C-contiguous (len(j), 4) uint64 array, one index a row.
    """
    pool = np.random.SeedSequence(master_seed, spawn_key=(stream,)).pool
    # numpy splits an int into its uint32 words, at least one, and pads the
    # seed's to the pool
    n = max(_POOL_SIZE, (master_seed.bit_length() + 31) // 32)
    n += max(1, (stream.bit_length() + 31) // 32)
    # j into pool word dst: mix(pool[dst], hashmix(j)), one hash step per dst
    xor, by = _hash_steps(_INIT_A * pow(_MULT_A, 4 * n, 2**32) & _MASK32, _MULT_A, _POOL_SIZE)
    value = (j[:, None] ^ xor) * by
    value ^= value >> 16
    r = pool * _MIX_MULT_L - _MIX_MULT_R * value
    pool = r ^ r >> 16
    # output word i hashes pool word i % 4
    xor, by = _hash_steps(_INIT_B, _MULT_B, 2 * _POOL_SIZE)
    value = np.tile(pool, 2)
    value ^= xor
    value *= by
    value ^= value >> 16
    # little-endian pairs of uint32 words make the uint64 words, as numpy does
    return value.astype("<u4").view("<u8").astype(np.uint64)


class _Words(ISeedSequence):
    """A seed sequence that gives PCG64 the four words _pcg64_seeds computed.

    PCG64 asks for generate_state(4, np.uint64) and reads the raw buffer of
    what it gets, so words must be a contiguous uint64 array: a row of a
    transposed view would seed the wrong state.
    """

    def __init__(self, words):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        return self.words


def _stream_rngs(master_seed: int, stream: int, lo: int, hi: int):
    """Yield (j, stream_rng(master_seed, stream, j)) for j in [lo, hi), seeded in batches.

    The seed words of SEED_BATCH indices at a time come from one
    vectorised pass (_pcg64_seeds), and each index gets a fresh Generator
    that PCG64 seeds from its row: the same draws as stream_rng, at a
    fraction of its cost. Indices must lie in [0, 2^32), where a spawn key
    index takes one word.
    """
    if lo < hi and not (0 <= lo and hi <= 2**32):
        raise ValueError(f"sample indices [{lo}, {hi}) leave [0, 2^32)")
    for start in range(lo, hi, SEED_BATCH):
        stop = min(start + SEED_BATCH, hi)
        seeds = _pcg64_seeds(int(master_seed), int(stream), np.arange(start, stop, dtype=np.uint32))
        for j, words in zip(range(start, stop), seeds):
            yield j, np.random.Generator(np.random.PCG64(_Words(words)))


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
    return _pareto_from_uniforms(law, rng.random(size))


def _pareto_from_uniforms(law, x):
    """cutoff * (1 - x)^(-1/index) for the uniforms x, in place: draw_pareto's variates.

    The same three operations as the scalar form, on an array of any shape,
    so a block of uniforms drawn elsewhere becomes the floats draw_pareto
    would give for them.
    """
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
    sin_au = np.sin(alpha * u)
    # at alpha = 1/2 the two angles are the same floats, so one sine serves both
    sin_bu = sin_au if 1.0 - alpha == alpha else np.sin((1.0 - alpha) * u)
    return (sin_au / np.sin(u) ** (1.0 / alpha)) * (sin_bu / w) ** ((1.0 - alpha) / alpha)


def _grid_passage_index(alpha, delta_tau, t, rng, size):
    """First grid indices k with S(k * delta_tau) > t, for `size` subordinator paths.

    A stable subordinator is strictly increasing and a.s. never hits a
    fixed level, so that index is a.s. floor(E(t) / delta_tau) + 1, with E
    the inverse subordinator. By self-similarity E(t) has the exact law
    (t / S(1))^alpha (Meerschaert & Straka 2013): one stable draw a path.
    """
    e = (t / positive_stable(alpha, rng, size)) ** alpha
    return np.floor(e / delta_tau).astype(np.int64) + 1


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
    velocity_law=None,
    measure: SpectralMeasure = None,
) -> SubordinatorPath:
    """I.i.d. S(delta_tau) increments on a grid covering [0, tau_max].

    Given velocity_law and measure, each increment also gets a jump mark
    (speed, direction). velocity_law may be a TailLaw or a plain positive
    float for a deterministic speed (degenerate diagnostic case).
    """
    if tau_max <= 0.0 or delta_tau <= 0.0 or delta_tau > tau_max:
        raise ValueError("need 0 < delta_tau <= tau_max")
    if (velocity_law is None) != (measure is None):
        raise ValueError("jump marks need both velocity_law and measure")
    m = int(math.ceil(tau_max / delta_tau))
    inc = delta_tau ** (1.0 / alpha) * positive_stable(alpha, rng, m)
    mark_v = mark_u = None
    if measure is not None:
        mark_v, mark_u = _draw_speeds(velocity_law, rng, m), sample_direction(measure, rng, m)
    return SubordinatorPath(alpha, delta_tau, inc, mark_v=mark_v, mark_u=mark_u)


def extend_subordinator_path(path: SubordinatorPath, rng, extra_tau: float) -> SubordinatorPath:
    """Append fresh increments covering extra_tau more operational time.

    An unmarked path only: the new increments would carry no marks.
    """
    if path.marked:
        raise ValueError("cannot extend a marked path")
    m = int(math.ceil(extra_tau / path.delta_tau))
    inc = path.delta_tau ** (1.0 / path.alpha) * positive_stable(path.alpha, rng, m)
    return SubordinatorPath(path.alpha, path.delta_tau, np.concatenate([path.increments, inc]))


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
