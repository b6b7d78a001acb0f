"""Walker trajectories and the three walk variants.

A trajectory is the ordered step list (T_i, V_i, I_i) with jump
J_i = V_i * T_i * I_i, renewal times R_k = sum_{i<=k} T_i and positions
P_k = sum_{i<=k} J_i. The three evaluations at physical time t:

    wait-first   U(t) = P_{N(t)}
    jump-first   O(t) = P_{N(t)+1}
    continuous   W(t) = P_{N(t)} + (t - R_{N(t)}) * V_{N(t)+1} * I_{N(t)+1}

where N(t) = max{k : R_k <= t} counts completed steps, inclusive at ties.
Steps are drawn in doubling blocks until one passes the horizon, because
mean duration is infinite and no fixed count covers it; a Trajectory is
then a plain record of the steps drawn. Two kernels evaluate a walk at
one time without keeping its steps, reading the generator in the same
blocks but drawing only the words they read and skipping the rest, so
that every later draw is unchanged and their values are bit-identical to
a Trajectory's: walk_endpoint gives one walk's count and position for a
variant, and renewal_counts gives the counts alone of many walks,
advancing a span of them together a piece of durations at a time.
"""

import itertools
import math

import numpy as np

from .errors import TrajectoryExhausted
from .randgen import (TailLaw, SpectralMeasure, _draw_speeds, _pareto_from_uniforms,
                      draw_pareto, sample_direction)

__all__ = [
    "Trajectory",
    "sample_trajectory",
    "walk_endpoint",
    "renewal_counts",
    "expected_steps",
    "renewal_count",
    "position_wait_first",
    "position_jump_first",
    "position_continuous",
    "write_trajectory_csv",
]


def expected_steps(horizon: float, alpha: float, tail_constant: float = 1.0) -> float:
    """Renewal-theorem estimate of E[N(horizon)] for sizing sample blocks."""
    if horizon <= 0.0:
        return 0.0
    g = math.gamma(1.0 + alpha) * math.gamma(1.0 - alpha) * tail_constant
    return horizon**alpha / g


class Trajectory:
    """One walker's steps as plain arrays: T, V, U, renewal times and positions.

    Built from given step arrays, or by sample_trajectory. It covers
    [0, total_duration]; queries past that raise TrajectoryExhausted.
    """

    def __init__(self, T, V, U):
        T = np.asarray(T, dtype=float)
        V = np.asarray(V, dtype=float)
        U = np.asarray(U, dtype=float)
        if U.ndim == 1:
            U = U[:, None]  # 1-d input means d=1 steps
        if not (len(T) == len(V) == len(U)):
            raise ValueError("step arrays must share length")
        if np.any(T <= 0.0) or np.any(V <= 0.0):
            raise ValueError("durations and speeds must be positive")
        if len(U) and np.any(np.abs(np.linalg.norm(U, axis=1) - 1.0) > 1e-12):
            raise ValueError("directions must have unit norm within 1e-12")
        pos = np.cumsum((V * T)[:, None] * U, axis=0)
        self._assign(T, V, U, np.cumsum(T), np.vstack([np.zeros((1, U.shape[1])), pos]))

    def _assign(self, T, V, U, renewal_times, pos_ext):
        self.T = T
        self.V = V
        self.U = U
        self.renewal_times = renewal_times
        self._pos_ext = pos_ext  # row k is the position after k steps
        return self

    @property
    def dimension(self):
        return self.U.shape[1]

    @property
    def positions(self):
        return self._pos_ext[1:]

    def jumps(self):
        return (self.V * self.T)[:, None] * self.U

    @property
    def total_duration(self):
        return self.renewal_times[-1] if len(self.T) else 0.0


# durations drawn at a time within a block, so the last block stops within
# a piece of the horizon instead of drawing all of its steps
PIECE = 4096


def _first_block_size(duration_law, horizon):
    return int(1.3 * expected_steps(horizon, duration_law.index,
                                    duration_law.tail_constant)) + 16


def sample_trajectory(duration_law: TailLaw, velocity_law, measure: SpectralMeasure,
                      rng, horizon: float) -> Trajectory:
    """Fresh trajectory covering (strictly beyond) the horizon.

    velocity_law is a TailLaw, or a plain positive float for the
    deterministic-speed diagnostic. Steps come in blocks of T, then V,
    then U, the first of _first_block_size steps and each later one twice
    as large, until a renewal time passes the horizon. Each block's
    renewal times continue from the last one, so they are one cumsum of
    all durations, and its positions continue from the last position, as
    in walk_endpoint.
    """
    _check_horizon(horizon)
    size = _first_block_size(duration_law, horizon)
    T, V, U, R = [], [], [], []
    pos = [np.zeros((1, measure.dimension))]
    while not R or R[-1][-1] <= horizon:
        T.append(draw_pareto(duration_law, rng, size))
        V.append(_draw_speeds(velocity_law, rng, size))
        U.append(sample_direction(measure, rng, size))
        R.append(_renewals(R[-1][-1] if R else 0.0, T[-1]))
        pos.append(pos[-1][-1] + np.cumsum((V[-1] * T[-1])[:, None] * U[-1], axis=0))
        size *= 2
    traj = Trajectory.__new__(Trajectory)  # the blocks fixed R and P, so skip __init__
    return traj._assign(*map(np.concatenate, (T, V, U, R, pos)))


def walk_endpoint(duration_law: TailLaw, velocity_law, measure: SpectralMeasure,
                  rng, horizon: float, variant):
    """(N(horizon), position at horizon) of a fresh walk, without storing its steps.

    variant is "wait-first", "jump-first" or "continuous". The generator is
    read in sample_trajectory's blocks (T, then V, then U), but only the
    words the variant reads are drawn: the rest are skipped with _skip,
    which leaves every later draw where it was. So both equal what
    renewal_count and the position_* function give on
    sample_trajectory(duration_law, velocity_law, measure, rng, horizon)
    bit for bit. The last block draws durations up to the piece that passes
    the horizon and only the speeds and directions of the steps read.
    """
    if variant not in ("wait-first", "jump-first", "continuous"):
        raise ValueError(f"unknown variant {variant!r}")
    _check_horizon(horizon)
    speed_words = isinstance(velocity_law, TailLaw)  # fixed speeds read none
    size = _first_block_size(duration_law, horizon)
    done = 0  # steps in the blocks before the current one
    last = 0.0  # renewal time of step `done`
    pos = np.zeros(measure.dimension)  # position after step `done`
    while True:
        T, R = _block_durations(duration_law, rng, size, last, horizon)
        if R[-1] > horizon:
            break
        V = _draw_speeds(velocity_law, rng, size)
        pos = pos + _jump_sum(V * T, sample_direction(measure, rng, size))
        done += size
        last = R[-1]
        size *= 2
    k = int(np.searchsorted(R, horizon, side="right"))
    # steps 1..k of this block are complete and step k+1 straddles the horizon
    rows = k if variant == "wait-first" else k + 1
    V = _draw_speeds(velocity_law, rng, rows)
    if speed_words:
        _skip(rng, size - rows)
    U = sample_direction(measure, rng, rows)
    if variant == "jump-first":
        return done + k, pos + _jump_sum(V * T[:rows], U)
    if k:
        pos = pos + _jump_sum(V[:k] * T[:k], U[:k])
        last = R[k - 1]
    if variant == "continuous":
        pos = pos + (V[k] * (horizon - last)) * U[k]
    return done + k, pos


# renewal_counts advances up to SPAN_ROWS walks together, COUNT_PIECE
# durations each a round: one (SPAN_ROWS, COUNT_PIECE) buffer of doubles,
# 256 KiB, per call
SPAN_ROWS = 64
COUNT_PIECE = 512


def renewal_counts(duration_law: TailLaw, velocity_law, measure: SpectralMeasure,
                   rngs, horizon: float) -> np.ndarray:
    """N(horizon) of a fresh walk on each generator of rngs, as an int64 array.

    Each count is renewal_count(sample_trajectory(duration_law, velocity_law,
    measure, rng, horizon), horizon). The walks of a span of up to SPAN_ROWS
    generators share their blocks, since every walk starts with the same
    first block and one that crosses the horizon stops, so they advance in
    lockstep: each round draws COUNT_PIECE of a block's durations per walk
    into its row of one buffer, turns the rows into renewal times with one
    transform and one cumsum, and takes a crossed walk's count from its row.
    A walk that finishes a block without crossing passes its speeds and
    directions as sample_trajectory reads them: _skip where they take one
    word each (Pareto speeds; d = 1 or atoms), sample_direction's normals
    for uniform directions in d >= 2. rngs may be any iterable; it is read
    one span at a time, so its generators need not all exist at once.
    """
    _check_horizon(horizon)
    speed_words = isinstance(velocity_law, TailLaw)
    one_word_directions = measure.dimension == 1 or not measure.is_uniform
    first = _first_block_size(duration_law, horizon)
    buf = np.empty((SPAN_ROWS, COUNT_PIECE))
    rngs = iter(rngs)
    counts = []
    while span := list(itertools.islice(rngs, SPAN_ROWS)):
        live = np.arange(len(span))  # the span's walks that have not crossed
        last = np.zeros(len(span))  # their last renewal time
        out = np.empty(len(span), dtype=np.int64)
        size, done, lo = first, 0, 0  # block size, steps before it, steps of it drawn
        while live.size:
            x = buf[:live.size, :min(COUNT_PIECE, size - lo)]
            for i, row in zip(live, x):
                span[i].random(out=row)
            _pareto_from_uniforms(duration_law, x)
            # start + T_1 first, as in _renewals: the same floats as one cumsum
            x[:, 0] += last
            np.cumsum(x, axis=1, out=x)
            crossed = x[:, -1] > horizon
            if crossed.any():
                out[live[crossed]] = done + lo + np.count_nonzero(x <= horizon, axis=1)[crossed]
                live, last = live[~crossed], x[~crossed, -1]
            else:
                last = x[:, -1].copy()
            lo += x.shape[1]
            if lo == size:
                for i in live:
                    if speed_words:
                        _skip(span[i], size)
                    if one_word_directions:
                        _skip(span[i], size)
                    else:
                        sample_direction(measure, span[i], size)
                done, size, lo = done + size, 2 * size, 0
        counts.append(out)
    return np.concatenate(counts) if counts else np.zeros(0, dtype=np.int64)


def _check_horizon(horizon):
    if not 0.0 <= horizon < math.inf:  # written so that NaN fails
        raise ValueError(f"horizon must be nonnegative and finite, got {horizon}")


def _renewals(start, T):
    """Renewal times start + T_1, start + T_1 + T_2, ...: one cumsum carried on from start."""
    return np.concatenate(((start,), T)).cumsum()[1:]


def _block_durations(law, rng, size, start, horizon):
    """One block's durations and renewal times from `start`, PIECE at a time.

    Drawing stops after the first piece whose last renewal time passes the
    horizon; the block's remaining duration words are skipped, so the
    generator ends where a whole block leaves it.
    """
    T, R = [], []
    for lo in range(0, size, PIECE):
        T.append(draw_pareto(law, rng, min(PIECE, size - lo)))
        R.append(_renewals(R[-1][-1] if R else start, T[-1]))
        if R[-1][-1] > horizon:
            _skip(rng, size - lo - len(T[-1]))
            break
    if len(T) == 1:  # the common case: one piece, nothing to join
        return T[0], R[0]
    return np.concatenate(T), np.concatenate(R)


def _jump_sum(w, U):
    """np.cumsum(w[:, None] * U, axis=0)[-1], one coordinate at a time: the same floats."""
    return np.array([(w * U[:, i]).cumsum()[-1] for i in range(U.shape[1])])


def _skip(rng, m):
    """Move rng past m random() draws without making them.

    PCG64 reads one word a draw, so advance(m) lands where the draws would;
    any other bit generator draws and discards them.
    """
    if isinstance(rng.bit_generator, np.random.PCG64):
        rng.bit_generator.advance(m)
    else:
        rng.random(m)


def renewal_count(traj: Trajectory, t):
    """N(t): number of completed steps by time t, inclusive at renewal times."""
    return _count(traj, t, np.greater)


def _count(traj, t, past_end):
    # past_end(t, end) flags what the steps cannot answer: counting may
    # reach the end, but the other variants read step N(t)+1 as well
    t_arr = np.asarray(t, dtype=float)
    if np.any(t_arr < 0.0):
        raise ValueError("t must be nonnegative")
    if past_end(t_arr.max(), traj.total_duration):
        raise TrajectoryExhausted(
            f"trajectory covers [0, {traj.total_duration:g}], queried {t_arr.max():g}")
    n = np.searchsorted(traj.renewal_times, t_arr, side="right")
    return int(n) if n.ndim == 0 else n


def position_wait_first(traj: Trajectory, t):
    n = renewal_count(traj, t)
    return traj._pos_ext[n]


def position_jump_first(traj: Trajectory, t):
    n = _count(traj, t, np.greater_equal)
    return traj._pos_ext[n + 1]


def position_continuous(traj: Trajectory, t):
    t_arr = np.asarray(t, dtype=float)
    n = _count(traj, t_arr, np.greater_equal)
    r_ext = np.concatenate([[0.0], traj.renewal_times])
    resid = t_arr - r_ext[n]
    # current segment is step n+1, stored at index n
    seg = (traj.V[n] * resid)
    out = traj._pos_ext[n] + np.asarray(seg)[..., None] * traj.U[n]
    return out


def write_trajectory_csv(traj: Trajectory, fh):
    """Dump steps as CSV: step_index, T, V, I_1..I_d, renewal_time, pos_1..pos_d."""
    d = traj.dimension
    cols = ["step_index", "T", "V"]
    cols += [f"I_{i+1}" for i in range(d)]
    cols += ["renewal_time"] + [f"pos_{i+1}" for i in range(d)]
    fh.write(",".join(cols) + "\n")
    P = traj.positions
    for k in range(len(traj.T)):
        row = [str(k + 1), repr(float(traj.T[k])), repr(float(traj.V[k]))]
        row += [repr(float(x)) for x in traj.U[k]]
        row.append(repr(float(traj.renewal_times[k])))
        row += [repr(float(x)) for x in P[k]]
        fh.write(",".join(row) + "\n")
