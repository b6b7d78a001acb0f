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
then a plain record of the steps drawn. One kernel, walks, evaluates many
walks at one time without keeping their steps: it gives each walk's count,
and its position for a variant, reading the generator in the same blocks
but drawing only the words it reads and skipping the rest, so that every
later draw is unchanged and its values are bit-identical to a
Trajectory's. Count-only walks advance a span at a time, PIECE durations
a round; a position walk runs on its own, keeps only its current block's
durations, and finishes its ragged last block on its own.
"""

import itertools
import math
import operator

import numpy as np

from .errors import TrajectoryExhausted
from .randgen import (TailLaw, SpectralMeasure, _draw_speeds, _pareto_from_uniforms,
                      draw_pareto, sample_direction)

__all__ = [
    "Trajectory",
    "sample_trajectory",
    "walks",
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
    in walks.
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


# walks advances up to SPAN_ROWS count-only walks together, PIECE durations
# each a round, through one (SPAN_ROWS, PIECE) buffer of doubles, 256 KiB; a
# position walk runs on its own, POSITION_PIECE durations at a time, into
# its block's own array of durations
SPAN_ROWS = 64
PIECE = 512
POSITION_PIECE = 4096


def walks(duration_law: TailLaw, velocity_law, measure: SpectralMeasure, rngs,
          horizon: float, variant=None):
    """(counts, positions) at the horizon of a fresh walk on each generator of rngs.

    counts is an int64 array of renewal_count(sample_trajectory(duration_law,
    velocity_law, measure, rng, horizon), horizon); positions is the (len, d)
    array of the position_* values for variant "wait-first", "jump-first" or
    "continuous", and None when variant is None (counts only). Only the
    words a walk reads are drawn and the rest are skipped with _skip, which
    leaves every later draw where it was, so both are bit-identical to the
    Trajectory route.

    For a variant each walk runs on its own (_position_walk). For counts
    only, the walks of a span share their blocks, since every walk starts
    with the same first block and one that crosses the horizon stops, so
    they advance in lockstep: each round draws PIECE of a block's durations
    per walk into its row of one buffer, turns the rows into renewal times
    with one transform and one cumsum, and takes a crossed walk's count from
    its row. A walk that finishes a block passes its speeds and directions
    as sample_trajectory reads them: _skip where they take one word each
    (Pareto speeds; d = 1 or atoms), sample_direction's normals for uniform
    directions in d >= 2. rngs may be any iterable; it is read one span at
    a time, so its generators need not all exist at once.
    """
    if variant not in (None, "wait-first", "jump-first", "continuous"):
        raise ValueError(f"unknown variant {variant!r}")
    _check_horizon(horizon)
    first = _first_block_size(duration_law, horizon)
    buf = np.empty((SPAN_ROWS, PIECE) if variant is None else POSITION_PIECE)
    rngs = iter(rngs)
    counts, positions = [np.zeros(0, dtype=np.int64)], [np.zeros((0, measure.dimension))]
    while span := list(itertools.islice(rngs, SPAN_ROWS)):
        out = np.empty(len(span), dtype=np.int64)
        if variant is None:
            _count_span(duration_law, velocity_law, measure, span, horizon, first, buf, out)
        else:
            pos = np.zeros((len(span), measure.dimension))
            for i, rng in enumerate(span):
                out[i] = _position_walk(pos[i], duration_law, velocity_law, measure, rng,
                                        horizon, variant, first, buf)
            positions.append(pos)
        counts.append(out)
    return np.concatenate(counts), None if variant is None else np.concatenate(positions)


def _count_span(duration_law, velocity_law, measure, span, horizon, size, buf, out):
    """Write to out each count of the span's walks, advanced in lockstep through buf."""
    speed_words = isinstance(velocity_law, TailLaw)  # fixed speeds read none
    one_word_directions = measure.dimension == 1 or not measure.is_uniform
    live = np.arange(len(span))  # the span's walks that have not crossed
    last = np.zeros(len(span))  # their last renewal time
    done, lo = 0, 0  # steps before the block, steps of it drawn
    while live.size:
        x = buf[:live.size, :min(PIECE, size - lo)]
        for i, r in zip(live, x):
            span[i].random(out=r)
        _pareto_from_uniforms(duration_law, x)
        # start + T_1 first, as in _renewals: the same floats as one cumsum
        x[:, 0] += last
        np.cumsum(x, axis=1, out=x)
        crossed = x[:, -1] > horizon
        if crossed.any():
            out[live[crossed]] = done + lo + np.count_nonzero(x[crossed] <= horizon, axis=1)
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


def _position_walk(pos, duration_law, velocity_law, measure, rng, horizon, variant, size, R):
    """Add to pos, in place, one walk's position at the horizon; return its count.

    Each block's durations are drawn into the block's own array,
    POSITION_PIECE at a time, with their renewal times carried in R. The
    piece that passes the horizon is the last drawn: the block's other
    duration words are skipped and _last_block finishes the walk. A block
    that ends before the horizon draws its speeds and directions and adds
    their jumps.
    """
    done, last = 0, 0.0  # steps before the block, renewal time of step `done`
    while True:
        T = np.empty(size)
        for lo in range(0, size, POSITION_PIECE):
            t = T[lo:lo + POSITION_PIECE]
            rng.random(out=t)
            _pareto_from_uniforms(duration_law, t)
            r = R[:t.size]
            if last:
                # start + T_1 first, as in _renewals: the same floats as one cumsum
                np.copyto(r, t)
                r[0] += last
                np.add.accumulate(r, out=r)
            else:  # the walk's first piece, where start + T_1 is T_1
                np.add.accumulate(t, out=r)
            if r[-1] > horizon:
                k = int(r.searchsorted(horizon, side="right"))
                _skip(rng, size - lo - t.size)
                # steps 1..lo + k of the block are complete and step lo + k + 1
                # straddles the horizon from renewal time R_{lo + k}
                _last_block(pos, velocity_law, measure, rng, T, lo + k, size,
                            r[k - 1] if k else last, horizon, variant)
                return done + lo + k
            last = r[-1]
        V = _draw_speeds(velocity_law, rng, size)
        pos += _jump_sum(V * T, sample_direction(measure, rng, size))
        done, size = done + size, 2 * size


def _last_block(pos, velocity_law, measure, rng, T, k, size, start, horizon, variant):
    """Add to pos, in place, a walk's last block up to the horizon for the variant.

    T holds the block's durations, of which k are complete, and step k + 1
    straddles the horizon from renewal time `start`. Only the speeds and
    directions of the steps read are drawn, and the other speed words skipped.
    """
    rows = k if variant == "wait-first" else k + 1
    V = _draw_speeds(velocity_law, rng, rows)
    if isinstance(velocity_law, TailLaw):
        _skip(rng, size - rows)
    U = sample_direction(measure, rng, rows)
    if variant == "jump-first":
        pos += _jump_sum(V * T[:rows], U)
        return
    if k:
        pos += _jump_sum(V[:k] * T[:k], U[:k])
    if variant == "continuous":
        pos += (V[k] * (horizon - start)) * U[k]


def _check_horizon(horizon):
    if not 0.0 <= horizon < math.inf:  # written so that NaN fails
        raise ValueError(f"horizon must be nonnegative and finite, got {horizon}")


def _renewals(start, T):
    """Renewal times start + T_1, start + T_1 + T_2, ...: one cumsum carried on from start."""
    return np.concatenate(((start,), T)).cumsum()[1:]


def _jump_sum(w, U):
    """np.cumsum(w[:, None] * U, axis=0)[-1], one coordinate at a time: the same floats."""
    return np.array([(w * U[:, i]).cumsum()[-1] for i in range(U.shape[1])])


def _skip(rng, m):
    """Move rng past m random() draws without making them.

    PCG64 reads one word a draw, so advance(m) lands where the draws would;
    any other bit generator draws and discards them. m may be a numpy
    integer, which advance refuses.
    """
    if isinstance(rng.bit_generator, np.random.PCG64):
        rng.bit_generator.advance(operator.index(m))
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
    if t_arr.size and past_end(t_arr.max(), traj.total_duration):
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
