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
then a plain record of the steps drawn. walk_endpoint evaluates one
variant at one time without keeping the steps; it draws the same numbers
as sample_trajectory, so its values are bit-identical to a Trajectory's.
"""

import math

import numpy as np

from .errors import TrajectoryExhausted
from .randgen import (TailLaw, SpectralMeasure, _draw_speeds, draw_pareto,
                      sample_direction)

__all__ = [
    "Trajectory",
    "sample_trajectory",
    "walk_endpoint",
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
    renewal times start from the fsum of the earlier blocks' durations and
    its positions from the last position, as in walk_endpoint.
    """
    if horizon < 0.0:
        raise ValueError("horizon must be nonnegative")
    size = _first_block_size(duration_law, horizon)
    T, V, U, R = [], [], [], []
    pos = [np.zeros((1, measure.dimension))]
    block_sums = []
    while not R or R[-1][-1] <= horizon:
        T.append(draw_pareto(duration_law, rng, size))
        V.append(_draw_speeds(velocity_law, rng, size))
        U.append(sample_direction(measure, rng, size))
        R.append(math.fsum(block_sums) + np.cumsum(T[-1]))
        pos.append(pos[-1][-1] + np.cumsum((V[-1] * T[-1])[:, None] * U[-1], axis=0))
        block_sums.append(float(T[-1].sum()))
        size *= 2
    traj = Trajectory.__new__(Trajectory)  # the blocks fixed R and P, so skip __init__
    return traj._assign(*map(np.concatenate, (T, V, U, R, pos)))


def walk_endpoint(duration_law: TailLaw, velocity_law, measure: SpectralMeasure,
                  rng, horizon: float, variant=None):
    """(N(horizon), position at horizon) of a fresh walk, without storing its steps.

    variant is "wait-first", "jump-first" or "continuous"; None counts
    steps only and returns None for the position. The generator is read
    exactly as sample_trajectory reads it (blocks of T, then V, then U), so
    both equal what renewal_count and the position_* functions give on
    sample_trajectory(duration_law, velocity_law, measure, rng, horizon)
    bit for bit. Only the last block differs: nothing is drawn after its
    directions, so it draws just the rows the variant reads.
    """
    if variant not in (None, "wait-first", "jump-first", "continuous"):
        raise ValueError(f"unknown variant {variant!r}")
    if horizon < 0.0:
        raise ValueError("horizon must be nonnegative")
    size = _first_block_size(duration_law, horizon)
    block_sums = []
    done = 0  # steps in the blocks before the current one
    last = 0.0  # renewal time of step `done`
    pos = np.zeros(measure.dimension)  # position after step `done`
    while True:
        T = draw_pareto(duration_law, rng, size)
        R = math.fsum(block_sums) + np.cumsum(T)
        if R[-1] > horizon:
            break
        V = _draw_speeds(velocity_law, rng, size)
        U = sample_direction(measure, rng, size)
        if variant is not None:
            pos = pos + np.cumsum((V * T)[:, None] * U, axis=0)[-1]
        block_sums.append(float(T.sum()))
        done += size
        last = R[-1]
        size *= 2
    k = int(np.searchsorted(R, horizon, side="right"))
    if variant is None:
        return done + k, None
    # steps 1..k of this block are complete and step k+1 straddles the horizon
    rows = k if variant == "wait-first" else k + 1
    V = _draw_speeds(velocity_law, rng, size)
    U = sample_direction(measure, rng, rows)
    jumps = (V[:rows] * T[:rows])[:, None] * U
    if variant == "jump-first":
        return done + k, pos + np.cumsum(jumps, axis=0)[-1]
    if k:
        pos = pos + np.cumsum(jumps[:k], axis=0)[-1]
        last = R[k - 1]
    if variant == "continuous":
        pos = pos + (V[k] * (horizon - last)) * U[k]
    return done + k, pos


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
