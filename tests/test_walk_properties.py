"""Property tests: walk_endpoint and renewal_counts equal the Trajectory route.

walk_endpoint draws only the words a walk reads and skips the rest, so over
random indices, dimensions, measures, speed laws, variants, block and piece
sizes and bit generators it must give renewal_count and the position_*
values of sample_trajectory on the same generator state. renewal_counts
must give each walk of one to three spans renewal_count's value, and leave
each generator just past the durations a count-only walk reads.
"""

import math
from unittest import mock

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

import levywalk.walk  # noqa: E402
from levywalk import (SpectralMeasure, TailLaw, draw_pareto,  # noqa: E402
                      position_continuous, position_jump_first, position_wait_first,
                      renewal_count, renewal_counts, sample_direction,
                      sample_trajectory, stream_rng, walk_endpoint)
from levywalk.randgen import _draw_speeds  # noqa: E402
from levywalk.walk import SPAN_ROWS  # noqa: E402

EVALUATORS = {
    "wait-first": position_wait_first,
    "jump-first": position_jump_first,
    "continuous": position_continuous,
}

# unit atoms in d = 1, 2 and 3
ATOMS = {
    1: ([[1.0], [-1.0]], [0.25, 0.75]),
    2: ([[1.0, 0.0], [0.0, -1.0], [0.6, 0.8]], [0.2, 0.3, 0.5]),
    3: ([[0.0, 0.0, 1.0], [1.0, 0.0, 0.0], [0.0, -1.0, 0.0]], [0.5, 0.25, 0.25]),
}

indices = st.floats(min_value=0.05, max_value=0.95)


def generator(philox, seed, j):
    if philox:
        return np.random.Generator(np.random.Philox(key=[seed, j]))
    return stream_rng(seed, 921, j)


@settings(max_examples=300, deadline=None, database=None)
@given(alpha=indices, beta=st.one_of(st.none(), indices), d=st.integers(1, 3),
       atoms=st.booleans(), variant=st.sampled_from([None, *EVALUATORS]),
       block=st.integers(1, 16), piece=st.integers(1, 8),
       steps=st.floats(min_value=0.0, max_value=8.0), philox=st.booleans(),
       seed=st.integers(0, 2**32 - 1), j=st.integers(0, 2**16))
def test_walk_endpoint_matches_trajectory(alpha, beta, d, atoms, variant, block, piece,
                                          steps, philox, seed, j):
    dur = TailLaw(alpha)
    vel = 1.5 if beta is None else TailLaw(beta)  # fixed or Pareto speeds
    measure = SpectralMeasure.atoms(*ATOMS[d]) if atoms else SpectralMeasure.uniform(d)
    # a first block of `block` steps and a horizon of about `steps` blocks'
    # expected renewals, so walks end in one of their first few blocks
    c = math.gamma(1.0 + alpha) * math.gamma(1.0 - alpha) * dur.tail_constant
    horizon = (steps * block * c) ** (1.0 / alpha)
    with mock.patch.object(levywalk.walk, "_first_block_size", lambda law, h: block), \
            mock.patch.object(levywalk.walk, "PIECE", piece), \
            mock.patch.object(levywalk.walk, "COUNT_PIECE", piece):
        traj = sample_trajectory(dur, vel, measure, generator(philox, seed, j), horizon)
        if variant is None:  # count only
            counts = renewal_counts(dur, vel, measure, [generator(philox, seed, j)], horizon)
            assert counts.tolist() == [renewal_count(traj, horizon)]
            return
        count, pos = walk_endpoint(dur, vel, measure, generator(philox, seed, j),
                                   horizon, variant)
    assert count == renewal_count(traj, horizon)
    ref = EVALUATORS[variant](traj, horizon)
    assert pos.shape == ref.shape and np.array_equal(pos, ref)


def reads_to_crossing(dur, vel, measure, rng, horizon, first, piece):
    """Read rng as a count-only walk should: every finished block whole (its
    durations, then its speeds and directions as sample_trajectory draws
    them), then the last block's durations up to the piece that crosses
    the horizon, and nothing after it."""
    size, last = first, 0.0
    while True:
        for lo in range(0, size, piece):
            T = draw_pareto(dur, rng, min(piece, size - lo))
            last = np.concatenate(((last,), T)).cumsum()[-1]
            if last > horizon:
                return
        _draw_speeds(vel, rng, size)
        sample_direction(measure, rng, size)
        size *= 2


@settings(max_examples=150, deadline=None, database=None)
@given(alpha=indices, beta=st.one_of(st.none(), indices), d=st.integers(1, 3),
       atoms=st.booleans(), spans=st.integers(1, 3), extra=st.integers(-SPAN_ROWS + 1, 0),
       block=st.integers(1, 16), piece=st.integers(1, 8),
       steps=st.floats(min_value=0.0, max_value=8.0), tie=st.booleans(),
       philox=st.booleans(), seed=st.integers(0, 2**32 - 1), j=st.integers(0, 2**16))
def test_renewal_counts_match_trajectories(alpha, beta, d, atoms, spans, extra, block, piece,
                                           steps, tie, philox, seed, j):
    # 1 to 3 spans of generators; with horizons of a few blocks' expected
    # renewals, the walks of one span cross in different rounds and blocks
    dur = TailLaw(alpha)
    vel = 1.5 if beta is None else TailLaw(beta)
    measure = SpectralMeasure.atoms(*ATOMS[d]) if atoms else SpectralMeasure.uniform(d)
    n_walks = spans * SPAN_ROWS + extra
    c = math.gamma(1.0 + alpha) * math.gamma(1.0 - alpha) * dur.tail_constant
    horizon = (steps * block * c) ** (1.0 / alpha)
    with mock.patch.object(levywalk.walk, "_first_block_size", lambda law, h: block):
        trajs = [sample_trajectory(dur, vel, measure, generator(philox, seed, j + i), horizon)
                 for i in range(n_walks)]
        if tie:
            # a horizon on a renewal time deep in the last walk's path, where
            # N counts the tie: a renewal time carried differently by as
            # little as one ulp upward loses it
            R = trajs[-1].renewal_times
            horizon = float(R[len(R) // 2])
            trajs = [sample_trajectory(dur, vel, measure, generator(philox, seed, j + i),
                                       horizon) for i in range(n_walks)]
        rngs = [generator(philox, seed, j + i) for i in range(n_walks)]
        with mock.patch.object(levywalk.walk, "COUNT_PIECE", piece):
            counts = renewal_counts(dur, vel, measure, rngs, horizon)
    assert counts.dtype == np.int64
    assert counts.tolist() == [renewal_count(traj, horizon) for traj in trajs]
    # each generator stops just past the piece that crosses the horizon
    for i, rng in enumerate(rngs):
        ref = generator(philox, seed, j + i)
        reads_to_crossing(dur, vel, measure, ref, horizon, block, piece)
        assert rng.random() == ref.random()
