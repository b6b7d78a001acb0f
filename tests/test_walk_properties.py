"""Property tests: walks equals the Trajectory route.

walks draws only the words a walk reads and skips the rest, so over random
indices, dimensions, measures, speed laws, block and piece sizes, tie
horizons and bit generators it must give each walk of one to three spans
renewal_count and, for a variant, the position_* value of sample_trajectory
on the same generator state. A count-only walk must leave its generator
just past the durations it reads.
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
                      renewal_count, sample_direction, sample_trajectory, stream_rng,
                      walks)
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


def run_walks(alpha, beta, d, atoms, variant, spans, extra, block, piece, steps, tie,
              philox, seed, j):
    """Walk 1 to 3 spans of generators with walks and with sample_trajectory
    on the same generator states; return the trajectories, horizon,
    generators after walks, counts and positions."""
    dur = TailLaw(alpha)
    vel = 1.5 if beta is None else TailLaw(beta)  # fixed or Pareto speeds
    measure = SpectralMeasure.atoms(*ATOMS[d]) if atoms else SpectralMeasure.uniform(d)
    # count-only walks advance in lockstep spans of SPAN_ROWS; position
    # walks run one at a time, so spans of 8 of them cover the span loop
    rows = SPAN_ROWS if variant is None else 8
    # with a first block of `block` steps and a horizon of about `steps`
    # blocks' expected renewals, the walks of one span cross in different
    # rounds and blocks
    n_walks = spans * rows - extra % rows
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
        with mock.patch.object(levywalk.walk, "SPAN_ROWS", rows), \
                mock.patch.object(levywalk.walk, "PIECE", piece), \
                mock.patch.object(levywalk.walk, "POSITION_PIECE", piece):
            counts, positions = walks(dur, vel, measure, rngs, horizon, variant)
    assert counts.dtype == np.int64
    assert counts.tolist() == [renewal_count(traj, horizon) for traj in trajs]
    return trajs, horizon, rngs, positions


walk_cases = dict(
    alpha=indices, beta=st.one_of(st.none(), indices), d=st.integers(1, 3),
    atoms=st.booleans(), spans=st.integers(1, 3), extra=st.integers(0, SPAN_ROWS - 1),
    block=st.integers(1, 16), piece=st.integers(1, 8),
    steps=st.floats(min_value=0.0, max_value=8.0),
    tie=st.booleans(), philox=st.booleans(), seed=st.integers(0, 2**32 - 1),
    j=st.integers(0, 2**16))


@settings(max_examples=300, deadline=None, database=None)
@given(variant=st.sampled_from(list(EVALUATORS)), **walk_cases)
def test_walk_endpoint_matches_trajectory(variant, **case):
    # each walk's end point is its variant's position_* value
    trajs, horizon, _, positions = run_walks(variant=variant, **case)
    ref = np.array([EVALUATORS[variant](traj, horizon) for traj in trajs])
    assert positions.shape == (len(trajs), case["d"]) and np.array_equal(positions, ref)


@settings(max_examples=150, deadline=None, database=None)
@given(**walk_cases)
def test_renewal_counts_match_trajectories(**case):
    trajs, horizon, rngs, positions = run_walks(variant=None, **case)
    assert positions is None
    # each count-only generator stops just past the piece that crosses the horizon
    dur = TailLaw(case["alpha"])
    vel = 1.5 if case["beta"] is None else TailLaw(case["beta"])
    d, atoms = case["d"], case["atoms"]
    measure = SpectralMeasure.atoms(*ATOMS[d]) if atoms else SpectralMeasure.uniform(d)
    philox, seed, j = case["philox"], case["seed"], case["j"]
    for i, rng in enumerate(rngs):
        ref = generator(philox, seed, j + i)
        reads_to_crossing(dur, vel, measure, ref, horizon, case["block"], case["piece"])
        assert rng.random() == ref.random()
