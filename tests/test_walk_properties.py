"""Property test: walk_endpoint equals the Trajectory route bit for bit.

walk_endpoint draws only the words a walk reads and skips the rest, so over
random indices, dimensions, measures, speed laws, variants, block and piece
sizes and bit generators it must give renewal_count and the position_*
values of sample_trajectory on the same generator state.
"""

import math
from unittest import mock

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

import levywalk.walk  # noqa: E402
from levywalk import (SpectralMeasure, TailLaw, position_continuous,  # noqa: E402
                      position_jump_first, position_wait_first, renewal_count,
                      sample_trajectory, stream_rng, walk_endpoint)

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
            mock.patch.object(levywalk.walk, "PIECE", piece):
        traj = sample_trajectory(dur, vel, measure, generator(philox, seed, j), horizon)
        count, pos = walk_endpoint(dur, vel, measure, generator(philox, seed, j),
                                   horizon, variant)
    assert count == renewal_count(traj, horizon)
    if variant is None:
        assert pos is None
    else:
        ref = EVALUATORS[variant](traj, horizon)
        assert pos.shape == ref.shape and np.array_equal(pos, ref)
