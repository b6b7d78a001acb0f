"""Property test: the pathwise identities between the three walk variants.

For N = N(t) completed steps, J_i the jumps, R_i the renewal times and
(V_i, I_i) the speeds and directions, the positions U (wait-first),
O (jump-first) and W (continuous) must satisfy

    O(t) - U(t) = J_{N+1}
    W(t) - U(t) = (t - R_N) V_{N+1} I_{N+1}
    W(R_k) = U(R_k)              for R_k below the trajectory's end
    N(R_k) = max{j : R_j <= R_k}  exactly

over random indices, dimensions, measures, horizons of a few blocks and
query times. Errors are relative to the largest value in the identity, in
the max norm, which cannot overflow where the positions do not.
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
                      sample_trajectory, stream_rng)

# unit atoms in d = 1, 2 and 3
ATOMS = {
    1: ([[1.0], [-1.0]], [0.25, 0.75]),
    2: ([[1.0, 0.0], [0.0, -1.0], [0.6, 0.8]], [0.2, 0.3, 0.5]),
    3: ([[0.0, 0.0, 1.0], [1.0, 0.0, 0.0], [0.0, -1.0, 0.0]], [0.5, 0.25, 0.25]),
}

indices = st.floats(min_value=0.05, max_value=0.95)


def size(x):
    return np.abs(x).max(axis=-1)


def worst_relative(lhs, rhs, *scales):
    scale = np.maximum.reduce([size(lhs), size(rhs), *map(size, scales)])
    return float((size(lhs - rhs) / np.maximum(scale, 1e-300)).max())


@settings(max_examples=300, deadline=None, database=None)
@given(alpha=indices, beta=indices, d=st.integers(1, 3), atoms=st.booleans(),
       block=st.integers(1, 16), steps=st.floats(min_value=0.5, max_value=4.0),
       fracs=st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=20),
       seed=st.integers(0, 2**32 - 1))
def test_pathwise_identities(alpha, beta, d, atoms, block, steps, fracs, seed):
    dur = TailLaw(alpha)
    measure = SpectralMeasure.atoms(*ATOMS[d]) if atoms else SpectralMeasure.uniform(d)
    # a first block of `block` steps and a horizon of about `steps` blocks'
    # expected renewals, so the steps come in a few blocks
    c = math.gamma(1.0 + alpha) * math.gamma(1.0 - alpha) * dur.tail_constant
    horizon = (steps * block * c) ** (1.0 / alpha)
    with mock.patch.object(levywalk.walk, "_first_block_size", lambda law, h: block):
        traj = sample_trajectory(dur, TailLaw(beta), measure, stream_rng(seed, 931, 0), horizon)
    R = traj.renewal_times
    assert R[-1] > horizon

    # query times up to the horizon, which lies below the trajectory's end
    ts = np.array(fracs) * horizon
    n = renewal_count(traj, ts)
    u, o, w = (position_wait_first(traj, ts), position_jump_first(traj, ts),
               position_continuous(traj, ts))
    jump = traj.jumps()[n]
    assert worst_relative(o - u, jump, o, u) <= 1e-9
    r_n = np.concatenate([[0.0], R])[n]
    drift = ((ts - r_n) * traj.V[n])[:, None] * traj.U[n]
    assert worst_relative(w - u, drift, w, u) <= 1e-9

    probes = R[R < traj.total_duration]
    if probes.size:
        n_at = renewal_count(traj, probes)
        assert list(n_at) == [int(np.flatnonzero(R <= r)[-1]) + 1 for r in probes]
        assert worst_relative(position_continuous(traj, probes),
                              position_wait_first(traj, probes)) <= 1e-9
