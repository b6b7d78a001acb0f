import io
import math

import numpy as np
import pytest

from levywalk import (SpectralMeasure, TailLaw, Trajectory,
                      TrajectoryExhausted, draw_pareto, expected_steps,
                      position_continuous, position_jump_first,
                      position_wait_first, renewal_count, sample_trajectory,
                      stream_rng, walk_endpoint, write_trajectory_csv)

E1 = [1.0, 0.0]


def fixed(T, V, U):
    return Trajectory(np.array(T, float), np.array(V, float), np.array(U, float))


def test_step_validation():
    with pytest.raises(ValueError):
        fixed([1.0, -1.0], [1.0, 1.0], [[1.0], [1.0]])
    with pytest.raises(ValueError):
        fixed([1.0], [0.0], [[1.0]])
    with pytest.raises(ValueError):
        fixed([1.0], [1.0], [[0.7, 0.7]])  # not unit norm
    with pytest.raises(ValueError):
        fixed([1.0, 2.0], [1.0], [[1.0]])


class TestRenewalCount:
    def test_hand_values(self):
        traj = fixed([1.0, 2.0, 3.0], [1.0, 1.0, 1.0], [[1.0]] * 3)
        assert renewal_count(traj, 0.5) == 0
        assert renewal_count(traj, 1.0) == 1
        assert renewal_count(traj, 3.0) == 2  # inclusive at the tie
        assert renewal_count(traj, 3.5) == 2
        assert renewal_count(traj, 6.0) == 3

    def test_exhaustion_and_domain(self):
        traj = fixed([1.0, 2.0], [1.0, 1.0], [[1.0]] * 2)
        with pytest.raises(TrajectoryExhausted):
            renewal_count(traj, 3.5)
        with pytest.raises(ValueError):
            renewal_count(traj, -1.0)

    def test_step_function_unit_jumps(self):
        traj = sample_trajectory(TailLaw(0.5), TailLaw(0.8),
                                 SpectralMeasure.uniform(2), stream_rng(0, 910, 0), 50.0)
        ts = np.sort(stream_rng(0, 910, 1).random(400) * 50.0)
        n = renewal_count(traj, ts)
        assert np.all(np.diff(n) >= 0)
        r = traj.renewal_times[:renewal_count(traj, 50.0)]
        eps = 1e-9
        np.testing.assert_array_equal(renewal_count(traj, r + eps) - renewal_count(traj, r - eps), 1)


class TestPositions:
    def traj2(self):
        # steps (T=1,V=1,+e1), (T=1,V=2,-e1) in d=1
        return fixed([1.0, 1.0], [1.0, 2.0], [[1.0], [-1.0]])

    def test_wait_first(self):
        single = fixed([2.0], [3.0], [E1])
        np.testing.assert_array_equal(position_wait_first(single, 1.0), [0.0, 0.0])
        np.testing.assert_allclose(position_wait_first(single, 2.0), [6.0, 0.0])
        np.testing.assert_allclose(position_wait_first(self.traj2(), 2.0), [-1.0])

    def test_jump_first(self):
        traj = self.traj2()
        np.testing.assert_allclose(position_jump_first(traj, 0.5), [1.0])
        # one extra completed jump relative to wait-first
        np.testing.assert_allclose(
            position_jump_first(traj, 1.5) - position_wait_first(traj, 1.5), [-2.0])

    def test_continuous(self):
        single = fixed([2.0], [3.0], [E1])
        np.testing.assert_allclose(position_continuous(single, 1.0), [3.0, 0.0])
        np.testing.assert_array_equal(position_continuous(single, 0.0), [0.0, 0.0])
        traj = fixed([1.0, 1.0, 1.0], [1.0, 2.0, 1.0], [[1.0], [-1.0], [1.0]])
        # coincides with wait-first at interior renewal times
        for k in (0, 1):
            t = traj.renewal_times[k]
            np.testing.assert_array_equal(position_continuous(traj, t),
                                          position_wait_first(traj, t))

    def test_vectorized_queries(self):
        traj = self.traj2()
        ts = np.array([0.25, 1.0, 1.75])
        out = position_continuous(traj, ts)
        np.testing.assert_allclose(out, [[0.25], [1.0], [-0.5]])


def test_sandwich_identities_exact():
    traj = sample_trajectory(TailLaw(0.5), TailLaw(0.8),
                             SpectralMeasure.uniform(3), stream_rng(0, 911, 0), 100.0)
    ts = stream_rng(0, 911, 1).random(200) * 100.0
    n = renewal_count(traj, ts)
    u = position_wait_first(traj, ts)
    o = position_jump_first(traj, ts)
    w = position_continuous(traj, ts)
    jumps = traj.jumps()[n]
    np.testing.assert_allclose(o - u, jumps, rtol=1e-12, atol=1e-12)
    r_ext = np.concatenate([[0.0], traj.renewal_times])
    resid = ts - r_ext[n]
    np.testing.assert_allclose(np.linalg.norm(w - u, axis=1), traj.V[n] * resid,
                               rtol=1e-9, atol=1e-12)
    # overshoot side of the sandwich
    np.testing.assert_allclose(o - w, ((r_ext[n + 1] - ts) * traj.V[n])[:, None] * traj.U[n],
                               rtol=1e-9, atol=1e-12)
    assert np.all(np.linalg.norm(w - u, axis=1) <= traj.V[n] * traj.T[n] + 1e-12)


def test_continuous_is_lipschitz_with_segment_speed():
    traj = sample_trajectory(TailLaw(0.5), TailLaw(0.8),
                             SpectralMeasure.uniform(2), stream_rng(0, 912, 0), 20.0)
    ts = np.linspace(0.0, 20.0, 4001)
    w = position_continuous(traj, ts)
    delta = ts[1] - ts[0]
    vmax = traj.V[: renewal_count(traj, 20.0) + 1].max()
    steps = np.linalg.norm(np.diff(w, axis=0), axis=1)
    assert steps.max() <= vmax * delta * (1.0 + 1e-9)


def test_lazy_extension_and_determinism():
    law, vel = TailLaw(0.5), TailLaw(0.8)
    m = SpectralMeasure.uniform(2)
    a = sample_trajectory(law, vel, m, stream_rng(3, 913, 0), 10.0)
    b = sample_trajectory(law, vel, m, stream_rng(3, 913, 0), 10.0)
    np.testing.assert_array_equal(a.T, b.T)
    np.testing.assert_array_equal(a.positions, b.positions)
    assert a.total_duration > 10.0
    n_before = len(a.T)
    a.ensure_beyond(10.0)  # already covered, no growth
    assert len(a.T) == n_before
    far = a.total_duration * 50.0
    n_far = renewal_count(a, far)  # triggers extension
    assert a.total_duration >= far and n_far > n_before // 2


def test_renewal_times_strictly_increasing_across_blocks():
    traj = sample_trajectory(TailLaw(0.3), 1.0, SpectralMeasure.uniform(1),
                             stream_rng(1, 914, 0), 5.0)
    renewal_count(traj, traj.total_duration * 1000.0)
    assert np.all(np.diff(traj.renewal_times) > 0.0)
    # cross-block positions stay consistent with one-shot cumulative sums
    np.testing.assert_allclose(traj.positions,
                               np.cumsum(traj.jumps(), axis=0), rtol=1e-9, atol=1e-12)


EVALUATORS = {
    "wait-first": position_wait_first,
    "jump-first": position_jump_first,
    "continuous": position_continuous,
}


def assert_endpoint_matches_trajectory(dur, vel, measure, rng_args, horizon):
    traj = sample_trajectory(dur, vel, measure, stream_rng(*rng_args), horizon)
    n = renewal_count(traj, horizon)
    assert walk_endpoint(dur, vel, measure, stream_rng(*rng_args), horizon) == (n, None)
    for variant, evaluate in EVALUATORS.items():
        count, pos = walk_endpoint(dur, vel, measure, stream_rng(*rng_args), horizon, variant)
        assert count == n
        ref = evaluate(traj, horizon)
        assert pos.shape == ref.shape and np.array_equal(pos, ref), variant


@pytest.mark.parametrize("measure", [
    SpectralMeasure.uniform(1), SpectralMeasure.uniform(2), SpectralMeasure.uniform(3),
    SpectralMeasure.uniform(9),
    SpectralMeasure.atoms([[1.0, 0.0], [0.0, -1.0], [0.6, 0.8]], [0.2, 0.3, 0.5]),
], ids=["d1", "d2", "d3", "d9", "atoms"])
@pytest.mark.parametrize("vel", [TailLaw(0.8), 2.5], ids=["pareto", "fixed"])
def test_walk_endpoint_bit_identical_to_trajectory(measure, vel):
    for horizon in (0.0, 0.5, 37.0, 1e4):
        for j in range(12):
            assert_endpoint_matches_trajectory(TailLaw(0.5), vel, measure, (0, 916, j), horizon)


def test_walk_endpoint_when_horizon_follows_a_full_block():
    # stream (0, 917, 0) at this horizon: its first block of 44 steps ends
    # before the horizon and step 45, the first of the next block, straddles
    # it, so the continuous residual starts at renewal time 44, which differs
    # in the last bits from the block's pairwise duration sum
    dur = TailLaw(0.5)
    T = draw_pareto(dur, stream_rng(0, 917, 0), 44)
    horizon = float(np.cumsum(T)[-1]) + 0.5
    assert int(1.3 * expected_steps(horizon, 0.5)) + 16 == 44
    assert math.fsum([T.sum()]) != np.cumsum(T)[-1]
    traj = sample_trajectory(dur, TailLaw(0.8), SpectralMeasure.uniform(2),
                             stream_rng(0, 917, 0), horizon)
    assert renewal_count(traj, horizon) == 44 < len(traj.T)
    assert_endpoint_matches_trajectory(dur, TailLaw(0.8), SpectralMeasure.uniform(2),
                                       (0, 917, 0), horizon)


def test_walk_endpoint_domain():
    args = (TailLaw(0.5), TailLaw(0.8), SpectralMeasure.uniform(2), stream_rng(0, 918, 0))
    with pytest.raises(ValueError):
        walk_endpoint(*args, 1.0, "hop")
    with pytest.raises(ValueError):
        walk_endpoint(*args, -1.0)


def test_expected_steps_matches_simulation():
    law = TailLaw(0.5)
    target = expected_steps(10**4, 0.5, law.tail_constant)
    assert target == pytest.approx(100.0 / (math.gamma(1.5) * math.gamma(0.5)), rel=1e-12)
    counts = [renewal_count(sample_trajectory(law, 1.0, SpectralMeasure.uniform(1),
                                              stream_rng(0, 915, j), 10**4), 10**4)
              for j in range(300)]
    assert np.mean(counts) == pytest.approx(target, rel=0.15)


def test_trajectory_csv_format():
    traj = fixed([1.0, 2.0], [2.0, 0.5], [[0.0, 1.0], [1.0, 0.0]])
    buf = io.StringIO()
    write_trajectory_csv(traj, buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == "step_index,T,V,I_1,I_2,renewal_time,pos_1,pos_2"
    assert lines[1] == "1,1.0,2.0,0.0,1.0,1.0,0.0,2.0"
    assert lines[2] == "2,2.0,0.5,1.0,0.0,3.0,1.0,2.0"
    assert len(lines) == 3
