import io
import math
import tracemalloc

import numpy as np
import pytest

import levywalk.walk
from levywalk import (SpectralMeasure, TailLaw, Trajectory,
                      TrajectoryExhausted, draw_pareto, expected_steps,
                      position_continuous, position_jump_first,
                      position_wait_first, renewal_count, sample_trajectory,
                      stream_rng, walks, write_trajectory_csv)
from levywalk.harness import INVARIANTS_STREAM
from levywalk.randgen import _stream_rngs
from levywalk.walk import _skip

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
        # no times: an empty result of the query's shape
        assert renewal_count(traj, []).shape == (0,)
        for query in (position_wait_first, position_jump_first, position_continuous):
            assert query(traj, []).shape == (0, 1)


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


def first_block(law, horizon):
    return int(1.3 * expected_steps(horizon, law.index, law.tail_constant)) + 16


def test_sampling_determinism_across_blocks():
    law, vel = TailLaw(0.5), TailLaw(0.8)
    m = SpectralMeasure.uniform(2)
    a = sample_trajectory(law, vel, m, stream_rng(3, 913, 1), 1e4)
    b = sample_trajectory(law, vel, m, stream_rng(3, 913, 1), 1e4)
    assert len(a.T) > first_block(law, 1e4)  # the first block ends before the horizon
    for name in ("T", "V", "U", "renewal_times", "positions"):
        np.testing.assert_array_equal(getattr(a, name), getattr(b, name))
    assert a.total_duration > 1e4
    assert renewal_count(a, 1e4) < len(a.T)


def test_queries_past_the_end_raise():
    traj = sample_trajectory(TailLaw(0.5), TailLaw(0.8), SpectralMeasure.uniform(2),
                             stream_rng(3, 913, 1), 1e4)
    end = traj.total_duration
    # counting may reach the end; the other evaluators need the step after t
    assert renewal_count(traj, end) == len(traj.T)
    np.testing.assert_array_equal(position_wait_first(traj, end), traj.positions[-1])
    for query in (renewal_count, position_wait_first):
        with pytest.raises(TrajectoryExhausted):
            query(traj, np.nextafter(end, math.inf))
    for query in (position_jump_first, position_continuous):
        with pytest.raises(TrajectoryExhausted):
            query(traj, end)
        with pytest.raises(TrajectoryExhausted):
            query(traj, [0.0, end])


def test_renewal_times_strictly_increasing_across_blocks():
    law = TailLaw(0.3)
    traj = sample_trajectory(law, 1.0, SpectralMeasure.uniform(1), stream_rng(1, 914, 6), 1e5)
    assert len(traj.T) > first_block(law, 1e5)
    assert np.all(np.diff(traj.renewal_times) > 0.0)
    # cross-block totals stay consistent with one-shot cumulative sums
    np.testing.assert_allclose(traj.renewal_times, np.cumsum(traj.T), rtol=1e-12)
    np.testing.assert_allclose(traj.positions,
                               np.cumsum(traj.jumps(), axis=0), rtol=1e-9, atol=1e-12)


def test_renewal_times_nondecreasing_at_small_alpha():
    # trajectory 982 of the invariants suite's identity checks at seed 6: at
    # alpha = 0.04 its first block ends in a run of equal renewal times, and
    # a block that started below the previous block's last renewal time
    # broke the run and the order
    alpha = 0.04
    dur = TailLaw(alpha)
    horizon = (100.0 * math.gamma(1 + alpha) * math.gamma(1 - alpha)
               * dur.tail_constant) ** (1.0 / alpha)
    rng = stream_rng(6, INVARIANTS_STREAM, 982)
    traj = sample_trajectory(dur, TailLaw(0.8), SpectralMeasure.uniform(2), rng, horizon)
    ts = rng.random(100) * horizon
    R = traj.renewal_times
    assert len(R) > first_block(dur, horizon)
    assert np.all(np.diff(R) >= 0.0)
    # N(t) = max{j : R_j <= t}
    expected = [max((j + 1 for j in range(len(R)) if R[j] <= t), default=0) for t in ts]
    assert renewal_count(traj, ts).tolist() == expected


EVALUATORS = {
    "wait-first": position_wait_first,
    "jump-first": position_jump_first,
    "continuous": position_continuous,
}


def assert_endpoint_matches_trajectory(dur, vel, measure, rng_args, horizon):
    traj = sample_trajectory(dur, vel, measure, stream_rng(*rng_args), horizon)
    n = renewal_count(traj, horizon)
    counts, pos = walks(dur, vel, measure, [stream_rng(*rng_args)], horizon)
    assert counts.tolist() == [n] and pos is None
    for variant, evaluate in EVALUATORS.items():
        counts, pos = walks(dur, vel, measure, [stream_rng(*rng_args)], horizon, variant)
        assert counts.tolist() == [n]
        ref = evaluate(traj, horizon)
        assert pos.shape == (1, *ref.shape) and np.array_equal(pos[0], ref), variant


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
    # before the horizon, so the straddling step starts a later block
    dur = TailLaw(0.5)
    T = draw_pareto(dur, stream_rng(0, 917, 0), 44)
    horizon = float(np.cumsum(T)[-1]) + 0.5
    assert first_block(dur, horizon) == 44
    traj = sample_trajectory(dur, TailLaw(0.8), SpectralMeasure.uniform(2),
                             stream_rng(0, 917, 0), horizon)
    assert renewal_count(traj, horizon) == 44 < len(traj.T)
    assert_endpoint_matches_trajectory(dur, TailLaw(0.8), SpectralMeasure.uniform(2),
                                       (0, 917, 0), horizon)


def test_walk_endpoint_domain():
    args = (TailLaw(0.5), TailLaw(0.8), SpectralMeasure.uniform(2), stream_rng(0, 918, 0))
    with pytest.raises(ValueError, match="unknown variant"):
        walks(*args[:3], [args[3]], 1.0, "hop")
    for variant in (None, "wait-first"):
        with pytest.raises(ValueError):
            walks(*args[:3], [args[3]], -1.0, variant)
    with pytest.raises(ValueError):
        sample_trajectory(*args, -1.0)
    counts, pos = walks(*args[:3], [], 1.0, "continuous")  # no generators, no walks
    assert counts.shape == (0,) and counts.dtype == np.int64 and pos.shape == (0, 2)


def test_position_walks_keep_one_block_of_durations():
    # each position walk keeps only its own block's durations: at this
    # horizon a first block is about 8300 steps (65 KiB), and no array of
    # many walks' blocks may build up
    tracemalloc.start()
    try:
        walks(TailLaw(0.5), TailLaw(0.8), SpectralMeasure.uniform(2),
              [rng for _, rng in _stream_rngs(0, 0, 0, 200)], 1e8, "wait-first")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * 2**20


@pytest.mark.parametrize("horizon", [math.inf, -math.inf, math.nan])
def test_non_finite_horizon_is_named(horizon):
    # inf used to reach int(inf) in the first block's size (a bare
    # OverflowError), and NaN a float-to-integer conversion
    args = (TailLaw(0.5), TailLaw(0.8), SpectralMeasure.uniform(2), stream_rng(0, 918, 0))
    for variant in (None, "continuous"):
        with pytest.raises(ValueError, match="horizon must be nonnegative and finite"):
            walks(*args[:3], [args[3]], horizon, variant)
    with pytest.raises(ValueError, match="horizon must be nonnegative and finite"):
        sample_trajectory(*args, horizon)


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


@pytest.mark.parametrize("bits", [np.random.PCG64, np.random.Philox], ids=["pcg64", "philox"])
def test_skip_lands_where_the_draws_would(bits):
    a, b = np.random.Generator(bits(5)), np.random.Generator(bits(5))
    a.random(1001)
    _skip(b, 1001)
    assert np.array_equal(a.random(7), b.random(7))
    assert np.array_equal(a.standard_normal(7), b.standard_normal(7))


@pytest.mark.parametrize("count", [int, np.int64], ids=["int", "int64"])
@pytest.mark.parametrize("bits", [np.random.PCG64, np.random.Philox], ids=["pcg64", "philox"])
def test_skip_takes_numpy_integers(bits, count):
    # PCG64's advance refuses a numpy integer, such as a count from count_nonzero
    a, b = np.random.Generator(bits(6)), np.random.Generator(bits(6))
    a.random(3)
    _skip(b, count(3))
    assert a.random() == b.random()


class LoggedGenerator:
    """A Generator stand-in that records the uniforms and the rows of normals
    each call draws, in order.

    The kernel's skips are logged by the patched walk._skip, which still
    advances the real generator.
    """

    def __init__(self, rng):
        self.rng = rng
        self.bit_generator = rng.bit_generator
        self.calls = []

    def random(self, size=None, out=None):
        self.calls.append(("random", out.size if out is not None else size))
        return self.rng.random(size, out=out)

    def standard_normal(self, size):
        self.calls.append(("normal", size[0]))
        return self.rng.standard_normal(size)


def log_skips(monkeypatch):
    def skip(rng, m):
        rng.calls.append(("skip", m))
        _skip(rng, m)

    monkeypatch.setattr(levywalk.walk, "_skip", skip)


def count_only_reads(first, piece, n):
    """The calls a count-only walk with n completed steps makes: every
    finished block's durations, a piece at a time, and the skips of its
    Pareto speeds and one-word directions; then the pieces of the last block
    up to the one holding step n + 1, which crosses the horizon."""
    calls, done, size = [], 0, first
    while done + size <= n:
        calls += [("random", min(piece, size - lo)) for lo in range(0, size, piece)]
        calls += [("skip", size)] * 2
        done, size = done + size, 2 * size
    calls += [("random", min(piece, size - lo)) for lo in range(0, n - done + 1, piece)]
    return calls


def position_reads(first, piece, n, variant):
    """The calls a walk with n completed steps makes for a variant, with
    Pareto speeds and uniform directions in d >= 2: every finished block
    read whole (its durations a piece at a time, then its speeds and its
    normals); then the pieces of the last block's durations up to the one
    holding step n + 1, which crosses the horizon, and a skip of the rest;
    then the speeds of the steps the variant reads (the last block's k
    complete steps, and for jump-first and continuous step k + 1 as well),
    a skip of the block's other speeds, and those steps' normals."""
    calls, done, size = [], 0, first
    while done + size <= n:
        calls += [("random", min(piece, size - lo)) for lo in range(0, size, piece)]
        calls += [("random", size), ("normal", size)]
        done, size = done + size, 2 * size
    drawn = [min(piece, size - lo) for lo in range(0, n - done + 1, piece)]
    calls += [("random", m) for m in drawn] + [("skip", size - sum(drawn))]
    rows = n - done + (variant != "wait-first")
    return calls + [("random", rows), ("skip", size - rows), ("normal", rows)]


@pytest.mark.parametrize("variant", ["wait-first", "jump-first", "continuous"])
def test_last_block_draws_only_what_it_reads(monkeypatch, variant):
    monkeypatch.setattr(levywalk.walk, "POSITION_PIECE", 8)
    log_skips(monkeypatch)
    dur, vel, measure = TailLaw(0.5), TailLaw(0.8), SpectralMeasure.uniform(2)
    horizon = 1e4
    block = first_block(dur, horizon)
    rngs = [LoggedGenerator(stream_rng(0, 919, j)) for j in range(40)]
    counts = walks(dur, vel, measure, rngs, horizon, variant)[0]
    blocks = short = 0
    for j, (n, rng) in enumerate(zip(counts, rngs)):
        traj = sample_trajectory(dur, vel, measure, stream_rng(0, 919, j), horizon)
        assert n == renewal_count(traj, horizon)
        assert rng.calls == position_reads(block, 8, n, variant)
        blocks += n >= block
        short += rng.calls[-4] != ("skip", 0)  # its durations stopped before the block's end
    assert blocks  # some walks read earlier blocks whole
    assert short  # and some crossed the horizon early in their last block


@pytest.mark.parametrize("measure", [
    SpectralMeasure.uniform(1), SpectralMeasure.atoms([[1.0, 0.0], [0.0, 1.0]], [0.5, 0.5]),
], ids=["d1", "atoms"])
def test_count_only_walk_draws_no_speeds_or_directions(monkeypatch, measure):
    # every uniform a count-only walk draws is a duration: speeds and
    # one-word directions are skipped, and no piece after the crossing one
    # is drawn
    monkeypatch.setattr(levywalk.walk, "PIECE", 8)
    log_skips(monkeypatch)
    dur, vel, horizon = TailLaw(0.5), TailLaw(0.8), 1e4
    block = first_block(dur, horizon)
    rngs = [LoggedGenerator(stream_rng(0, 920, j)) for j in range(40)]
    counts, pos = walks(dur, vel, measure, rngs, horizon)
    assert pos is None
    blocks = early = 0
    for j, (n, rng) in enumerate(zip(counts, rngs)):
        traj = sample_trajectory(dur, vel, measure, stream_rng(0, 920, j), horizon)
        assert n == renewal_count(traj, horizon)
        assert rng.calls == count_only_reads(block, 8, n)
        blocks += n >= block
        early += len(traj.T) - n > 8  # the last piece drawn ends before the block
    assert blocks  # some walks needed a second block
    assert early  # and some crossed before their last block's last piece
