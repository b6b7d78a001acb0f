"""Property tests of the config document: serialize then parse is the identity."""

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from levywalk import ExperimentConfig, parse_config  # noqa: E402

# unit atoms in d = 1, 2 and 3, in the `p @ v1 v2` format
ATOMS = {
    1: ["1 @ 1", "0.25 @ -1; 0.75 @ 1"],
    2: ["1 @ 0 1", "0.5 @ 1 0; 0.5 @ -1 0"],
    3: ["0.5 @ 0 0 1; 0.25 @ 1 0 0; 0.25 @ 0 -1 0"],
}

indices = st.floats(min_value=0.05, max_value=0.95)


@st.composite
def configs(draw):
    alpha = draw(indices)
    beta = draw(st.one_of(st.just(alpha), indices))  # the critical case alpha = beta too
    d = draw(st.integers(1, 3))
    atoms = draw(st.one_of(st.none(), st.sampled_from(ATOMS[d])))
    n_grid = sorted(draw(st.sets(st.integers(2, 10**6), min_size=1, max_size=4)))
    t_grid = draw(st.lists(st.floats(min_value=1e-3, max_value=1e3), min_size=1,
                           max_size=3, unique_by=lambda t: f"{t:g}"))
    return ExperimentConfig(
        alpha=alpha, beta=beta, d=d,
        variant=draw(st.sampled_from(["wait-first", "jump-first", "continuous"])),
        measure="uniform" if atoms is None else "atoms", atoms=atoms or "",
        n_grid=tuple(n_grid), t_grid=tuple(t_grid),
        n_samples=draw(st.integers(1, 10**6)),
        seed=draw(st.integers(0, 2**64 - 1)),
        out=draw(st.from_regex(r"[A-Za-z0-9_./-]{1,20}", fullmatch=True)),
        trajectories=draw(st.integers(0, 100)))


@settings(max_examples=200, deadline=None, database=None)
@given(configs())
def test_serialize_parse_round_trip(cfg):
    assert parse_config(cfg.serialize()) == cfg
