"""Property tests of the config document: serialize then parse is the
identity, and a config that parses runs to completion with finite output
files or is refused with a ValidationError naming its field."""

import os
import tempfile

import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

from levywalk import (ExperimentConfig, ValidationError, parse_config,  # noqa: E402
                      run_simulate)
from levywalk.harness import MAX_TRAJECTORY_ROWS, MAX_WALK_VALUES  # noqa: E402

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
    # a draw at large n, t, d or trajectories may exceed a work cap; it is
    # then refused by the cap's named error, and any other draw round-trips
    try:
        parsed = parse_config(cfg.serialize())
    except ValidationError as exc:
        caps = {"n_grid": MAX_WALK_VALUES, "d": MAX_WALK_VALUES,
                "trajectories": MAX_TRAJECTORY_ROWS}
        assert exc.field in caps and f"= {caps[exc.field]};" in str(exc)
    else:
        assert parsed == cfg


@st.composite
def small_runs(draw):
    alpha = draw(st.floats(min_value=0.01, max_value=0.99))
    beta = draw(st.one_of(st.just(alpha), st.floats(min_value=0.01, max_value=0.99)))
    d = draw(st.integers(1, 3))
    atoms = draw(st.one_of(st.none(), st.sampled_from(ATOMS[d])))
    return ExperimentConfig(
        alpha=alpha, beta=beta, d=d,
        variant=draw(st.sampled_from(["wait-first", "jump-first", "continuous"])),
        measure="uniform" if atoms is None else "atoms", atoms=atoms or "",
        n_grid=tuple(sorted(draw(st.sets(st.integers(1, 100), min_size=1, max_size=3)))),
        t_grid=tuple(draw(st.lists(st.floats(min_value=1e-3, max_value=10.0), min_size=1,
                                   max_size=2, unique_by=lambda t: f"{t:g}"))),
        n_samples=draw(st.integers(1, 20)),
        seed=draw(st.integers(0, 2**64 - 1)),
        trajectories=draw(st.integers(0, 20)))


@settings(max_examples=100, deadline=None, database=None)
@given(small_runs())
# steps of index 0.01 overflow a float in about one trajectory of ten
@example(ExperimentConfig(alpha=0.01, beta=0.01, d=2, variant="wait-first", n_grid=(2,),
                          n_samples=1, trajectories=200))
def test_parsed_config_runs_or_is_refused_by_name(cfg):
    with tempfile.TemporaryDirectory() as out:
        try:
            assert run_simulate(parse_config(cfg.serialize()), out) == 0
        except ValidationError as exc:
            assert exc.field in ExperimentConfig.__dataclass_fields__
        for root, _, names in os.walk(out):
            for name in names:
                if name.endswith((".csv", ".json")):
                    with open(os.path.join(root, name)) as fh:
                        text = fh.read().lower()  # json writes Infinity and NaN
                    assert "inf" not in text and "nan" not in text, name
