"""Property tests: the tail suites' counts equal searches of sorted samples.

counts_at_most: over chunks with repeated values and thresholds on sample
values, on both sides of the FEW_THRESHOLDS switch, the counts must be
np.searchsorted(np.sort(x), z, side="right"), and x may only be reordered.

stats._counts_below: over one or two Pareto factors of indices in
[0.01, 0.95], short chunks and grids through sample values, the counts it
takes from the uniforms must be those of the one-shot draw_pareto product,
with its band as set and widened past every proxy (so that every chunk
with a finite threshold is counted from its products), and the generator must end where the
one-shot draw leaves it. Where that product overflows, both must raise.
"""

import math
from unittest import mock

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

from levywalk import TailLaw, draw_pareto, stats  # noqa: E402
from levywalk.stats import FEW_THRESHOLDS, counts_at_most  # noqa: E402

# few distinct values, so chunks repeat values and thresholds land on them
values = st.integers(0, 20).map(float)


@settings(max_examples=300, deadline=None, database=None)
@given(x=st.lists(values, max_size=200),
       z=st.lists(st.one_of(values, st.floats(min_value=-1.0, max_value=21.0)),
                  max_size=2 * FEW_THRESHOLDS + 2))
def test_counts_at_most_match_sorted_search(x, z):
    x, z = np.array(x, dtype=float), np.sort(np.array(z, dtype=float))
    chunk = x.copy()
    counts = counts_at_most(chunk, z)
    np.testing.assert_array_equal(counts, np.searchsorted(np.sort(x), z, side="right"))
    assert counts.dtype == np.int64
    np.testing.assert_array_equal(np.sort(chunk), np.sort(x))


@settings(max_examples=200, deadline=None, database=None)
@given(indices=st.lists(st.floats(0.01, 0.95), min_size=1, max_size=2),
       chunk=st.integers(100, 1000), n=st.integers(0, 3000), seed=st.integers(0, 2**32 - 1),
       picks=st.lists(st.floats(0.0, 1.0), max_size=6),
       extra=st.lists(st.one_of(st.floats(-2.0, 1e6), st.floats(1e6, 1e300),
                                st.just(math.inf)), max_size=6),
       band=st.sampled_from([stats.BAND, 1e300]))
# a factor of index 0.01 overflows once 1 - u < 8e-4, about twice in 3000 draws
@example(indices=[0.01], chunk=100, n=3000, seed=1, picks=[0.5], extra=[], band=stats.BAND)
@example(indices=[0.5, 0.01], chunk=1000, n=3000, seed=1, picks=[], extra=[2.0],
         band=stats.BAND)
@example(indices=[0.5, 0.01], chunk=1000, n=3000, seed=1, picks=[], extra=[2.0], band=1e300)
def test_product_counts_match_one_shot_product(indices, chunk, n, seed, picks, extra, band):
    with np.errstate(over="ignore"):  # the reference may overflow; _counts_below must refuse it
        rng_one = np.random.default_rng(seed)
        x = draw_pareto(TailLaw(indices[0]), rng_one, n)
        for index in indices[1:]:
            x = x * draw_pareto(TailLaw(index), rng_one, n)
    x_sorted = np.sort(x)
    finite = x_sorted[np.isfinite(x_sorted)]
    on_samples = [finite[int(p * (finite.size - 1))] for p in picks if finite.size]
    z = np.sort(np.array(on_samples + extra, dtype=float))
    rng = np.random.default_rng(seed)
    with mock.patch.object(stats, "PRODUCT_CHUNK", chunk), \
            mock.patch.object(stats, "BAND", band):
        if finite.size < n:
            with pytest.raises(ValueError, match="finite"):
                stats._counts_below(tuple(indices), rng, n, z)
            return
        below = stats._counts_below(tuple(indices), rng, n, z)
    np.testing.assert_array_equal(below, np.searchsorted(x_sorted, z, side="right"))
    assert rng.bit_generator.state == rng_one.bit_generator.state
