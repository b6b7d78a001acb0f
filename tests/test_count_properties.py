"""Property test: counts_at_most equals a search of the sorted chunk.

The tail suites count each chunk's products at or below a grid of
thresholds. Over chunks with repeated values and thresholds on sample
values, on both sides of the FEW_THRESHOLDS switch, the counts must be
np.searchsorted(np.sort(x), z, side="right"), and x may only be reordered.
"""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

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
