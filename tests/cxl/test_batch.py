"""The ``AccessBatch`` digest against ``np.unique`` with first positions.

``unique_keys`` memoises the index-free ``np.unique``;
``unique_keys_ordered`` alone pays for first positions.  Whichever is
called first on a batch, both must return exactly what one
``np.unique(keys, return_index=True, return_counts=True)`` implies.
"""

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from repro.cxl.batch import AccessBatch
from repro.memory.address import PAGE_SHIFT, WORD_SHIFT


def _expected(addresses, shift):
    uniques, first_pos, counts = np.unique(
        addresses >> np.uint64(shift), return_index=True, return_counts=True)
    order = np.argsort(first_pos, kind="stable")
    return (uniques, counts), (uniques[order], counts[order])


def _assert_same(got, want):
    for a, b in zip(got, want):
        assert a.dtype == b.dtype
        assert np.array_equal(a, b)


addresses = st.lists(
    # A few pages, so keys repeat at both granularities.
    st.integers(0, (16 << PAGE_SHIFT) - 1), min_size=1, max_size=600,
).map(lambda xs: np.array(xs, dtype=np.uint64))


@given(addresses, st.booleans())
def test_digest_matches_unique_with_first_positions(addrs, ordered_first):
    batch = AccessBatch(addrs)
    for shift in (PAGE_SHIFT, WORD_SHIFT):
        plain, ordered = _expected(addrs, shift)
        if ordered_first:
            _assert_same(batch.unique_keys_ordered(shift), ordered)
            _assert_same(batch.unique_keys(shift), plain)
        else:
            _assert_same(batch.unique_keys(shift), plain)
            _assert_same(batch.unique_keys_ordered(shift), ordered)


def test_digest_is_memoised_per_shift():
    batch = AccessBatch(np.arange(0, 1 << 14, 64, dtype=np.uint64))
    first = batch.unique_keys(PAGE_SHIFT)
    assert batch.unique_keys(PAGE_SHIFT) is first
    ordered = batch.unique_keys_ordered(WORD_SHIFT)
    assert batch.unique_keys_ordered(WORD_SHIFT) is ordered
    # The ordered call also fills the plain digest for its shift.
    assert WORD_SHIFT in batch._digests
