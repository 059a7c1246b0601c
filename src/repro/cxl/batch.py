"""Pre-digested access batches for the controller snoop fan-out.

Every snoop attached to the CXL controller used to rediscover the same
structure per epoch chunk — page keys, word keys, their uniques and
multiplicities.  An :class:`AccessBatch` wraps one region-filtered
chunk of physical addresses and memoizes the ``np.unique`` digest per
granularity shift, so the PAC, WAC and each attached tracker share one
pass over the data instead of running their own.

The digest is index-free: ``np.unique(keys, return_counts=True)``.
Only order-sensitive summaries (weighted Space-Saving) read
first-appearance positions, so :meth:`AccessBatch.unique_keys_ordered`
alone pays for them, on demand: a minimum-scatter of positions over
``np.unique``'s ``return_inverse``.  On a 63k-address chunk at page
shift that took 3.0 ms, against 5.9 ms for ``return_index`` (a stable
argsort) and 6.0 ms for ranking the keys against the memoised uniques
with ``np.searchsorted`` (numpy 2.4, 2-CPU x86 container).  Sorted
uniques and their counts are unique and first positions are distinct,
so both entry points hand every consumer the arrays a ``return_index``
digest would, whichever is called first.

A dense ``np.bincount`` over the key domain is no substitute: a
32 MiB region holds 524 288 word bins against ~2 400 keys in a chunk,
and there the bincount took ~1.9 ms against ~40 µs for the sort
(numpy 2.4 on a 2-CPU x86 container).
"""

from __future__ import annotations

from typing import Any, Dict, Tuple

import numpy as np

_Digest = Tuple[np.ndarray, np.ndarray]


class AccessBatch:
    """One chunk of physical byte addresses, digest-on-demand.

    Args:
        addresses: physical byte addresses (uint64), already filtered
            to the controller's region.
        region: the :class:`~repro.memory.address.Region` the
            addresses were filtered against, if any — consumers whose
            own window differs (e.g. the WAC's monitor window) must
            re-filter.
    """

    def __init__(self, addresses: np.ndarray, region: Any = None) -> None:
        self.addresses = np.atleast_1d(np.asarray(addresses, dtype=np.uint64))
        self.region = region
        self._digests: Dict[int, _Digest] = {}
        self._ordered: Dict[int, _Digest] = {}

    @property
    def size(self) -> int:
        return int(self.addresses.size)

    def _keys(self, shift: int) -> np.ndarray:
        return self.addresses >> np.uint64(shift)

    def unique_keys(self, shift: int) -> Tuple[np.ndarray, np.ndarray]:
        """(unique keys ascending, multiplicities) at ``PA >> shift``."""
        digest = self._digests.get(shift)
        if digest is None:
            digest = np.unique(self._keys(shift), return_counts=True)
            self._digests[shift] = digest
        return digest

    def unique_keys_ordered(self, shift: int) -> Tuple[np.ndarray, np.ndarray]:
        """Like :meth:`unique_keys`, but in first-appearance order —
        what order-sensitive summaries (weighted Space-Saving) replay."""
        ordered = self._ordered.get(shift)
        if ordered is None:
            keys = self._keys(shift)
            uniques, inverse, counts = np.unique(
                keys, return_inverse=True, return_counts=True)
            self._digests.setdefault(shift, (uniques, counts))
            first_pos = np.full(uniques.size, keys.size, dtype=np.intp)
            np.minimum.at(first_pos, inverse, np.arange(keys.size))
            # First positions are distinct: any sort order is exact.
            order = np.argsort(first_pos)
            ordered = (uniques[order], counts[order])
            self._ordered[shift] = ordered
        return ordered
