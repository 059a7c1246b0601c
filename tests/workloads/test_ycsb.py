"""Tests for the mechanistic YCSB/slab KV engine."""

import hashlib
import pickle

import numpy as np
import pytest

from repro.analysis import from_trace
from repro.memory.address import PAGE_SIZE
from repro.workloads.ycsb import (
    SlabAllocator,
    YcsbMix,
    YcsbWorkload,
)
from repro.workloads.zipf import InverseCdf


class TestSlabAllocator:
    def test_objects_do_not_overlap(self):
        alloc = SlabAllocator()
        spans = []
        rng = np.random.default_rng(0)
        for _ in range(500):
            size = int(rng.integers(16, 1025))
            addr, cls = alloc.allocate(size)
            spans.append((addr, addr + cls))
        spans.sort()
        for (_a0, a1), (b0, _b1) in zip(spans, spans[1:]):
            assert a1 <= b0

    def test_same_class_packs_one_page(self):
        alloc = SlabAllocator()
        addrs = [alloc.allocate(100)[0] for _ in range(PAGE_SIZE // 128)]
        pages = {a // PAGE_SIZE for a in addrs}
        assert len(pages) == 1

    def test_class_rounding(self):
        alloc = SlabAllocator()
        _, cls = alloc.allocate(65)
        assert cls == 128

    def test_oversize_rejected(self):
        with pytest.raises(ValueError):
            SlabAllocator().allocate(4096)

    def test_validation(self):
        with pytest.raises(ValueError):
            SlabAllocator(size_classes=())
        with pytest.raises(ValueError):
            SlabAllocator(size_classes=(100,))  # not a 64 multiple


class TestYcsbWorkload:
    def make(self, **kw):
        defaults = dict(num_keys=5000, seed=1)
        defaults.update(kw)
        return YcsbWorkload(**defaults)

    def test_spec_latency_sensitive(self):
        wl = self.make()
        assert wl.spec.latency_sensitive
        assert wl.spec.footprint_pages > 0

    def test_trace_addresses_within_footprint(self):
        wl = self.make()
        pa = wl.trace(20_000)
        assert int(pa.max()) < wl.spec.footprint_pages * PAGE_SIZE
        assert (pa % 64 == 0).all()

    def test_request_touches_bucket_then_value(self):
        wl = self.make(num_keys=100)
        pa = wl.chunk_requests(1)
        # First access in the hash-table region, rest in the heap.
        heap_base = wl._bucket_pages * PAGE_SIZE
        assert int(pa[0]) < heap_base
        assert (pa[1:] >= heap_base).all()
        # Value words are consecutive.
        assert (np.diff(pa[1:]) == 64).all()

    def test_deterministic(self):
        a = self.make().trace(5000)
        b = self.make().trace(5000)
        assert np.array_equal(a, b)

    def test_restart(self):
        wl = self.make()
        a = wl.trace(5000)
        wl.restart()
        assert np.array_equal(a, wl.trace(5000))

    def test_mix_validation(self):
        with pytest.raises(ValueError):
            YcsbMix(read_fraction=1.5)
        with pytest.raises(ValueError):
            YcsbWorkload(num_keys=0)


class TestEmergentSparsity:
    """The Figure 4 cross-validation: the slab layout *produces* the
    sparsity the calibrated Redis generator encodes."""

    def test_heap_pages_mostly_sparse(self):
        """Small values + a request window that covers a fraction of
        the keyspace leave most heap pages with ≤16 of 64 words
        touched — the Redis-class regime of Figure 4, emerging from
        the slab layout with no sparsity configured anywhere."""
        wl = YcsbWorkload(num_keys=60_000, seed=2)
        pa = wl.trace(150_000)
        heap_base = wl._bucket_pages * PAGE_SIZE
        prof = from_trace("ycsb", pa[pa >= heap_base])
        assert prof.at(16) > 0.7

    def test_requests_spread_wide_across_heap(self):
        """Zipfian keys scattered by the allocator spread traffic over
        most of the heap — the paper's 'uniform random memory
        accesses' character, despite the key-level skew."""
        wl = YcsbWorkload(num_keys=20_000, seed=3)
        pa = wl.trace(300_000)
        heap_base = wl._bucket_pages * PAGE_SIZE
        pages = (pa[pa >= heap_base] // PAGE_SIZE).astype(np.int64)
        counts = np.bincount(pages)
        touched = counts[counts > 0].astype(float)
        heap_pages = wl.spec.footprint_pages - wl._bucket_pages
        assert len(touched) > 0.5 * heap_pages
        top1 = np.sort(touched)[::-1][: max(1, len(touched) // 100)].sum()
        assert top1 / touched.sum() < 0.5

    def test_drivable_by_engine(self):
        from repro.sim import SimConfig, Simulation

        wl = YcsbWorkload(num_keys=3000, seed=4)
        cfg = SimConfig(total_accesses=60_000, chunk_size=30_000,
                        ddr_pages=256, cxl_pages=4096, checkpoints=1)
        result = Simulation(wl, cfg, policy="m5-hwt").run()
        assert result.p99_latency_us is not None
        assert result.promoted > 0


class TestKeyDraw:
    """The key draw goes through ``InverseCdf``; the keys, and so the
    address stream, are those of the clamped binary search it
    replaced."""

    def test_keys_equal_clamped_searchsorted(self):
        wl = YcsbWorkload(num_keys=5000, seed=1)
        u = np.random.default_rng(wl.seed + 1).random(50_000)
        cdf = np.cumsum(wl._key_popularity)
        cdf[-1] = 1.0
        ref = np.minimum(
            np.searchsorted(cdf, u, side="right"), wl.num_keys - 1)
        assert np.array_equal(InverseCdf(wl._key_popularity).invert(u), ref)

    def test_pickled_mid_run_resumes_identically(self):
        wl = YcsbWorkload(num_keys=5000, seed=1)
        wl.chunk(20_000)
        assert wl._keys is not None
        restored = pickle.loads(pickle.dumps(wl))
        # The sampler is rebuilt on the next draw, not pickled.
        assert restored._keys is None
        for _ in range(3):
            assert np.array_equal(restored.chunk(20_000), wl.chunk(20_000))

    @pytest.mark.parametrize("kwargs, digest", [
        (dict(num_keys=5000, seed=1),
         "e9cdf09618dbaa1ea7369936ad9b50ac5bacb8f96f6c45ac058a9785fd30c150"),
        (dict(num_keys=300, zipf_theta=3.0, seed=7),
         "05322a66b7f33d943cb6fb969bc3e0e583f3daa6c6162b9be37cb0123ad36072"),
    ])
    def test_address_stream_pinned(self, kwargs, digest):
        wl = YcsbWorkload(**kwargs)
        h = hashlib.sha256()
        for _ in range(3):
            h.update(wl.chunk(20_000).tobytes())
        assert h.hexdigest() == digest
