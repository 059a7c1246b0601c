"""Shared fixtures for the test suite."""

import os

import numpy as np
import pytest
from hypothesis import settings

from repro.memory.address import PAGE_SIZE, AddressRegion
from repro.memory.tiers import TieredMemory, NodeKind

# ``HYPOTHESIS_PROFILE=ci-deep`` raises the example budget of every
# property test that does not pin its own; tier-1 keeps the default.
settings.register_profile("ci-deep", max_examples=2000, deadline=None)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))


@pytest.fixture
def small_region():
    """A 64-page device region starting at a non-zero base."""
    return AddressRegion(0x1000_0000, 64 * PAGE_SIZE)


@pytest.fixture
def tiered():
    """A small tiered memory: 16 DDR pages + 64 CXL pages, 32 logical."""
    mem = TieredMemory(ddr_pages=16, cxl_pages=64, num_logical_pages=32)
    mem.allocate_all(NodeKind.CXL)
    return mem


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


def make_addresses(pfns, words=0):
    """Byte addresses for (page, word) pairs."""
    pfns = np.asarray(pfns, dtype=np.uint64)
    words = np.broadcast_to(np.asarray(words, dtype=np.uint64), pfns.shape)
    return (pfns << np.uint64(12)) | (words << np.uint64(6))
