"""Popularity distributions for synthetic address streams.

The trace generators are calibrated to the *measured* page-hotness
structure the paper publishes (Figure 10's per-page access-count CDFs
and the §7.2 commentary), so the building blocks here are the shapes
those CDFs exhibit: Zipf-like power laws, uniform floors, and explicit
hot/warm/cold mixtures with given population fractions and relative
heats.
"""

from __future__ import annotations

from typing import Sequence, Tuple

import numpy as np


def zipf_popularity(n: int, exponent: float) -> np.ndarray:
    """Normalised Zipf(s) popularity over ``n`` items (rank order)."""
    if n <= 0:
        raise ValueError("n must be positive")
    if exponent < 0:
        raise ValueError("exponent must be non-negative")
    ranks = np.arange(1, n + 1, dtype=np.float64)
    weights = ranks**-exponent
    return weights / weights.sum()


def uniform_popularity(n: int) -> np.ndarray:
    """Flat popularity (the paper's description of Redis/YCSB-A)."""
    if n <= 0:
        raise ValueError("n must be positive")
    return np.full(n, 1.0 / n)


def mixture_popularity(
    n: int, tiers: Sequence[Tuple[float, float]]
) -> np.ndarray:
    """Piecewise-constant popularity from (fraction, relative_heat) tiers.

    Example — roms_r's Figure 10 shape ("p90, p95, and p99 pages are
    2x, 8x, 17x more frequently accessed than the p50 page")::

        mixture_popularity(n, [(0.01, 17), (0.04, 8), (0.05, 2), (0.90, 1)])

    Tiers are ordered hottest-first; fractions must sum to ~1.
    """
    if n <= 0:
        raise ValueError("n must be positive")
    fracs = np.array([f for f, _ in tiers], dtype=np.float64)
    heats = np.array([h for _, h in tiers], dtype=np.float64)
    if fracs.min() <= 0 or heats.min() <= 0:
        raise ValueError("fractions and heats must be positive")
    if not np.isclose(fracs.sum(), 1.0, atol=1e-6):
        raise ValueError(f"tier fractions sum to {fracs.sum()}, expected 1")
    counts = np.round(fracs * n).astype(int)
    counts[-1] = n - counts[:-1].sum()
    if counts.min() < 0:
        raise ValueError("tier fractions incompatible with n")
    weights = np.repeat(heats, counts)
    return weights / weights.sum()


def blend(*components: Tuple[float, np.ndarray]) -> np.ndarray:
    """Convex combination of popularity vectors.

    Args:
        components: (weight, popularity_vector) pairs; weights are
            re-normalised.
    """
    if not components:
        raise ValueError("need at least one component")
    total = sum(w for w, _ in components)
    if total <= 0:
        raise ValueError("weights must sum to a positive value")
    size = len(components[0][1])
    out = np.zeros(size, dtype=np.float64)
    for weight, vec in components:
        if len(vec) != size:
            raise ValueError("all components must have the same length")
        out += (weight / total) * np.asarray(vec, dtype=np.float64)
    return out / out.sum()


def shuffled(popularity: np.ndarray, seed: int = 0) -> np.ndarray:
    """Permute a rank-ordered popularity vector over the page space.

    Real address spaces do not lay hot pages out contiguously; the
    permutation decorrelates hotness from the PFN so region-based
    detectors (DAMON) see realistic spatial mixing.
    """
    rng = np.random.default_rng(seed)
    out = np.asarray(popularity, dtype=np.float64).copy()
    rng.shuffle(out)
    return out


def spatially_clustered(
    popularity: np.ndarray, cluster_pages: int, seed: int = 0
) -> np.ndarray:
    """Permute hotness in clusters of ``cluster_pages`` adjacent pages.

    Array-sweeping codes (SPEC stencils, CSR edge arrays) keep similar
    heat across large contiguous extents; cluster-level shuffling
    models that while still mixing regions.
    """
    pop = np.asarray(popularity, dtype=np.float64)
    n = len(pop)
    if cluster_pages <= 0:
        raise ValueError("cluster_pages must be positive")
    num_clusters = -(-n // cluster_pages)
    pad = num_clusters * cluster_pages - n
    padded = np.concatenate([pop, np.zeros(pad)]) if pad else pop.copy()
    blocks = padded.reshape(num_clusters, cluster_pages)
    rng = np.random.default_rng(seed)
    rng.shuffle(blocks)
    out = blocks.reshape(-1)[:n]
    total = out.sum()
    if total <= 0:
        raise ValueError("popularity sums to zero")
    return out / total


def with_cold_tail(
    popularity: np.ndarray,
    active_fraction: float,
    cold_heat: float = 0.005,
    seed: int = 0,
) -> np.ndarray:
    """Demote a random subset of pages to a cold tail.

    Real footprints are not uniformly warm: index structures, freed
    arenas, and out-of-phase data sit nearly idle.  This keeps
    ``active_fraction`` of the pages at their popularity and scales
    the rest down to ``cold_heat`` of their weight — the structure
    that lets a DDR tier smaller than the footprint absorb most of
    the traffic once hot pages migrate.
    """
    if not 0 < active_fraction <= 1:
        raise ValueError("active_fraction must be in (0, 1]")
    if cold_heat <= 0:
        raise ValueError("cold_heat must be positive")
    pop = np.asarray(popularity, dtype=np.float64).copy()
    n = pop.size
    num_cold = int(round(n * (1.0 - active_fraction)))
    if num_cold == 0:
        return pop / pop.sum()
    rng = np.random.default_rng(seed)
    # Cool the least-popular pages (deterministic given popularity),
    # breaking ties randomly so flat distributions cool a random set.
    order = np.lexsort((rng.random(n), pop))
    pop[order[:num_cold]] *= cold_heat
    return pop / pop.sum()


def sample_pages(
    popularity: np.ndarray, count: int, rng: np.random.Generator
) -> np.ndarray:
    """Draw ``count`` page ids i.i.d. from a popularity vector.

    The per-draw reference twin of :class:`InverseCdf`: one binary
    search per draw over a freshly built cdf.
    """
    cdf = np.cumsum(popularity)
    cdf[-1] = 1.0
    return np.searchsorted(cdf, rng.random(count), side="right").astype(np.int64)


#: Guide-table buckets per page, before rounding the bucket count up
#: to a power of two.  At least ``1 - 1/GUIDE_BUCKETS_PER_PAGE`` of
#: the probability mass lands in a bucket holding no cdf step.
GUIDE_BUCKETS_PER_PAGE = 4


class InverseCdf:
    """Inverse-cdf sampling through a guide table, exact to
    :func:`sample_pages`.

    ``invert(u)`` returns ``searchsorted(cdf, u, "right")`` for the
    same ``cdf = cumsum(popularity)`` with ``cdf[-1] = 1.0``, element
    for element.  The answer is a monotone step function of ``u``, so
    it is constant on every bucket ``[j/M, (j+1)/M)`` that holds no
    cdf step, and the guide table stores it there.  ``M`` is a power
    of two: ``u * M`` and ``cdf * M`` are then exact in binary floating
    point, so ``j = floor(u * M)`` puts ``u`` in bucket ``j`` exactly
    and a cdf entry lies at or below ``j/M`` exactly when
    ``ceil(cdf * M) <= j``.  Draws in a bucket that does hold a step
    (marked with the impossible answer ``n``) fall back to the binary
    search.

    The table holds one entry per bucket in the narrowest unsigned
    dtype that fits ``n``.  Owners build an ``InverseCdf`` on their
    first draw and leave it out of their pickles, so neither setup
    time nor checkpoints carry it.
    """

    def __init__(self, popularity: np.ndarray) -> None:
        cdf = np.cumsum(popularity)
        cdf[-1] = 1.0
        self.cdf = cdf
        self.buckets = 1 << (GUIDE_BUCKETS_PER_PAGE * cdf.size - 1).bit_length()
        self._guide = self._build()

    def _build(self) -> np.ndarray:
        n, buckets = self.cdf.size, self.buckets
        # First bucket edge at or above each cdf entry; the clip catches
        # rounding drift above 1.0 ahead of the forced last entry.
        steps = np.minimum(np.ceil(self.cdf * buckets), buckets).astype(np.int64)
        # Bucket j's answer is the number of steps at or below j, so
        # page i answers for buckets steps[i-1] .. steps[i]-1.
        guide = np.repeat(
            np.arange(n, dtype=np.min_scalar_type(n)),
            np.diff(steps, prepend=0),
        )
        # Bucket steps[i]-1 holds cdf[i] in (j/M, (j+1)/M]: a step.
        guide[steps[steps > 0] - 1] = n
        return guide

    def invert(self, u: np.ndarray) -> np.ndarray:
        """Page ids for uniforms ``0 <= u < 1``."""
        u = np.asarray(u, dtype=np.float64)
        pages = self._guide[(u * self.buckets).astype(np.intp)].astype(np.int64)
        miss = np.flatnonzero(pages == self.cdf.size)
        if miss.size:
            pages[miss] = np.searchsorted(self.cdf, u[miss], side="right")
        return pages

    def sample(self, count: int, rng: np.random.Generator) -> np.ndarray:
        """Draw ``count`` page ids: one ``rng.random(count)``, like
        :func:`sample_pages`."""
        return self.invert(rng.random(count))
