"""Differential tests: the SortedCam against a brute-force reference
implementation of the Figure 5 hardware semantics."""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.sketch import CountMinSketch
from repro.core.topk import SortedCam


class ReferenceCam:
    """Direct transcription of the paper's CAM rules, kept naive."""

    def __init__(self, k):
        self.k = k
        self.entries = {}  # addr -> count

    def offer(self, addr, est):
        if addr in self.entries:
            self.entries[addr] = est
            return
        if len(self.entries) < self.k:
            self.entries[addr] = est
            return
        min_addr = min(self.entries, key=lambda a: self.entries[a])
        if est > self.entries[min_addr]:
            del self.entries[min_addr]
            self.entries[addr] = est


offers = st.lists(
    st.tuples(st.integers(0, 12), st.integers(1, 60)),
    min_size=1, max_size=150,
)


class TestDifferential:
    @settings(max_examples=50)
    @given(offers, st.integers(1, 6))
    def test_matches_reference(self, stream, k):
        cam = SortedCam(k)
        ref = ReferenceCam(k)
        for addr, est in stream:
            cam.offer(addr, est)
            ref.offer(addr, est)
        # Same membership and counts.  (Tie-breaking on equal minima
        # may admit different victims; both implementations use the
        # same min() choice on insertion order, so they agree.)
        assert dict(cam.entries()) == ref.entries

    @settings(max_examples=50)
    @given(offers)
    # A tie: 9's offer of 60 does not beat the tracked 60s.
    @example([(9, 1), (1, 60), (2, 60), (3, 60), (9, 60)])
    # 4 is refused while the CAM holds ties at 50; the others then
    # re-offer lower, leaving 4 the unique *latest* maximum, untracked.
    @example([(1, 50), (2, 50), (3, 50), (4, 50),
              (1, 10), (2, 10), (3, 10)])
    def test_tracked_set_contains_running_maximum(self, stream):
        """The address with the single largest estimate ever offered
        is always tracked at the end, if its last offer was that
        estimate.

        Figure 5 replaces the minimum only on a strictly greater
        estimate, so an address that merely ties the maximum may be
        refused; the guarantee needs exactly one address to have
        offered it.
        """
        cam = SortedCam(3)
        for addr, est in stream:
            cam.offer(addr, est)
        best = max(est for _, est in stream)
        holders = {addr for addr, est in stream if est == best}
        if len(holders) == 1:
            (best_addr,) = holders
            last = [est for addr, est in stream if addr == best_addr][-1]
            if last == best:
                assert best_addr in cam


class TestHardwarePipeline:
    """Sketch → CAM wiring as one pipeline (Figure 5 end to end)."""

    @settings(max_examples=25)
    @given(st.lists(st.integers(0, 40), min_size=5, max_size=400))
    def test_pipeline_tracks_true_heavy_hitter(self, keys):
        # Force one overwhelming heavy hitter.
        keys = keys + [7] * (len(keys) * 2)
        sketch = CountMinSketch(width=512, depth=4)
        cam = SortedCam(3)
        for key in keys:
            cam.offer(key, sketch.update_one(key))
        assert 7 in cam
        # Its tracked count is a CM-Sketch overestimate of the truth.
        assert cam.count_of(7) >= keys.count(7)
