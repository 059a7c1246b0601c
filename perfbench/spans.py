"""Host-time spans recorded from outside the simulator.

Nothing under ``src/`` is instrumented.  The traced run instead wraps
the public functions of each layer on the objects one unit of work
builds, and records one span per call: name, start, end and parent.
Spans stay in memory (:class:`SpanSink`) and are written out when the
benchmark ends; :func:`self_times` turns them into per-layer self
time.

``Service.checkpoint`` pickles each stream's whole ``Simulation``,
including ``sim.stages``, the controller's snoop list and any
instance attribute that shadows a method.  Every wrapper that can end
up in that object graph is therefore a module-level class, and the
sink pickles as an empty sink: host timings are no part of simulated
state.
"""

from __future__ import annotations

import contextlib
import time
from collections import defaultdict
from typing import Any, Callable, Dict, Iterator, List

import numpy as np

from repro.cxl.batch import AccessBatch
from repro.sim.engine import Simulation

#: Pipeline stages timed as ``sim.<stage>`` spans; the other stages
#: (checkpoint, the fleet's chain splice, ...) count towards the
#: enclosing ``sim.epoch`` span's self time.
TIMED_STAGES = ("trace", "translate", "snoop", "policy", "migrate", "perf")

_clock = time.perf_counter


class SpanSink:
    """In-memory span store: ``[name, start, end, parent]`` rows.

    ``parent`` is the row index of the span open when this one began
    (-1 for a root).  Spans nest strictly; the benchmark is single
    threaded.
    """

    def __init__(self) -> None:
        self.spans: List[list] = []
        self._open: List[int] = []
        #: Unique keys digested per ``AccessBatch`` granularity shift,
        #: counted on the call that pays the memoised ``np.unique``.
        self.unique_keys: Dict[int, int] = defaultdict(int)

    def begin(self, name: str) -> int:
        parent = self._open[-1] if self._open else -1
        self.spans.append([name, _clock(), 0.0, parent])
        index = len(self.spans) - 1
        self._open.append(index)
        return index

    def end(self, index: int) -> None:
        self.spans[index][2] = _clock()
        self._open.pop()

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[None]:
        index = self.begin(name)
        try:
            yield
        finally:
            self.end(index)

    def __reduce__(self) -> Any:
        return (SpanSink, ())


class TimedCall:
    """Times ``obj.attr(...)`` as span ``name``.

    Installed as an instance attribute, so it shadows the class's
    method for this one object only.  It holds the class's plain
    function, not a bound method, so pickling the object graph does
    not recurse through the wrapper.
    """

    def __init__(self, obj: Any, attr: str, name: str, sink: SpanSink) -> None:
        self.func = getattr(type(obj), attr)
        self.obj = obj
        self.name = name
        self.sink = sink
        setattr(obj, attr, self)

    def __call__(self, *args: Any, **kwargs: Any) -> Any:
        index = self.sink.begin(self.name)
        try:
            return self.func(self.obj, *args, **kwargs)
        finally:
            self.sink.end(index)


class TimedTick(TimedCall):
    """``AsyncMigrationEngine.tick``, also summing transactions tried
    (the engine's cumulative stats have no attempted counter)."""

    def __init__(self, obj: Any, sink: SpanSink) -> None:
        super().__init__(obj, "tick", "migration.tick", sink)
        self.attempted = 0

    def __call__(self, *args: Any, **kwargs: Any) -> Any:
        report = super().__call__(*args, **kwargs)
        self.attempted += report.attempted
        return report


class TimedStage:
    """One entry of ``Simulation.stages``, timed as span ``name``."""

    def __init__(self, stage: Callable[..., None], name: str,
                 sink: SpanSink) -> None:
        self.stage = stage
        self.name = name
        self.sink = sink

    def __call__(self, policy: Any, st: Any) -> None:
        index = self.sink.begin(self.name)
        try:
            self.stage(policy, st)
        finally:
            self.sink.end(index)


class SnoopProxy:
    """A controller snoop whose ``observe`` is timed."""

    def __init__(self, snoop: Any, name: str, sink: SpanSink) -> None:
        self.snoop = snoop
        self.name = name
        self.sink = sink

    def observe(self, addresses: np.ndarray) -> None:
        index = self.sink.begin(self.name)
        try:
            self.snoop.observe(addresses)
        finally:
            self.sink.end(index)


class BatchSnoopProxy(SnoopProxy):
    """A snoop that takes the shared ``AccessBatch``; the controller
    tests for ``observe_batch`` with ``hasattr``, so only snoops that
    have it get this proxy."""

    def observe_batch(self, batch: AccessBatch) -> None:
        index = self.sink.begin(self.name)
        try:
            self.snoop.observe_batch(batch)
        finally:
            self.sink.end(index)


def instrument_sim(sim: Simulation, sink: SpanSink) -> None:
    """Wrap one simulation's epoch, stages and layer entry points."""
    TimedCall(sim, "step_epoch", "sim.epoch", sink)
    bound = {getattr(sim, f"_stage_{name}"): f"sim.{name}"
             for name in TIMED_STAGES}
    sim.stages = tuple(
        TimedStage(stage, bound[stage], sink) if stage in bound else stage
        for stage in sim.stages
    )
    TimedCall(sim.mglru, "record_accesses", "memory.mglru", sink)
    if sim.async_engine is not None:
        TimedTick(sim.async_engine, sink)
    labels = {id(sim.pac): "cxl.pac"}
    if sim.wac is not None:
        labels[id(sim.wac)] = "cxl.wac"
    manager = sim._manager
    if manager is not None:
        labels[id(manager.hpt)] = "core.hpt"
        if manager.hwt is not None:
            labels[id(manager.hwt)] = "core.hwt"
    snoops = sim.controller.snoops
    for snoop in snoops:
        sim.controller.detach(snoop)
    for snoop in snoops:
        proxy = BatchSnoopProxy if hasattr(snoop, "observe_batch") else SnoopProxy
        sim.controller.attach(proxy(snoop, labels[id(snoop)], sink))


@contextlib.contextmanager
def timed_digest(sink: SpanSink) -> Iterator[None]:
    """Time ``AccessBatch.unique_keys``/``unique_keys_ordered`` as
    ``cxl.digest`` spans while the block runs.

    The methods are patched on the class because the controller makes
    a fresh batch per chunk.  Class attributes never enter a pickled
    simulation, so plain closures suffice here.
    """
    originals = {name: getattr(AccessBatch, name)
                 for name in ("unique_keys", "unique_keys_ordered")}

    def timed(func: Callable[..., Any]) -> Callable[..., Any]:
        def wrapper(batch: AccessBatch, shift: int) -> Any:
            fresh = shift not in batch._digests
            index = sink.begin("cxl.digest")
            try:
                out = func(batch, shift)
            finally:
                sink.end(index)
            if fresh:
                sink.unique_keys[shift] += int(batch._digests[shift][0].size)
            return out
        return wrapper

    for name, func in originals.items():
        setattr(AccessBatch, name, timed(func))
    try:
        yield
    finally:
        for name, func in originals.items():
            setattr(AccessBatch, name, func)


def self_times(spans: List[list]) -> Dict[str, float]:
    """Self time per span name: duration minus the children's."""
    child = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    out: Dict[str, float] = defaultdict(float)
    for (name, start, end, _), inner in zip(spans, child):
        out[name] += (end - start) - inner
    return dict(out)


def durations(spans: List[list], name: str) -> List[float]:
    """Inclusive durations of every span called ``name``."""
    return [end - start for n, start, end, _ in spans if n == name]

