#!/usr/bin/env python3
"""The repo's layered benchmark for ``repro run``, ``repro fleet`` and
``repro serve``.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload run-m5 --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics from untraced units of
work; ``--trace 1`` alternates untraced and traced units and reports
the per-layer metrics.  The last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.  A host
record and, for traced runs, the recorded spans are written under
``.perfbench_out/``.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"
WORKLOAD_NAMES = ("run-m5", "fleet-damon", "serve-ckpt")
#: Fewest timed (and, with tracing, traced) units a run attempts.
MIN_UNITS = 3

END_TO_END = {
    "accesses_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "success_rate": "ratio",
}
#: Span name -> per-layer self-time metric.
TIME_LAYERS = {
    "sim.trace": "sim.trace_s",
    "sim.translate": "sim.translate_s",
    "sim.snoop": "sim.snoop_s",
    "cxl.digest": "cxl.digest_s",
    "cxl.pac": "cxl.pac_s",
    "cxl.wac": "cxl.wac_s",
    "core.hpt": "core.hpt_s",
    "core.hwt": "core.hwt_s",
    "memory.mglru": "memory.mglru_s",
    "sim.policy": "sim.policy_s",
    "sim.migrate": "sim.migrate_s",
    "migration.tick": "migration.tick_s",
    "sim.perf": "sim.perf_s",
    "fleet.chain": "fleet.chain_s",
    # The fleet loop's own time: wall minus the tenants' epochs.
    "fleet.run": "fleet.arbitrate_s",
    "workloads.decode": "workloads.decode_s",
    "service.ingest": "service.ingest_s",
    "service.drive": "service.drive_s",
    "service.checkpoint": "service.checkpoint_s",
}
COUNTS = {
    "sim.epochs": "count",
    "cxl.requests": "count",
    "cxl.unique_pages": "count",
    "cxl.unique_words": "count",
    "core.nominated": "count",
    "core.promoted": "count",
    "migration.attempted": "count",
    "migration.committed": "count",
    "migration.aborted": "count",
    "migration.commit_ratio": "ratio",
    "fleet.chain_pages": "count",
    "fleet.max_slowdown": "ratio",
    "service.rounds": "count",
    "service.checkpoints": "count",
    "service.checkpoint_bytes": "bytes",
    "workloads.decoded_bytes": "bytes",
}
PER_LAYER = {
    **{metric: "s" for metric in TIME_LAYERS.values()},
    "sim.epoch_p50_ms": "ms",
    "sim.epoch_p90_ms": "ms",
    **COUNTS,
    "obs.trace_overhead": "ratio",
}

clock = time.perf_counter

#: Median time of one :class:`HostProbe` kernel run on the reference
#: host, a 2-CPU container, when it is not slowed by its neighbours.
PROBE_NOMINAL_S = 0.004


class HostProbe:
    """A fixed kernel that samples the host's current speed.

    A shared host's speed drifts by ±15% within seconds, and unit
    times follow it.  So a probe runs between units, and every unit
    time is scaled to the reference host's speed by the mean of the
    probes taken just before and just after it (set-up time by the one
    just before it, which it follows directly).  The kernel mixes the
    simulator's kinds of work: large numpy sorts and searches, many
    small numpy calls, and Python dict updates.  It runs no program
    code, so a change to the program moves the scaled times exactly as
    it moves the raw ones.
    """

    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        self.keys = rng.integers(0, 1 << 22, 1 << 16)
        self.weights = rng.random(1 << 16)
        self.queries = rng.random(1 << 15)
        self.small = rng.random(4096)

    def kernel(self) -> float:
        t0 = clock()
        np.unique(self.keys, return_counts=True)
        np.searchsorted(np.cumsum(self.weights), self.queries)
        for i in range(600):
            start = i * 7 % 4000
            self.small[start:start + 64].sum()
        counts: Dict[int, int] = {}
        for i in range(8000):
            counts[i & 255] = counts.get(i & 255, 0) + 1
        return clock() - t0

    def __call__(self) -> float:
        """Median of 5 kernel runs, in seconds."""
        return statistics.median(self.kernel() for _ in range(5))


@dataclass
class Unit:
    """One unit of work as measured."""

    setup_s: float
    run_s: float
    digests: List[str]
    checks: List[bool]
    counts: Dict[str, float] = field(default_factory=dict)
    #: :class:`HostProbe` readings just before and just after the unit.
    probe_before: float = PROBE_NOMINAL_S
    probe_after: float = PROBE_NOMINAL_S

    @property
    def nominal_run_s(self) -> float:
        """Run time scaled to the reference host's speed."""
        return self.run_s * 2 * PROBE_NOMINAL_S / (
            self.probe_before + self.probe_after)

    @property
    def nominal_setup_s(self) -> float:
        """Set-up time scaled to the reference host's speed."""
        return self.setup_s * PROBE_NOMINAL_S / self.probe_before


@dataclass
class Ledger:
    """Operations attempted and failed; an operation is a run, a
    tenant or a stream.  The first unit's digests are the reference
    every later unit must reproduce."""

    attempted: int = 0
    failed: int = 0
    reference: Optional[List[str]] = None

    def fail(self, n: int) -> None:
        self.attempted += n
        self.failed += n

    def record(self, unit: Unit) -> None:
        if self.reference is None:
            self.reference = unit.digests
        for digest, want, ok in zip(unit.digests, self.reference, unit.checks):
            self.attempted += 1
            self.failed += not (ok and digest == want)

    def record_checks(self, checks: List[bool]) -> None:
        self.attempted += len(checks)
        self.failed += checks.count(False)


def run_unit(wl: Any, sink: Any = None) -> Unit:
    from spans import timed_digest

    gc.collect()
    t0 = clock()
    system = wl.setup()
    t1 = clock()
    if sink is not None:
        wl.instrument(system, sink)
    with (timed_digest(sink) if sink else nullcontext()), \
            (sink.span(wl.root) if sink else nullcontext()):
        t2 = clock()
        result = wl.run(system)
        t3 = clock()
    return Unit(
        setup_s=t1 - t0,
        run_s=t3 - t2,
        digests=wl.digests(system, result),
        checks=wl.checks(system, result),
        counts=wl.counts(system, result, sink) if sink is not None else {},
    )


def attempt(wl: Any, ledger: Ledger, sink: Any = None) -> Optional[Unit]:
    """Run one unit; a unit that raises fails all its operations."""
    try:
        unit = run_unit(wl, sink)
    except Exception:
        traceback.print_exc()
        ledger.fail(wl.ops_per_unit)
        return None
    ledger.record(unit)
    return unit


def median(values: List[float]) -> float:
    return statistics.median(values) if values else 0.0


def layer_metrics(traced: List[Any], untraced: List[Unit]) -> Dict[str, float]:
    from spans import durations, self_times

    per_unit = [self_times(sink.spans) for _, sink in traced]
    out = {metric: median([times.get(span, 0.0) for times in per_unit])
           for span, metric in TIME_LAYERS.items()}
    epochs_ms = [1e3 * d for _, sink in traced
                 for d in durations(sink.spans, "sim.epoch")]
    if len(epochs_ms) >= 2:
        out["sim.epoch_p50_ms"] = statistics.median(epochs_ms)
        out["sim.epoch_p90_ms"] = statistics.quantiles(epochs_ms, n=10)[-1]
    unit, sink = traced[-1] if traced else (None, None)
    if unit is not None:
        out.update(unit.counts)
        out["sim.epochs"] = len(durations(sink.spans, "sim.epoch"))
    untraced_s = median([u.nominal_run_s for u in untraced])
    out["obs.trace_overhead"] = (
        median([u.nominal_run_s for u, _ in traced]) / untraced_s
        if untraced_s else 0.0
    )
    return {metric: out.get(metric, 0) for metric in PER_LAYER}


def src_sha256() -> str:
    """Content hash of the program under test (the checkout need not
    be a git repository)."""
    digest = hashlib.sha256()
    src = ROOT / "src"
    for path in sorted(src.rglob("*.py")):
        digest.update(str(path.relative_to(src)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def host_record(args: argparse.Namespace, wl: Any, units: int) -> Dict[str, Any]:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "src_sha256": src_sha256(),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "trace_length": wl.accesses,
        "units": units,
        "accuracy": "not reported: the repo holds no reference values "
                    "for these workloads, so the model is unvalidated here",
    }


def measure(args: argparse.Namespace) -> int:
    import legs
    from spans import SpanSink

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = OUT_DIR / tag
    wl = legs.WORKLOADS[args.workload](args.seed, workdir,
                                       1 / 32 if args.tiny else 1.0)
    ledger = Ledger()
    untraced: List[Unit] = []
    traced: List[Any] = []
    try:
        wl.prepare()
        attempt(wl, ledger)  # warm-up: sets the reference digests
        # Read before the probe and the timed loop allocate anything.
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        probe = HostProbe()
        reading = probe()
        deadline = clock() + args.seconds
        rounds = 0
        while clock() < deadline or rounds < MIN_UNITS:
            rounds += 1
            for sink in ([None, SpanSink()] if args.trace else [None]):
                unit = attempt(wl, ledger, sink)
                before, reading = reading, probe()
                if unit is None:
                    continue
                unit.probe_before, unit.probe_after = before, reading
                if sink is None:
                    untraced.append(unit)
                else:
                    traced.append((unit, sink))
        try:
            ledger.record_checks(wl.prefix_check())
        except Exception:
            traceback.print_exc()
            ledger.fail(wl.ops_per_unit)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if args.trace:
        metrics = layer_metrics(traced, untraced)
        declared = PER_LAYER
    else:
        metrics = {
            "accesses_per_s": median([wl.accesses / u.nominal_run_s
                                      for u in untraced]),
            "setup_s": median([u.nominal_setup_s for u in untraced]),
            "peak_rss_mb": peak_rss_mb,
            "success_rate": 1.0 - ledger.failed / max(ledger.attempted, 1),
        }
        declared = END_TO_END
    host = host_record(args, wl, len(untraced) + len(traced))
    record = {
        **host,
        "metrics": metrics,
        "unit_run_s": [u.run_s for u in untraced],
        "unit_setup_s": [u.setup_s for u in untraced],
        "unit_probe_s": [(u.probe_before, u.probe_after) for u in untraced],
    }
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / f"{tag}.json").write_text(json.dumps(record, indent=1) + "\n")
    if args.trace:
        (OUT_DIR / f"{tag}-spans.json").write_text(json.dumps(
            {"fields": ["name", "start", "end", "parent"],
             "units": [sink.spans for _, sink in traced]}))
    print("host " + json.dumps(host))
    print(json.dumps({
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in declared.items()},
    }))
    return 0 if ledger.failed == 0 else 1


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="1/32-size inputs, for the self-test")
    args = parser.parse_args(argv)
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"perfbench: the program under test is missing from {src}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    if hasattr(os, "sched_setaffinity"):
        # One CPU for the probe and the units alike: the two CPUs of a
        # shared host are slowed by different neighbours, so a process
        # that migrates between them breaks the probe's tracking.
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    return measure(args)


if __name__ == "__main__":
    raise SystemExit(main())
