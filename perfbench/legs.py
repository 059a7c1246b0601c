"""The benchmark's three workloads: ``run-m5``, ``fleet-damon`` and
``serve-ckpt``.

Each workload builds one *unit* of work from its seed: set up the
system (timed as ``setup_s``), run it to the end of its input (timed
for ``accesses_per_s``), and hand back one digest of the simulated
result per operation.  An operation is a run, a tenant or a stream;
it is what ``error_rate`` counts.  Simulated output is deterministic
for a fixed seed, so every unit of a workload must reproduce the same
digests exactly.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
from dataclasses import replace
from pathlib import Path
from typing import Any, Dict, List, Optional

from repro.fleet.sim import FleetSimulation
from repro.memory.address import PAGE_SHIFT, WORD_SHIFT
from repro.service.daemon import Service, ServiceConfig, StreamSpec
from repro.sim.config import FleetConfig, SimConfig
from repro.sim.engine import RunResult, Simulation
from repro.workloads import record, registry

from spans import SpanSink, TimedCall, instrument_sim

#: Accesses per epoch for every workload.
CHUNK = 16_384
#: Epochs in the batched-vs-reference engine prefix check.
PREFIX_EPOCHS = 3


def trace_length(epochs: int, scale: float) -> int:
    """Accesses in ``epochs`` full epochs, scaled down for the
    self-test but never below 4 epochs."""
    return max(4, int(epochs * scale)) * CHUNK


#: RunResult fields compared for engine bit-identity (the set
#: ``tools/bench_engine.py`` compares), plus hot_pfns and the ratio
#: checkpoints.
IDENTITY_FIELDS = (
    "execution_time_s",
    "app_time_s",
    "overhead_time_s",
    "migration_time_s",
    "p99_latency_us",
    "promoted",
    "demoted",
    "nr_pages_ddr",
    "nr_pages_cxl",
    "hot_pfns",
    "ratio_checkpoints",
)


def digest_run(result: RunResult, *extra: Any) -> str:
    """A hash of everything one run simulated (host time excluded)."""
    body = repr((
        [getattr(result, f) for f in IDENTITY_FIELDS],
        sorted(result.overhead_events.items()),
        sorted(result.extra.items()),
        result.timeline,
        extra,
    ))
    return hashlib.sha256(body.encode()).hexdigest()


def engines_agree(ref: RunResult, fast: RunResult) -> bool:
    return all(getattr(ref, f) == getattr(fast, f) for f in IDENTITY_FIELDS)


def _migration_counts(sims: List[Simulation]) -> Dict[str, float]:
    engines = [s.async_engine for s in sims if s.async_engine is not None]
    # ``tick`` is the traced run's TimedTick wrapper.
    attempted = sum(e.tick.attempted for e in engines)
    committed = sum(e.stats.committed for e in engines)
    return {
        "migration.attempted": attempted,
        "migration.committed": committed,
        "migration.aborted": sum(e.stats.aborted for e in engines),
        "migration.commit_ratio": committed / attempted if attempted else 0.0,
    }


def _engine_counts(sims: List[Simulation], sink: SpanSink) -> Dict[str, float]:
    managers = [s._manager for s in sims if s._manager is not None]
    return {
        "cxl.requests": sum(s.controller.requests_served for s in sims),
        "cxl.unique_pages": sink.unique_keys.get(PAGE_SHIFT, 0),
        "cxl.unique_words": sink.unique_keys.get(WORD_SHIFT, 0),
        "core.nominated": sum(len(m.nominated_history) for m in managers),
        "core.promoted": sum(s.engine.stats.promoted for s in sims
                             if s._manager is not None),
        **_migration_counts(sims),
    }


class RunM5:
    """``repro run``: one ``Simulation`` of mcf under m5-hpt+hwt with
    the WAC attached, instant migration and the batched engine."""

    name = "run-m5"
    root = "sim.run"
    ops_per_unit = 1

    def __init__(self, seed: int, workdir: Path, scale: float) -> None:
        self.seed = seed
        self.config = SimConfig(
            total_accesses=trace_length(122, scale),
            chunk_size=CHUNK,
            trace_subsample=64.0,
            checkpoints=1,
            seed=seed,
        )
        self.accesses = self.config.total_accesses

    def prepare(self) -> None:
        pass

    def setup(self, config: Optional[SimConfig] = None) -> Simulation:
        return Simulation(
            registry.build("mcf", seed=self.seed),
            config or self.config,
            policy="m5-hpt+hwt",
            enable_wac=True,
        )

    def run(self, sim: Simulation) -> RunResult:
        return sim.run()

    def instrument(self, sim: Simulation, sink: SpanSink) -> None:
        instrument_sim(sim, sink)

    def digests(self, sim: Simulation, result: RunResult) -> List[str]:
        return [digest_run(result)]

    def checks(self, sim: Simulation, result: RunResult) -> List[bool]:
        return [True]

    def counts(self, sim: Simulation, result: RunResult,
               sink: SpanSink) -> Dict[str, float]:
        return _engine_counts([sim], sink)

    def prefix_check(self) -> List[bool]:
        """Batched and reference engines agree on a short prefix run
        with the invariant checker on."""
        runs = [
            self.setup(replace(self.config, engine=engine,
                               total_accesses=PREFIX_EPOCHS * CHUNK,
                               check_invariants=True)).run()
            for engine in ("reference", "batched")
        ]
        return [engines_agree(*runs)]


class FleetDamon:
    """``repro fleet``: a lockstep fleet of 4 tenants over 3 tiers
    under DAMON with async migration, bandwidth-bound on every tier."""

    name = "fleet-damon"
    root = "fleet.run"
    ops_per_unit = 4

    def __init__(self, seed: int, workdir: Path, scale: float) -> None:
        self.fleet = FleetConfig(
            tenants=4,
            tiers=3,
            bench="mcf,redis,roms,liblinear",
            policy="damon",
            pooled_bandwidth_gbps=1.0,
        )
        self.config = SimConfig(
            total_accesses=trace_length(18, scale),
            chunk_size=CHUNK,
            migration_mode="async",
            ddr_bandwidth_gbps=4.0,
            cxl_bandwidth_gbps=2.0,
            seed=seed,
        )
        self.accesses = self.fleet.tenants * self.config.total_accesses

    def prepare(self) -> None:
        pass

    def setup(self, config: Optional[SimConfig] = None) -> FleetSimulation:
        return FleetSimulation(self.fleet, config or self.config)

    def run(self, fleet: FleetSimulation) -> Any:
        return fleet.run()

    def instrument(self, fleet: FleetSimulation, sink: SpanSink) -> None:
        for sim, chain in zip(fleet.sims, fleet.chains):
            instrument_sim(sim, sink)
            TimedCall(chain, "run_epoch", "fleet.chain", sink)

    def digests(self, fleet: FleetSimulation, result: Any) -> List[str]:
        return [
            digest_run(t.result, t.slowdown_vs_isolated,
                       sorted(t.bandwidth_share.items()),
                       sorted(t.chain.items()))
            for t in result.results
        ]

    def checks(self, fleet: FleetSimulation, result: Any) -> List[bool]:
        return [True] * len(result.results)

    def counts(self, fleet: FleetSimulation, result: Any,
               sink: SpanSink) -> Dict[str, float]:
        chains = [t.chain for t in result.results]
        return {
            **_engine_counts(fleet.sims, sink),
            "fleet.chain_pages": sum(c["demoted_to_pooled"]
                                     + c["pulled_from_pooled"] for c in chains),
            "fleet.max_slowdown": max(t.slowdown_vs_isolated
                                      for t in result.results),
        }

    def prefix_check(self) -> List[bool]:
        """Per tenant: batched and reference engines agree on a short
        prefix fleet run with the invariant checker on."""
        runs = [
            self.setup(replace(self.config, engine=engine,
                               total_accesses=PREFIX_EPOCHS * CHUNK,
                               check_invariants=True)).run()
            for engine in ("reference", "batched")
        ]
        return [engines_agree(ref.result, fast.result)
                for ref, fast in zip(runs[0].results, runs[1].results)]


class ServeCkpt:
    """``repro serve``: a ``Service`` draining two sealed v2 trace
    streams as a closed loop with no pacing, checkpointing every few
    scheduler rounds."""

    name = "serve-ckpt"
    root = "service.run"
    ops_per_unit = 2
    #: (stream, bench, policy) of each stream.
    STREAMS = (("alpha", "mcf", "m5-hpt"), ("beta", "redis", "anb"))
    BUDGET = 4 * CHUNK

    def __init__(self, seed: int, workdir: Path, scale: float) -> None:
        self.seed = seed
        self.workdir = workdir
        self.length = trace_length(91, scale)
        self.accesses = len(self.STREAMS) * self.length
        # About four checkpoint sets per unit, whatever the scale.
        rounds = -(-self.length // self.BUDGET)
        self.checkpoint_every = max(1, rounds // 4)
        self.sim_config = SimConfig(chunk_size=CHUNK, seed=seed)
        self.ckpt_dir = workdir / "ckpt"
        self.specs = [
            StreamSpec(name, str(workdir / f"{name}.rtrace"), policy,
                       self.BUDGET)
            for name, _, policy in self.STREAMS
        ]

    def prepare(self) -> None:
        """Record the seed's trace files; not part of any timing."""
        self.workdir.mkdir(parents=True, exist_ok=True)
        for (name, bench, _), spec in zip(self.STREAMS, self.specs):
            record(registry.build(bench, seed=self.seed), self.length,
                   spec.trace, chunk_size=CHUNK)

    def setup(self) -> Service:
        shutil.rmtree(self.ckpt_dir, ignore_errors=True)
        return Service(
            self.specs,
            self.sim_config,
            ServiceConfig(checkpoint_every=self.checkpoint_every,
                          checkpoint_dir=str(self.ckpt_dir),
                          poll_interval_s=0.0),
        )

    def run(self, svc: Service) -> Dict[str, RunResult]:
        try:
            return svc.run()
        finally:
            svc.close()

    def instrument(self, svc: Service, sink: SpanSink) -> None:
        for stream in svc.streams:
            instrument_sim(stream.sim, sink)
            TimedCall(stream, "ingest", "service.ingest", sink)
            TimedCall(stream, "drive", "service.drive", sink)
            TimedCall(stream.source, "read_next", "workloads.decode", sink)
        TimedCheckpoint(svc, sink)

    def digests(self, svc: Service, results: Dict[str, RunResult]) -> List[str]:
        return [digest_run(results[name]) if name in results else ""
                for name, _, _ in self.STREAMS]

    def checks(self, svc: Service, results: Dict[str, RunResult]) -> List[bool]:
        """Each stream drained, consumed exactly its trace, and is named
        in the final manifest."""
        manifest = json.loads((self.ckpt_dir / "manifest.json").read_text())
        named = {entry["spec"]["name"] for entry in manifest["streams"]}
        return [
            stream.name in results
            and stream.drained
            and stream.workload.consumed_total == self.length
            and stream.name in named
            for stream in svc.streams
        ]

    def counts(self, svc: Service, results: Dict[str, RunResult],
               sink: SpanSink) -> Dict[str, float]:
        sims = [stream.sim for stream in svc.streams]
        return {
            **_engine_counts(sims, sink),
            "service.rounds": svc.round,
            "service.checkpoints": svc.checkpoints_written,
            "service.checkpoint_bytes": svc.checkpoint.bytes_written,
            "workloads.decoded_bytes": sum(
                stream.workload.fed_total * 8 for stream in svc.streams),
        }

    def prefix_check(self) -> List[bool]:
        return []


class TimedCheckpoint(TimedCall):
    """``Service.checkpoint``, also summing the bytes each checkpoint
    set leaves on disk (manifest, results, live streams' states)."""

    def __init__(self, svc: Service, sink: SpanSink) -> None:
        super().__init__(svc, "checkpoint", "service.checkpoint", sink)
        self.bytes_written = 0

    def __call__(self, *args: Any, **kwargs: Any) -> Path:
        manifest_path = super().__call__(*args, **kwargs)
        ckpt_dir = manifest_path.parent
        names = ["manifest.json", "results.pkl"] + [
            entry["checkpoint"]
            for entry in json.loads(manifest_path.read_text())["streams"]
            if not entry["finished"]
        ]
        self.bytes_written += sum(os.path.getsize(ckpt_dir / n) for n in names)
        return manifest_path


WORKLOADS = {cls.name: cls for cls in (RunM5, FleetDamon, ServeCkpt)}
