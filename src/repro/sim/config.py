"""Simulation configuration shared by the experiment harnesses.

Each field of :class:`SimConfig` and :class:`FleetConfig` declares its
command-line surface beside its default, in ``field(metadata=...)``:
either :func:`flag` (the option that sets it; ``repro.cli`` generates
the argparse arguments and builds the config from them) or
:func:`exempt` (why it is programmatic only).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.memory.tiers import (
    CXL_LATENCY_NS,
    CXL_POOLED_LATENCY_NS,
    DDR_LATENCY_NS,
)
from repro.workloads.registry import (
    PAGES_PER_GB,
    cxl_capacity_pages,
    ddr_capacity_pages,
)

#: Registry-visible policy names.
BASELINE_POLICIES = ("none", "anb", "damon", "tpp", "pte-scan", "pebs")
M5_POLICIES = ("m5-hpt", "m5-hwt", "m5-hpt+hwt")
ALL_POLICIES = BASELINE_POLICIES + M5_POLICIES

ENGINES = ("reference", "batched")
MIGRATION_MODES = ("instant", "async")
ENOMEM_POLICIES = ("demote-first", "abort")

#: ``Flag.cli_default`` sentinel: the CLI default is the field's own.
_FIELD_DEFAULT: Any = object()


@dataclass(frozen=True)
class Flag:
    """The CLI option that sets a config field.

    A ``bool`` field becomes a switch; one defaulting to True is
    inverted (``--no-migrate`` clears ``migrate``).  ``cli_default``,
    when given, replaces the field's default on the command line only;
    ``None`` there means "unset": the field's own default applies.
    """

    option: str
    help: str
    choices: Optional[Tuple[Any, ...]] = None
    metavar: Optional[str] = None
    cli_default: Any = _FIELD_DEFAULT

    @property
    def dest(self) -> str:
        """The argparse attribute the option parses into."""
        return self.option.lstrip("-").replace("-", "_")

    def default(self, field_default: Any) -> Any:
        """The option's argparse default."""
        if self.cli_default is _FIELD_DEFAULT:
            return field_default
        return self.cli_default


@dataclass(frozen=True)
class Exempt:
    """Why a config field has no CLI option."""

    reason: str


def flag(
    option: str,
    help: str,
    *,
    choices: Optional[Tuple[Any, ...]] = None,
    metavar: Optional[str] = None,
    cli_default: Any = _FIELD_DEFAULT,
) -> Dict[str, Flag]:
    """Field metadata: ``option`` sets this field from the CLI."""
    return {"cli": Flag(option, help, choices, metavar, cli_default)}


def exempt(reason: str) -> Dict[str, Exempt]:
    """Field metadata: this field has no CLI option, for ``reason``."""
    return {"cli": Exempt(reason)}


@dataclass
class SimConfig:
    """Knobs of one simulated run.

    Attributes:
        total_accesses: DRAM accesses to simulate (the trace length).
        chunk_size: accesses per epoch (the engine's time step).
        ddr_pages / cxl_pages: tier capacities; defaults reproduce the
            paper's 3GB-DDR-cap / 8GB-CXL setup at the registry's
            scale factor.
        ddr_latency_ns / cxl_latency_ns: load-to-use latencies (the
            §7.2 pair: 100ns vs 270ns).
        mlp: memory-level parallelism — outstanding-miss overlap
            dividing the per-access stall.
        ipc: core instructions per cycle for the compute component.
        cpu_ghz: core frequency (paper: 2.1 GHz Xeon 6430).
        migrate: False runs identification-only (the §4.1 S1 mode
            where policies record hot pages but never migrate).
        migration_batch: max pages migrated per epoch.
        migration_mode: "instant" (atomic flat-cost migration, the
            default) or "async" (the transactional subsystem — see the
            ``migration_*`` knobs below).
        seed: RNG seed.
        checkpoints: number of evenly spaced measurement points at
            which access-count ratios are snapshotted (the paper
            measures at 10 random execution points).
    """

    # The CLI's trace shape (``cli_default``) is smaller than the
    # dataclass default: goldens and benchmarks build configs from the
    # dataclass defaults, so those must not move.
    total_accesses: int = field(
        default=2_000_000,
        metadata=flag("--accesses",
                      "DRAM accesses to simulate (the trace length)",
                      cli_default=1_000_000),
    )
    chunk_size: int = field(
        default=65_536,
        metadata=flag("--chunk",
                      "accesses per epoch (the engine's time step)",
                      cli_default=16_384),
    )
    #: 0 = derive from pages_per_gb.
    footprint_scale: float = field(
        default=0.0,
        metadata=exempt("derived in __post_init__ from pages_per_gb "
                        "(262144 / pages_per_gb); programmatic override "
                        "only"),
    )
    trace_subsample: float = field(
        default=16.0,
        metadata=flag("--subsample",
                      "keep 1 of this many real accesses in the model "
                      "trace", cli_default=64.0),
    )
    #: 0 = footprint_scale * trace_subsample.
    time_dilation: float = field(
        default=0.0,
        metadata=exempt("derived in __post_init__ (footprint_scale * "
                        "trace_subsample); programmatic override only"),
    )
    ddr_pages: int = field(
        default_factory=ddr_capacity_pages,
        metadata=exempt("tier capacity defaults from the workload "
                        "registry's scale factor; experiments override "
                        "programmatically"),
    )
    cxl_pages: int = field(
        default_factory=cxl_capacity_pages,
        metadata=exempt("tier capacity defaults from the workload "
                        "registry's scale factor; experiments override "
                        "programmatically"),
    )
    ddr_latency_ns: float = field(
        default=DDR_LATENCY_NS,
        metadata=exempt("paper §7.2 testbed constant (100ns); latency "
                        "studies override programmatically"),
    )
    cxl_latency_ns: float = field(
        default=CXL_LATENCY_NS,
        metadata=exempt("paper §7.2 testbed constant (270ns); latency "
                        "studies override programmatically"),
    )
    mlp: float = field(
        default=4.0,
        metadata=exempt("performance-model constant calibrated in "
                        "tools/calibrate.py"),
    )
    ipc: float = field(
        default=1.5,
        metadata=exempt("performance-model constant calibrated in "
                        "tools/calibrate.py"),
    )
    cpu_ghz: float = field(
        default=2.1,
        metadata=exempt("paper testbed constant (2.1 GHz Xeon 6430)"),
    )
    #: Per-node bandwidth ceilings in GB/s (0 = unlimited, the default
    #: latency-only model).  Table 2's DDR side is 4x DDR5-4800
    #: (~153GB/s); a CXL x16 PCIe5 link is ~64GB/s.
    ddr_bandwidth_gbps: float = field(
        default=0.0,
        metadata=exempt("§5.2 bandwidth-proportionality experiment knob; "
                        "programmatic only"),
    )
    cxl_bandwidth_gbps: float = field(
        default=0.0,
        metadata=exempt("§5.2 bandwidth-proportionality experiment knob; "
                        "programmatic only"),
    )
    migrate: bool = field(
        default=True,
        metadata=flag("--no-migrate", "identification-only mode (§4.1 S1)"),
    )
    migration_batch: int = field(
        default=512,
        metadata=exempt("per-epoch migration cap tied to the Elector's "
                        "64-page batches; programmatic only"),
    )
    migration_cost_us: float = field(
        default=54.0,
        metadata=exempt("paper's flat 54 us/page migration cost; "
                        "calibration constant"),
    )
    #: ``"instant"`` applies decisions atomically at the paper's flat
    #: 54 µs/page cost; ``"async"`` routes them through the
    #: transactional subsystem in ``repro.migration`` (bounded queue,
    #: in-flight budgets, dirty-recheck aborts, retry/backoff), with
    #: migration copy traffic charged as contention against demand
    #: traffic instead of a flat cost.
    migration_mode: str = field(
        default="instant",
        metadata=flag("--migration-mode",
                      "instant: atomic flat-cost migration; async: "
                      "transactional queue with budgets and aborts",
                      choices=MIGRATION_MODES),
    )
    #: Async mode: max page copies in flight per epoch.
    migration_inflight_budget: int = field(
        default=128,
        metadata=flag("--mig-budget",
                      "async: max page copies in flight per epoch"),
    )
    #: Async mode: bounded queue capacity (overflow drops + counts).
    migration_queue_capacity: int = field(
        default=4096,
        metadata=flag("--mig-queue-cap",
                      "async: bounded migration-queue capacity"),
    )
    #: Async mode: injected mid-copy abort probability (robustness
    #: testing hook; 0 disables injection).
    migration_abort_rate: float = field(
        default=0.0,
        metadata=flag("--mig-abort-rate",
                      "async: injected mid-copy abort probability"),
    )
    #: Async mode: aborted requests retry this many times, then drop.
    migration_max_retries: int = field(
        default=3,
        metadata=flag("--mig-max-retries",
                      "async: retries before a request is dropped"),
    )
    #: Async mode: base retry backoff; retry n waits
    #: ``backoff * 2**(n-1)`` epochs.
    migration_backoff_epochs: int = field(
        default=1,
        metadata=exempt("retry-backoff base; robustness-test knob, "
                        "programmatic only"),
    )
    #: Async mode: migration copy-engine bandwidth in GB/s (0 = only
    #: the in-flight budget throttles the queue).
    migration_copy_gbps: float = field(
        default=0.0,
        metadata=flag("--mig-copy-gbps",
                      "async: copy-engine bandwidth throttle (GB/s, "
                      "0 = budget-only)"),
    )
    #: Async mode: what a full fast tier does to a promotion —
    #: ``"demote-first"`` evicts an MGLRU victim to make room (TPP's
    #: discipline), ``"abort"`` fails the transaction with ENOMEM.
    migration_enomem_policy: str = field(
        default="demote-first",
        metadata=flag("--mig-enomem",
                      "async: full fast tier demotes a victim first or "
                      "aborts the promotion",
                      choices=ENOMEM_POLICIES),
    )
    #: Async mode: kernel CPU cost per committed page (the unmap/
    #: remap/TLB share of the 54 µs; the copy itself is charged as
    #: memory traffic).
    migration_remap_us: float = field(
        default=12.0,
        metadata=exempt("kernel unmap/remap/TLB share of the 54 us split; "
                        "calibration constant"),
    )
    #: Async mode: fraction of accesses that are stores (drives the
    #: dirty-page model behind the Nomad-style recheck).
    write_fraction: float = field(
        default=0.3,
        metadata=exempt("dirty-page model parameter; workload-dependent, "
                        "programmatic only"),
    )
    #: Async mode: fraction of an epoch's writes that land inside a
    #: transaction's copy window (the recheck races only against
    #: writes concurrent with the copy, not the whole epoch).
    dirty_window_frac: float = field(
        default=0.01,
        metadata=exempt("dirty-page model parameter; workload-dependent, "
                        "programmatic only"),
    )
    #: Fraction of migration work landing on the application's
    #: critical path.  Migration runs in kernel threads that overlap
    #: the benchmark's other instances; only TLB shootdowns, locks,
    #: and the straggler instance's own faults serialise with it.
    migration_overlap: float = field(
        default=0.3,
        metadata=exempt("critical-path overlap fraction; calibration "
                        "constant"),
    )
    #: Run the :mod:`repro.verify` invariant catalogue after every
    #: epoch (counter conservation, tier conservation, tracker/queue
    #: bounds, non-negative perf times).  Off by default: the unchecked
    #: pipeline stays bit-identical to the frozen goldens; on, a
    #: violation aborts the run with an ``InvariantViolation``.
    check_invariants: bool = field(
        default=False,
        metadata=flag("--check-invariants",
                      "run the per-epoch invariant catalogue (counter/"
                      "tier conservation, tracker/queue bounds); a "
                      "violation aborts the run"),
    )
    #: Epoch hot-path implementation: ``"batched"`` flows each chunk
    #: through vectorized array kernels end to end; ``"reference"``
    #: keeps the per-access Python loops.  Results are bit-identical
    #: (enforced by the ``engine``/``kernels`` oracles in
    #: :mod:`repro.verify`); the reference path exists for goldens,
    #: debugging, and the ``tools/bench.py engine`` speedup baseline.
    engine: str = field(
        default="batched",
        metadata=flag("--engine",
                      "epoch hot-path implementation: vectorized array "
                      "kernels (batched) or the per-access reference "
                      "loops; results are bit-identical",
                      choices=ENGINES),
    )
    #: Serve ``/metrics`` + ``/healthz`` + ``/snapshot.json`` from an
    #: in-process HTTP daemon thread while the run executes (see
    #: :mod:`repro.obs.live`).  Off by default: no thread, no socket.
    serve: bool = field(
        default=False,
        metadata=flag("--serve",
                      "serve /metrics, /healthz and /snapshot.json over "
                      "HTTP while the run, sweep or fleet is in flight"),
    )
    #: TCP port for ``serve`` (0 binds an ephemeral port, printed at
    #: startup).
    serve_port: int = field(
        default=0,
        metadata=flag("--serve-port",
                      "live-endpoint port (0 = ephemeral; the bound URL "
                      "is printed at startup)", metavar="PORT"),
    )
    #: Metric families the per-epoch ring recorder samples: empty
    #: disables the recorder stage entirely (the seed pipeline),
    #: ``"default"`` selects the curated low-cost set, ``"all"`` every
    #: family, or a comma-separated list of family names.
    record_series: str = field(
        default="",
        metadata=flag("--record-series",
                      "per-epoch time-series recorder: 'default', 'all', "
                      "or comma-separated metric families",
                      metavar="SPEC", cli_default=None),
    )
    #: Ring capacity of the recorder, in epochs (rows); memory is
    #: bounded at ``record_epochs * 8`` bytes per recorded column.
    record_epochs: int = field(
        default=4096,
        metadata=flag("--record-epochs",
                      "recorder ring capacity in epochs (oldest rows are "
                      "overwritten beyond it)", metavar="N"),
    )
    #: SLO watchdog rules: empty disables the watchdog, ``"default"``
    #: loads the built-in catalogue (queue saturation, epoch-duration
    #: p99, invariant violations, bandwidth starvation), else a path
    #: to a JSON rule file (see :mod:`repro.obs.slo`).
    slo_rules: str = field(
        default="",
        metadata=flag("--slo-rules",
                      "SLO watchdog: 'default' or a JSON rule file; "
                      "breaches raise alert.* telemetry and the "
                      "slo_breaches_total counter",
                      metavar="SPEC", cli_default=None),
    )
    #: Persist the full simulation state every this many epochs
    #: (0 disables checkpointing entirely — the seed pipeline).
    #: Resuming from a checkpoint reproduces the uninterrupted run
    #: bit-identically (the ``resume`` oracle in :mod:`repro.verify`).
    checkpoint_every: int = field(
        default=0,
        metadata=flag("--checkpoint-every",
                      "checkpoint cadence in epochs (0 disables; "
                      "requires --checkpoint)", metavar="K"),
    )
    #: Destination file for periodic checkpoints (atomically replaced
    #: on every write).  Required when ``checkpoint_every > 0``.
    checkpoint_path: str = field(
        default="",
        metadata=flag("--checkpoint",
                      "persist the full run state to FILE (atomically "
                      "replaced) every --checkpoint-every epochs",
                      metavar="FILE", cli_default=None),
    )
    # CLI runs default to seed 1; goldens and benchmarks keep the
    # dataclass default 0.
    seed: int = field(
        default=0,
        metadata=flag("--seed",
                      "RNG seed of the workload trace and the async "
                      "dirty-page model", cli_default=1),
    )
    checkpoints: int = field(
        default=10,
        metadata=flag("--checkpoints",
                      "evenly spaced points at which the access-count "
                      "ratio is measured"),
    )
    pages_per_gb: int = field(
        default=PAGES_PER_GB,
        metadata=exempt("scale factor owned by the workload registry; "
                        "programmatic only"),
    )

    def __post_init__(self) -> None:
        if self.total_accesses <= 0 or self.chunk_size <= 0:
            raise ValueError("trace sizes must be positive")
        if self.mlp <= 0 or self.ipc <= 0 or self.cpu_ghz <= 0:
            raise ValueError("performance parameters must be positive")
        if self.checkpoints < 1:
            raise ValueError("need at least one checkpoint")
        if self.time_dilation < 0 or self.footprint_scale < 0:
            raise ValueError("scale factors must be non-negative")
        if self.trace_subsample < 1:
            raise ValueError("trace_subsample must be >= 1")
        if self.migration_mode not in MIGRATION_MODES:
            raise ValueError(
                f"migration_mode must be 'instant' or 'async', "
                f"got {self.migration_mode!r}"
            )
        if self.migration_enomem_policy not in ENOMEM_POLICIES:
            raise ValueError(
                "migration_enomem_policy must be 'demote-first' or 'abort'"
            )
        if self.engine not in ENGINES:
            raise ValueError(
                f"engine must be 'reference' or 'batched', got {self.engine!r}"
            )
        if self.migration_inflight_budget < 1:
            raise ValueError("migration_inflight_budget must be positive")
        if not 0.0 <= self.migration_abort_rate <= 1.0:
            raise ValueError("migration_abort_rate must be in [0, 1]")
        if not 0.0 <= self.write_fraction <= 1.0:
            raise ValueError("write_fraction must be in [0, 1]")
        if not 0.0 <= self.dirty_window_frac <= 1.0:
            raise ValueError("dirty_window_frac must be in [0, 1]")
        if not 0 <= self.serve_port <= 65535:
            raise ValueError("serve_port must be a TCP port (0-65535)")
        if self.record_epochs < 1:
            raise ValueError("record_epochs must be positive")
        if self.checkpoint_every < 0:
            raise ValueError("checkpoint_every must be non-negative")
        if self.checkpoint_every > 0 and not self.checkpoint_path:
            raise ValueError(
                "checkpoint_every > 0 requires a checkpoint_path"
            )
        # Two scale-down factors relate the model to the real system:
        #
        # * footprint_scale — each model page groups this many real
        #   4KB pages (real pages per GB = 262144 vs the registry's
        #   scaled pages_per_gb), and carries their combined accesses;
        # * trace_subsample — the model trace keeps 1 of this many
        #   real accesses (systematic time sampling).
        #
        # time_dilation = footprint_scale * trace_subsample: each model
        # access stands for that many real accesses, so dilating time
        # by it preserves real wall-clock — every policy keeps its
        # real-world cadence (ANB scan periods, DAMON intervals,
        # Elector periods) and real per-event CPU costs.
        if self.footprint_scale == 0:
            self.footprint_scale = 262144 / self.pages_per_gb
        if self.time_dilation == 0:
            self.time_dilation = self.footprint_scale * self.trace_subsample

    @property
    def num_epochs(self) -> int:
        return -(-self.total_accesses // self.chunk_size)


@dataclass
class FleetConfig:
    """Knobs of one multi-tenant fleet run (see ``docs/fleet.md``).

    A fleet runs ``tenants`` independent workloads in lockstep epochs
    on a shared tier hierarchy: each tenant gets a weighted capacity
    share of every tier (carved into a private physical-address
    window), and the tiers' channel bandwidth is arbitrated each
    epoch by the QoS model in :mod:`repro.sim.perf`.  Per-run engine
    knobs (trace length, engine, seed, bandwidth ceilings, ...) stay
    on :class:`SimConfig`; this object holds only the fleet shape.

    Attributes:
        tenants: number of co-located workloads.
        tiers: tier hierarchy depth — 2 (DDR + CXL) or 3 (DDR + CXL +
            pooled CXL behind a switch).
        bench: comma-separated benchmark names, assigned round-robin
            over tenants.
        policy: page-migration policy every tenant runs.
        weights: comma-separated per-tenant QoS weights (empty =
            equal); cycled over tenants like ``bench``.
        qos: True arbitrates bandwidth by weighted max-min fairness;
            False degrades to proportional sharing (every tenant slows
            by the same factor when the channel saturates).
        pooled_capacity_gb: size of the shared pooled tier (3-tier
            fleets only).
        pooled_latency_ns: load-to-use latency of the pooled tier.
        pooled_bandwidth_gbps: pooled channel ceiling (0 = unlimited).
        chain_headroom_frac: fraction of each tenant's CXL share the
            demotion chain keeps free by demoting cold pages to the
            pooled tier (the DRAM→CXL→pooled chain's middle link).
        chain_pull_budget: max pooled pages pulled back up to CXL per
            tenant-epoch when they are re-accessed (0 disables
            pull-ups).
    """

    tenants: int = field(
        default=3,
        metadata=flag("--tenants",
                      "co-located workloads sharing the hierarchy"),
    )
    tiers: int = field(
        default=3,
        metadata=flag("--tiers",
                      "tier depth: 2 (DDR+CXL) or 3 (+pooled CXL)",
                      choices=(2, 3)),
    )
    bench: str = field(
        default="mcf",
        metadata=flag("--bench",
                      "comma-separated benchmarks, assigned round-robin "
                      "over tenants"),
    )
    policy: str = field(
        default="m5-hpt",
        metadata=flag("--policy",
                      "page-migration policy every tenant runs",
                      choices=ALL_POLICIES),
    )
    weights: str = field(
        default="",
        metadata=flag("--weights",
                      "comma-separated per-tenant QoS weights (empty = "
                      "equal; cycled like --bench)"),
    )
    qos: bool = field(
        default=True,
        metadata=flag("--no-qos",
                      "proportional bandwidth sharing instead of weighted "
                      "max-min fairness"),
    )
    pooled_capacity_gb: float = field(
        default=16.0,
        metadata=flag("--pooled-gb",
                      "pooled-tier capacity in GB (3-tier fleets)"),
    )
    pooled_latency_ns: float = field(
        default=CXL_POOLED_LATENCY_NS,
        metadata=exempt("pooled-tier load-to-use latency constant (600ns, "
                        "switch-attached CXL); latency studies override "
                        "programmatically"),
    )
    pooled_bandwidth_gbps: float = field(
        default=0.0,
        metadata=exempt("pooled channel ceiling for bandwidth-contention "
                        "experiments; programmatic only like the "
                        "SimConfig bandwidth knobs"),
    )
    chain_headroom_frac: float = field(
        default=0.02,
        metadata=flag("--chain-headroom",
                      "fraction of each tenant's CXL share the demotion "
                      "chain keeps free"),
    )
    chain_pull_budget: int = field(
        default=64,
        metadata=flag("--chain-pull-budget",
                      "max pooled pages pulled back to CXL per "
                      "tenant-epoch (0 disables pull-ups)"),
    )

    def __post_init__(self) -> None:
        if self.tenants < 1:
            raise ValueError("a fleet needs at least one tenant")
        if self.tiers not in (2, 3):
            raise ValueError("tiers must be 2 (DDR+CXL) or 3 (+pooled)")
        if not self.bench.strip():
            raise ValueError("bench must name at least one benchmark")
        if self.pooled_capacity_gb <= 0 and self.tiers == 3:
            raise ValueError("pooled_capacity_gb must be positive")
        if self.pooled_latency_ns <= 0:
            raise ValueError("pooled_latency_ns must be positive")
        if not 0.0 <= self.chain_headroom_frac < 1.0:
            raise ValueError("chain_headroom_frac must be in [0, 1)")
        if self.chain_pull_budget < 0:
            raise ValueError("chain_pull_budget must be non-negative")
        self.weight_list()  # validate eagerly

    def bench_list(self) -> List[str]:
        """Per-tenant benchmark names (round-robin over ``bench``)."""
        names = [b.strip() for b in self.bench.split(",") if b.strip()]
        return [names[t % len(names)] for t in range(self.tenants)]

    def weight_list(self) -> List[float]:
        """Per-tenant QoS weights (round-robin; empty = all 1.0)."""
        raw = [w.strip() for w in self.weights.split(",") if w.strip()]
        if not raw:
            return [1.0] * self.tenants
        vals = [float(w) for w in raw]
        if any(v <= 0 for v in vals):
            raise ValueError("tenant weights must be positive")
        return [vals[t % len(vals)] for t in range(self.tenants)]
