"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``list`` — the benchmark registry (Table 3 + Figure 4 extras);
* ``run`` — one benchmark under one policy, with a summary (pass
  ``--timeline FILE`` for an epoch-resolution JSONL trace,
  ``--metrics FILE`` for a Prometheus/JSON metrics snapshot,
  ``--trace FILE`` for a chrome://tracing span file + flame table);
* ``compare`` — several policies on one benchmark, normalised to the
  no-migration baseline;
* ``sweep`` — a benchmark × policy matrix, parallelised across
  worker processes with ``--jobs`` (``--metrics FILE`` collects every
  cell's metrics snapshot);
* ``fleet`` — N tenants co-located on a shared 2- or 3-tier hierarchy
  with QoS bandwidth arbitration and DRAM→CXL→pooled demotion chains,
  stepped in lockstep;
* ``metrics`` — pretty-print one metrics snapshot, or diff two;
* ``profile`` — PAC/WAC offline profile (page heat + word sparsity);
* ``verify`` — the seven differential oracle pairs (exact vs batched
  sketch, PAC cache vs direct mode, instant vs async-unlimited
  migration, reference vs batched engine, per-access vs vectorized
  kernels, 1-tenant fleet vs single run, uninterrupted vs resumed run)
  with per-field drift tolerances; non-zero exit on any drift;
* ``hwcost`` — the Table 4 tracker cost model.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import functools
import inspect
import json
import time
import typing
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.analysis import (
    AccessCdf,
    from_wac,
    migration_outcome_totals,
    print_table,
)
from repro.core import hwcost
from repro.obs import (
    MetricsRegistry,
    ObsServer,
    Observability,
    diff_snapshots,
    load_metrics_file,
    merged_chrome_trace,
    write_chrome_trace,
)
from repro.sim import (
    ALL_POLICIES,
    CheckpointError,
    FleetConfig,
    JsonlSink,
    SimConfig,
    Simulation,
    TelemetryBus,
    collect_matrix,
    matrix_means,
    normalized,
)
from repro.sim.config import Flag
from repro.workloads import registry


#: The config fields each subcommand exposes as flags, in ``--help``
#: order.  Option, help and CLI default live on the field itself (see
#: ``repro.sim.config.flag``).
TRACE_FIELDS = ("total_accesses", "chunk_size", "trace_subsample", "seed",
                "engine")
MIGRATION_FIELDS = (
    "migration_mode", "migration_inflight_budget",
    "migration_queue_capacity", "migration_abort_rate",
    "migration_max_retries", "migration_copy_gbps",
    "migration_enomem_policy",
)
LIVE_FIELDS = ("serve", "serve_port")
RECORD_FIELDS = ("record_series", "record_epochs", "slo_rules")
RUN_FIELDS = (TRACE_FIELDS + MIGRATION_FIELDS + LIVE_FIELDS + RECORD_FIELDS
              + ("migrate", "check_invariants", "checkpoints",
                 "checkpoint_path", "checkpoint_every"))
COMPARE_FIELDS = TRACE_FIELDS + MIGRATION_FIELDS
SWEEP_FIELDS = TRACE_FIELDS + ("migrate",) + MIGRATION_FIELDS + LIVE_FIELDS
FLEET_SIM_FIELDS = (TRACE_FIELDS + ("check_invariants",) + LIVE_FIELDS
                    + RECORD_FIELDS)
FLEET_FIELDS = ("tenants", "tiers", "bench", "policy", "weights", "qos",
                "pooled_capacity_gb", "chain_headroom_frac",
                "chain_pull_budget")


def _cli_fields(cls) -> Dict[str, Tuple[dataclasses.Field, Flag]]:
    """``cls``'s flagged fields: name -> (field, its :class:`Flag`)."""
    return {
        f.name: (f, f.metadata["cli"])
        for f in dataclasses.fields(cls)
        if isinstance(f.metadata.get("cli"), Flag)
    }


def add_config_args(parser: argparse.ArgumentParser, cls,
                    names: Sequence[str]) -> None:
    """Add the flags of ``cls``'s fields ``names`` to ``parser``."""
    flagged = _cli_fields(cls)
    hints = typing.get_type_hints(cls)
    for name in names:
        f, meta = flagged[name]
        if hints[name] is bool:
            parser.add_argument(meta.option, action="store_true",
                                help=meta.help)
            continue
        parser.add_argument(
            meta.option,
            type=None if hints[name] is str else hints[name],
            default=meta.default(f.default),
            choices=meta.choices,
            metavar=meta.metavar,
            help=meta.help,
        )


def _config_kwargs(args: argparse.Namespace, cls) -> Dict[str, Any]:
    """The ``cls`` field values set by the flags parsed into ``args``."""
    parsed = vars(args)
    kwargs = {}
    for name, (f, meta) in _cli_fields(cls).items():
        value = parsed.get(meta.dest)
        if value is None:
            continue  # flag absent on this subcommand, or left unset
        # A switch on a True-default field inverts it (--no-migrate).
        kwargs[name] = (not value) if f.default is True else value
    return kwargs


def _checked(build):
    """``build()``; a value ``__post_init__`` rejects is a usage error."""
    try:
        return build()
    except ValueError as exc:
        print(f"error: {exc}")
        raise SystemExit(2) from None


def config_from(args: argparse.Namespace, cls, **fixed):
    """Build ``cls`` from the flags in ``args``; ``fixed`` pins fields.

    A value the config rejects prints ``error: ...`` and exits 2.
    """
    return _checked(functools.partial(cls, **_config_kwargs(args, cls),
                                      **fixed))


def cmd_list(args) -> int:
    rows = []
    for name in registry.names():
        spec = registry.spec_of(name)
        rows.append(
            [name, spec.paper_footprint_gb, spec.footprint_pages, spec.cores,
             "p99" if spec.latency_sensitive else "time", spec.description]
        )
    print_table(
        "Registered benchmarks",
        ["name", "GB", "pages", "cores", "metric", "description"],
        rows,
        precision=1,
        col_width=12,
    )
    return 0


def _write_metrics_snapshot(path: str, obs: Observability) -> None:
    """Write the registry snapshot: JSON for ``*.json``, else the
    Prometheus text exposition format."""
    if path.endswith(".json"):
        with open(path, "w") as fh:
            json.dump(obs.snapshot(), fh, indent=2)
    else:
        with open(path, "w") as fh:
            fh.write(obs.prometheus())


def _print_flame_table(obs: Observability) -> None:
    rows = [
        [r["name"], int(r["count"]), r["total_s"], r["self_s"],
         r["total_sim_s"]]
        for r in obs.flame_table()
    ]
    if not rows:
        return
    print_table(
        "flame table: wall-clock (and simulated time) per span",
        ["span", "count", "total_s", "self_s", "sim_s"],
        rows,
        precision=4,
        col_width=14,
    )
    coverage = obs.tracer.coverage()
    print(f"stage coverage: {coverage * 100.0:.1f}% of the run span's "
          "wall-clock is inside per-stage spans")


def _print_slo_summary(watchdog) -> None:
    if watchdog is None:
        return
    if watchdog.breaches_total == 0:
        print(f"slo           : all {len(watchdog.rules)} rules green")
        return
    per_rule = ", ".join(
        f"{name}={total:.0f}"
        for name, total in watchdog.breaches_by_rule().items()
        if total > 0
    )
    print(f"slo           : {watchdog.breaches_total} breaches ({per_rule})")


def _export_recorder(path: str, recorder) -> None:
    """Write the per-epoch series (CSV for ``*.csv``, else JSONL)."""
    if path.endswith(".csv"):
        rows = recorder.to_csv(path)
    else:
        rows = recorder.to_jsonl(path)
    print(f"per-epoch series written to {path} "
          f"({rows} rows x {len(recorder.columns())} columns)")


def cmd_run(args) -> int:
    # Built on both paths: the live endpoint belongs to this process,
    # so --serve/--serve-port apply to a resumed run too.
    config = config_from(args, SimConfig)
    resume = args.resume
    if resume:
        # The checkpoint carries the whole run: workload, config,
        # policy, telemetry bus (a path-backed JsonlSink reopens in
        # append mode), metrics registry.  Run-shape flags are
        # ignored; --serve still works against the restored registry.
        try:
            sim = Simulation.load_state(resume)
        except (OSError, CheckpointError) as exc:
            print(f"cannot resume from {resume}: {exc}")
            return 2
        print(f"resuming from {resume} "
              f"(benchmark {sim.workload.spec.name!r}, "
              f"policy {sim.policy_name!r}, after epoch {sim.resumed_epoch})")
        telemetry = None
        obs = sim.obs if sim.obs.enabled else None
    else:
        if not args.bench:
            print("error: --bench is required (unless resuming with "
                  "--resume)")
            return 2
        workload = registry.build(args.bench, seed=config.seed)
        telemetry = None
        if args.timeline:
            try:
                with open(args.timeline, "w"):  # fail fast on a bad path
                    pass
            except OSError as exc:
                print(f"cannot write timeline file: {exc}")
                return 2
            telemetry = TelemetryBus([JsonlSink(args.timeline)])
        live = bool(config.serve or config.record_series or config.slo_rules)
        obs = None
        if args.metrics or args.trace or live:
            obs = Observability(metrics=bool(args.metrics) or live,
                                tracing=bool(args.trace))
        sim = Simulation(
            workload, config, policy=args.policy,
            telemetry=telemetry, obs=obs,
        )
    # LIFO shutdown: the server (entered last) closes before the bus,
    # so a late scrape never races a half-flushed telemetry file —
    # and both close even if the run raises mid-flight.
    with contextlib.ExitStack() as stack:
        if telemetry is not None:
            stack.enter_context(telemetry)
        if config.serve and obs is not None:
            server = stack.enter_context(
                ObsServer(obs.registry, port=config.serve_port)
            )
            print(f"live metrics  : {server.url}/metrics  "
                  "(also /healthz, /snapshot.json)", flush=True)
        result = sim.run()
        if resume and sim.telemetry.active:
            sim.telemetry.close()  # flush the reopened JSONL sink
        if config.serve and obs is not None and args.serve_linger > 0:
            print(f"run finished; serving final snapshot for "
                  f"{args.serve_linger:g}s", flush=True)
            time.sleep(args.serve_linger)
    if telemetry is not None:
        print(f"epoch timeline written to {args.timeline} "
              f"({len(result.timeline)} events)")
    if result.timeline_dropped:
        print(f"timeline ring : overflowed; {result.timeline_dropped} "
              "oldest events dropped (timeline is the tail of the run)")
    if args.metrics:
        if obs is not None and obs.metrics_on:
            _write_metrics_snapshot(args.metrics, obs)
            print(f"metrics snapshot written to {args.metrics}")
        else:
            print("--metrics ignored: the resumed checkpoint was taken "
                  "without a metrics registry")
    if sim.recorder is not None:
        rec = sim.recorder
        print(f"recorded      : {rec.rows} epochs x "
              f"{len(rec.columns())} series "
              f"({rec.memory_bytes / 1024.0:.0f} KiB ring"
              + (f", {rec.dropped} oldest rows overwritten"
                 if rec.dropped else "")
              + ")")
        if args.record_out:
            _export_recorder(args.record_out, rec)
    _print_slo_summary(sim.watchdog)
    if args.trace:
        n_events = write_chrome_trace(args.trace, obs.tracer.spans)
        print(f"chrome trace written to {args.trace} "
              f"({n_events} span events; load in chrome://tracing)")
        _print_flame_table(obs)
    print(f"benchmark     : {result.benchmark}")
    print(f"policy        : {result.policy}")
    print(f"execution time: {result.execution_time_s:.2f} s "
          f"(app {result.app_time_s:.2f}, overhead "
          f"{result.overhead_time_s:.3f}, migration "
          f"{result.migration_time_s:.3f})")
    if result.p99_latency_us is not None:
        print(f"p99 latency   : {result.p99_latency_us:.2f} us")
    print(f"promoted      : {result.promoted}  demoted: {result.demoted}")
    print(f"DDR/CXL pages : {result.nr_pages_ddr} / {result.nr_pages_cxl}")
    if sim.config.checkpoint_every > 0:
        print(f"checkpoints   : {sim.checkpoints_written} written "
              f"(every {sim.config.checkpoint_every} epochs -> "
              f"{sim.config.checkpoint_path})")
    if result.access_count_ratio is not None:
        print(f"access-count ratio: {result.access_count_ratio:.3f}")
    if sim.config.check_invariants:
        checks = result.extra.get("invariant_checks", 0.0)
        violations = result.extra.get("invariant_violations", 0.0)
        print(f"invariants    : {checks:.0f} checks, "
              f"{violations:.0f} violations")
    if sim.config.migration_mode == "async":
        ex = result.extra
        print(f"async queue   : enqueued {ex.get('mig_enqueued', 0):.0f}, "
              f"committed {ex.get('mig_committed', 0):.0f}, "
              f"aborted {ex.get('mig_aborted', 0):.0f} "
              f"(dirty {ex.get('mig_aborted_dirty', 0):.0f} / "
              f"injected {ex.get('mig_aborted_injected', 0):.0f} / "
              f"enomem {ex.get('mig_aborted_enomem', 0):.0f}), "
              f"retried {ex.get('mig_retries', 0):.0f}, "
              f"dropped {ex.get('mig_dropped_retries', 0):.0f}, "
              f"pending {ex.get('mig_pending', 0):.0f}")
        totals = migration_outcome_totals(result.timeline)
        if totals["epochs_active"]:
            print(f"queue timeline: active in {totals['epochs_active']:.0f} "
                  f"epochs, peak pending {totals['peak_pending']:.0f}, "
                  f"commit/abort ratio "
                  f"{totals['committed']:.0f}/{totals['aborted']:.0f}")
    return 0


def _parse_stream_spec(text: str):
    """``NAME=TRACE[,policy=P][,budget=N]`` → :class:`StreamSpec`."""
    from repro.service import StreamSpec

    if "=" not in text:
        raise ValueError(
            f"stream spec {text!r} must look like NAME=TRACE"
            "[,policy=P][,budget=N]"
        )
    name, rest = text.split("=", 1)
    parts = rest.split(",")
    kwargs = {}
    for part in parts[1:]:
        if "=" not in part:
            raise ValueError(f"bad stream option {part!r} in {text!r}")
        key, value = part.split("=", 1)
        if key == "policy":
            if value not in ALL_POLICIES:
                raise ValueError(f"unknown policy {value!r} in {text!r}")
            kwargs["policy"] = value
        elif key == "budget":
            kwargs["budget"] = int(value)
        else:
            raise ValueError(
                f"unknown stream option {key!r} in {text!r} "
                "(known: policy, budget)"
            )
    return StreamSpec(name.strip(), parts[0], **kwargs)


def cmd_serve(args) -> int:
    from repro.service import Service, ServiceConfig

    if args.resume:
        overrides = {}
        if args.max_rounds is not None:
            overrides["max_rounds"] = args.max_rounds
        if args.poll_interval is not None:
            overrides["poll_interval_s"] = args.poll_interval
        try:
            service = Service.resume(args.resume, **overrides)
        except (OSError, CheckpointError) as exc:
            print(f"cannot resume service from {args.resume}: {exc}")
            return 2
        print(f"resumed service from {args.resume} "
              f"(round {service.round}, "
              f"{len(service.active_streams)} live / "
              f"{len(service.results)} finished streams)")
    else:
        if not args.stream:
            print("error: at least one --stream NAME=TRACE is required "
                  "(unless resuming with --resume)")
            return 2
        try:
            specs = [_parse_stream_spec(s) for s in args.stream]
        except ValueError as exc:
            print(f"error: {exc}")
            return 2
        sim_config = config_from(args, SimConfig)
        svc_config = _checked(functools.partial(
            ServiceConfig,
            buffer_capacity=args.buffer_cap,
            checkpoint_every=args.checkpoint_rounds,
            checkpoint_dir=args.checkpoint_dir or "",
            poll_interval_s=(args.poll_interval
                             if args.poll_interval is not None else 0.05),
            max_rounds=args.max_rounds or 0,
        ))
        try:
            service = Service(specs, sim_config, svc_config)
        except (OSError, ValueError) as exc:
            print(f"cannot start service: {exc}")
            return 2
        for stream in service.streams:
            print(f"stream {stream.name:<12} {stream.spec.trace} "
                  f"(policy {stream.spec.policy}, "
                  f"budget {stream.spec.budget}/round)")
    service.install_signal_handlers()
    with contextlib.ExitStack() as stack:
        stack.enter_context(service)
        if not args.no_http:
            server = stack.enter_context(
                ObsServer(service.snapshot, port=args.port)
            )
            print(f"live metrics  : {server.url}/metrics  "
                  "(also /healthz, /snapshot.json)", flush=True)
        results = service.run()
    if service._stop_requested:
        where = (f"; state checkpointed to {service.config.checkpoint_dir}"
                 if service.config.checkpoint_every else
                 " (no checkpointing configured - progress lost)")
        print(f"stopped by signal at round {service.round}{where}")
    print(f"rounds        : {service.round}"
          + (f"  checkpoints: {service.checkpoints_written}"
             if service.config.checkpoint_every else ""))
    for name in sorted(results):
        r = results[name]
        print(f"{name:<14}: {r.benchmark}/{r.policy}  "
              f"time {r.execution_time_s:.2f}s  "
              f"promoted {r.promoted}  demoted {r.demoted}")
    unfinished = [s.name for s in service.active_streams]
    if unfinished:
        print(f"unfinished    : {', '.join(sorted(unfinished))}")
    if args.out:
        payload = {
            "rounds": service.round,
            "checkpoints_written": service.checkpoints_written,
            "unfinished": sorted(unfinished),
            "streams": {
                name: {
                    "benchmark": r.benchmark,
                    "policy": r.policy,
                    "execution_time_s": r.execution_time_s,
                    "app_time_s": r.app_time_s,
                    "overhead_time_s": r.overhead_time_s,
                    "migration_time_s": r.migration_time_s,
                    "promoted": r.promoted,
                    "demoted": r.demoted,
                    "nr_pages_ddr": r.nr_pages_ddr,
                    "nr_pages_cxl": r.nr_pages_cxl,
                    "extra": r.extra,
                }
                for name, r in results.items()
            },
        }
        with open(args.out, "w") as fh:
            json.dump(payload, fh, indent=2)
        print(f"service summary written to {args.out}")
    return 0


def cmd_compare(args) -> int:
    policies = [p.strip() for p in args.policies.split(",") if p.strip()]
    unknown = [p for p in policies if p not in ALL_POLICIES]
    if unknown:
        print(f"unknown policies: {', '.join(unknown)}")
        return 2
    config = config_from(args, SimConfig, checkpoints=1)
    base = Simulation(
        registry.build(args.bench, seed=config.seed), config, policy="none",
    ).run()
    rows = []
    for policy in policies:
        result = Simulation(
            registry.build(args.bench, seed=config.seed), config,
            policy=policy,
        ).run()
        rows.append([policy, result.execution_time_s,
                     normalized(base, result), result.promoted,
                     result.demoted])
    print_table(
        f"{args.bench}: performance normalised to no migration",
        ["policy", "exec_s", "norm", "promoted", "demoted"],
        rows,
    )
    return 0


def cmd_sweep(args) -> int:
    benches = [b.strip() for b in args.benches.split(",") if b.strip()]
    policies = [p.strip() for p in args.policies.split(",") if p.strip()]
    unknown = [p for p in policies if p not in ALL_POLICIES]
    if unknown:
        print(f"unknown policies: {', '.join(unknown)}")
        return 2
    unknown_benches = [b for b in benches if b not in registry.names()]
    if unknown_benches:
        print(f"unknown benchmarks: {', '.join(unknown_benches)}")
        return 2
    if args.jobs < 1:
        print(f"--jobs must be >= 1 (got {args.jobs})")
        return 2
    kwargs = _config_kwargs(args, SimConfig)
    # The sweep serves one aggregate endpoint itself; cells never serve.
    serve, serve_port = kwargs.pop("serve"), kwargs.pop("serve_port")
    # ``functools.partial`` over SimConfig keeps the factory picklable
    # for the worker processes (a closure over ``args`` would not be).
    factory = functools.partial(SimConfig, checkpoints=1, **kwargs)
    config = _checked(factory)  # reject bad values before any cell runs
    on_result = None
    with contextlib.ExitStack() as stack:
        if serve:
            # One live endpoint over the whole matrix: each cell's
            # snapshot lands in the aggregate registry (labelled by
            # bench/policy) the moment the worker returns it.
            aggregate = MetricsRegistry(enabled=True)

            def on_result(bench: str, policy: str, result) -> None:
                if result.metrics:
                    aggregate.merge(
                        result.metrics,
                        extra_labels={"bench": bench, "policy": policy},
                    )

            server = stack.enter_context(
                ObsServer(aggregate, port=serve_port)
            )
            print(f"live metrics  : {server.url}/metrics  "
                  "(cells appear as they finish)", flush=True)
        results = collect_matrix(
            benches, policies, factory, seed=config.seed, jobs=args.jobs,
            with_metrics=bool(args.metrics or serve), on_result=on_result,
        )
        if serve and args.serve_linger > 0:
            print(f"sweep finished; serving final aggregate for "
                  f"{args.serve_linger:g}s", flush=True)
            time.sleep(args.serve_linger)
    matrix = {
        bench: {
            p: normalized(results[bench]["none"], results[bench][p])
            for p in policies
        }
        for bench in benches
    }
    if args.metrics:
        cell_metrics = {
            bench: {
                policy: result.metrics
                for policy, result in results[bench].items()
            }
            for bench in benches
        }
        with open(args.metrics, "w") as fh:
            json.dump(cell_metrics, fh, indent=2)
        n_cells = sum(len(row) for row in cell_metrics.values())
        print(f"per-cell metrics written to {args.metrics} "
              f"({n_cells} cells)")
    rows = [[bench] + [matrix[bench][p] for p in policies] for bench in benches]
    means = matrix_means(matrix)
    rows.append(["mean"] + [means[p] for p in policies])
    print_table(
        f"sweep ({len(benches)}x{len(policies)} cells, jobs={args.jobs}): "
        "performance normalised to no migration",
        ["bench"] + policies,
        rows,
    )
    return 0


def cmd_fleet(args) -> int:
    from repro.fleet import MAX_TENANTS, FleetSimulation

    fleet = config_from(args, FleetConfig)
    config = config_from(args, SimConfig, checkpoints=1)
    benches = [b.strip() for b in fleet.bench.split(",") if b.strip()]
    unknown_benches = [b for b in benches if b not in registry.names()]
    if unknown_benches:
        print(f"unknown benchmarks: {', '.join(unknown_benches)}")
        return 2
    if fleet.tenants > MAX_TENANTS:
        print(f"--tenants is capped at {MAX_TENANTS} by the per-tenant "
              "physical-address windows")
        return 2
    # Every consumer of the registry needs one: the written snapshots,
    # the live endpoint, and the recorder the SLO watchdog reads.
    with_metrics = bool(args.out or args.metrics or config.serve
                        or config.record_series or config.slo_rules)
    fsim = FleetSimulation(
        fleet,
        config,
        obs=Observability(metrics=with_metrics, tracing=False),
        tenant_metrics=with_metrics,
        tenant_tracing=bool(args.trace),
    )
    with contextlib.ExitStack() as stack:
        if config.serve:
            server = stack.enter_context(
                ObsServer(fsim.merged_snapshot, port=config.serve_port)
            )
            print(f"live metrics  : {server.url}/metrics  "
                  "(per-tenant labelled series)", flush=True)
        result = fsim.run()
        if config.serve and args.serve_linger > 0:
            print(f"fleet finished; serving final snapshot for "
                  f"{args.serve_linger:g}s", flush=True)
            time.sleep(args.serve_linger)
    if args.trace:
        trace = merged_chrome_trace(fsim.tenant_spans())
        with open(args.trace, "w") as fh:
            json.dump(trace, fh)
        print(f"fleet chrome trace written to {args.trace} "
              f"({len(trace['traceEvents'])} span events, one process "
              "row per tenant; load in chrome://tracing)")
    tier_names = list(result.results[0].bandwidth_share)
    rows = []
    for t in result.results:
        rows.append(
            [t.tenant, t.bench, t.result.execution_time_s,
             t.slowdown_vs_isolated, t.result.promoted, t.result.demoted,
             t.chain.get("demoted_to_pooled", 0.0),
             t.chain.get("pulled_from_pooled", 0.0)]
            + [t.bandwidth_share[name] for name in tier_names]
        )
    print_table(
        f"fleet: {result.tenants} tenants x {result.tiers} tiers, "
        f"policy {result.policy}, qos={'on' if result.qos else 'off'}, "
        f"{result.epochs} epochs",
        ["tenant", "bench", "exec_s", "slowdn", "prom", "dem",
         "dem_pool", "pull_up"] + [f"bw_{n}" for n in tier_names],
        rows,
        precision=3,
    )
    if config.check_invariants:
        checks = sum(
            t.result.extra.get("invariant_checks", 0.0)
            for t in result.results
        )
        violations = sum(
            t.result.extra.get("invariant_violations", 0.0)
            for t in result.results
        )
        print(f"invariants    : {checks:.0f} checks, "
              f"{violations:.0f} violations")
    _print_slo_summary(fsim.watchdog)
    if args.out:
        payload = result.as_dict()
        payload["metrics"] = result.metrics
        with open(args.out, "w") as fh:
            json.dump(payload, fh, indent=2)
        print(f"fleet summary + per-tenant metrics written to {args.out}")
    if args.metrics:
        with open(args.metrics, "w") as fh:
            json.dump(result.metrics, fh, indent=2)
        print(f"fleet metrics snapshot written to {args.metrics}")
    return 0


def cmd_metrics(args) -> int:
    if len(args.files) > 2:
        print("metrics takes one file (show) or two (diff)")
        return 2
    try:
        flats = [load_metrics_file(path) for path in args.files]
    except (OSError, ValueError, KeyError, TypeError) as exc:
        print(f"cannot load metrics file: {exc}")
        return 2
    if len(flats) == 1:
        flat = flats[0]
        if not flat:
            print(f"no series in {args.files[0]}")
            return 0
        rows = [[key, value] for key, value in sorted(flat.items())]
        print_table(
            f"metrics snapshot: {args.files[0]} ({len(rows)} series)",
            ["series", "value"],
            rows,
            precision=3,
            col_width=44,
        )
        return 0
    diff = diff_snapshots(flats[0], flats[1])
    changed = [row for row in diff if row["delta"] != 0.0]
    rows = [[row["series"], row["a"], row["b"], row["delta"]]
            for row in (diff if args.all else changed)]
    if not rows:
        print(f"no differing series across {len(diff)} "
              "(pass --all to list unchanged series)")
        return 0
    print_table(
        f"metrics diff: {args.files[0]} -> {args.files[1]} "
        f"({len(changed)} of {len(diff)} series changed)",
        ["series", "a", "b", "delta"],
        rows,
        precision=3,
        col_width=44,
    )
    return 0


def cmd_profile(args) -> int:
    config = config_from(args, SimConfig, checkpoints=1, migrate=False)
    workload = registry.build(args.bench, seed=config.seed)
    sim = Simulation(workload, config, policy="none", enable_wac=True)
    sim.run()
    cdf = AccessCdf.from_counts(args.bench, sim.pac.counts())
    skew = cdf.skew_summary()
    profile = from_wac(args.bench, sim.wac, min_accesses=128)
    print(f"pages touched  : {cdf.counts.size}")
    print(f"p90/p95/p99 over p50: {skew['p90_over_p50']:.2f} / "
          f"{skew['p95_over_p50']:.2f} / {skew['p99_over_p50']:.2f}")
    print(f"gini           : {cdf.gini():.3f}")
    for n in (4, 8, 16, 32, 48):
        print(f"P(<= {n:2d} words) : {profile.at(n):.2f}")
    kind = "sparse" if profile.mostly_sparse else (
        "dense" if profile.mostly_dense else "mixed")
    print(f"page character : {kind}")
    return 0


def cmd_report(args) -> int:
    from repro.analysis.report import profile_benchmark, render_markdown

    config = config_from(args, SimConfig)
    profile = profile_benchmark(
        args.bench, total_accesses=config.total_accesses, seed=config.seed
    )
    text = render_markdown(profile)
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text)
        print(f"report written to {args.output}")
    else:
        print(text)
    return 0


def cmd_verify(args) -> int:
    from repro.verify import ORACLES, run_all

    names = [n.strip() for n in args.oracles.split(",") if n.strip()]
    unknown = [n for n in names if n not in ORACLES]
    if unknown:
        print(f"unknown oracles: {', '.join(unknown)} "
              f"(known: {', '.join(ORACLES)})")
        return 2
    # Each oracle gets every set flag its signature accepts; an unset
    # --accesses/--chunk leaves each oracle its own size.
    flags = {k: v for k, v in vars(args).items() if v is not None}
    reports = run_all(names, **{
        name: {p: flags[p]
               for p in inspect.signature(ORACLES[name]).parameters
               if p in flags}
        for name in names
    })
    failed = 0
    for report in reports:
        print(report.format())
        if not report.ok:
            failed += 1
            for row in report.failures():
                print(f"  -> drift in {row.field}: "
                      f"{row.a:g} vs {row.b:g} "
                      f"(drift {row.drift:.2%} > tol {row.tolerance:.2%})")
        print()
    if args.json:
        payload = [
            {
                "oracle": report.name,
                "description": report.description,
                "ok": report.ok,
                "rows": [
                    {"field": row.field, "a": row.a, "b": row.b,
                     "tolerance": row.tolerance, "drift": row.drift,
                     "ok": row.ok}
                    for row in report.rows
                ],
            }
            for report in reports
        ]
        with open(args.json, "w") as fh:
            json.dump(payload, fh, indent=2)
        print(f"diff report written to {args.json}")
    if failed:
        print(f"VERIFY FAILED: {failed} of {len(reports)} oracle pairs drifted")
        return 1
    print(f"verify ok: {len(reports)} oracle pairs agree")
    return 0


def cmd_lint(args) -> int:
    from repro.lintkit import run_from_args

    return run_from_args(args)


def cmd_hwcost(args) -> int:
    rows = []
    for row in hwcost.table4():
        rows.append(
            [row["entries"], row["space_saving_area_um2"],
             row["cm_sketch_area_um2"], row["space_saving_power_mw"],
             row["cm_sketch_power_mw"]]
        )
    print_table(
        "Tracker cost model (Table 4): area um^2 / power mW",
        ["entries", "SS_area", "CMS_area", "SS_power", "CMS_power"],
        rows,
        precision=1,
    )
    rel = hwcost.relative_cost(2048)
    print(f"at N=2K: Space-Saving costs {rel['area_ratio']:.1f}x area and "
          f"{rel['power_ratio']:.1f}x power of CM-Sketch")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="M5 (ASPLOS 2025) reproduction toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list registered benchmarks")

    def add_bench_arg(p, required=True):
        p.add_argument("--bench", required=required,
                       help="benchmark name (see `list`)")

    def add_linger_arg(p):
        p.add_argument("--serve-linger", type=float, default=0.0,
                       metavar="SECONDS",
                       help="keep serving the final snapshot this long "
                            "after the work finishes")

    run = sub.add_parser("run", help="run one benchmark under one policy")
    add_bench_arg(run, required=False)
    run.add_argument("--policy", default="m5-hpt", choices=ALL_POLICIES)
    add_config_args(run, SimConfig, RUN_FIELDS)
    add_linger_arg(run)
    run.add_argument("--record-out", default=None, metavar="FILE",
                     help="export the recorded per-epoch series (CSV if "
                          "FILE ends .csv, else JSONL)")
    run.add_argument("--timeline", default=None, metavar="FILE",
                     help="write the per-epoch telemetry timeline as JSONL")
    run.add_argument("--metrics", default=None, metavar="FILE",
                     help="write a metrics snapshot (JSON if FILE ends "
                          ".json, else Prometheus text exposition)")
    run.add_argument("--trace", default=None, metavar="FILE",
                     help="write pipeline-stage spans as chrome://tracing "
                          "JSON and print the flame table")
    run.add_argument("--resume", default=None, metavar="CKPT",
                     help="resume a checkpointed run to completion; the "
                          "result is bit-identical to the uninterrupted "
                          "run (run-shape flags are ignored)")

    serve = sub.add_parser(
        "serve",
        help="streaming service daemon: multiplex N trace streams onto "
             "the epoch engine with per-stream budgets, live metrics, "
             "and checkpoint/resume",
    )
    serve.add_argument("--stream", action="append", default=[],
                       metavar="NAME=TRACE[,policy=P][,budget=N]",
                       help="add one stream fed from TRACE (v2 stream or "
                            "v1 .npz); repeatable")
    add_config_args(serve, SimConfig, ("chunk_size", "seed", "engine"))
    serve.add_argument("--buffer-cap", type=int, default=1 << 20,
                       metavar="N",
                       help="per-stream ingest buffer bound in addresses "
                            "(a full buffer back-pressures ingestion)")
    serve.add_argument("--checkpoint-dir", default=None, metavar="DIR",
                       help="directory for periodic service checkpoints")
    # Counts rounds, not SimConfig.checkpoint_every's epochs: a dest of
    # its own keeps config_from from reading it into the SimConfig.
    serve.add_argument("--checkpoint-every", dest="checkpoint_rounds",
                       type=int, default=0, metavar="R",
                       help="checkpoint cadence in scheduler rounds "
                            "(0 disables; requires --checkpoint-dir)")
    serve.add_argument("--resume", default=None, metavar="DIR",
                       help="resume a checkpointed service; with sealed "
                            "sources the results are bit-identical to an "
                            "uninterrupted run")
    serve.add_argument("--max-rounds", type=int, default=None, metavar="N",
                       help="stop after N scheduler rounds (default: run "
                            "until every stream finishes)")
    serve.add_argument("--poll-interval", type=float, default=None,
                       metavar="SECONDS",
                       help="idle sleep when every in-flight source has "
                            "nothing new on disk")
    serve.add_argument("--port", type=int, default=0, metavar="PORT",
                       help="HTTP port for /metrics, /healthz, "
                            "/snapshot.json (0 = ephemeral)")
    serve.add_argument("--no-http", action="store_true",
                       help="run without the live metrics endpoint")
    serve.add_argument("--out", default=None, metavar="FILE",
                       help="write the per-stream summary as JSON")

    compare = sub.add_parser("compare", help="compare policies")
    add_bench_arg(compare)
    add_config_args(compare, SimConfig, COMPARE_FIELDS)
    compare.add_argument("--policies", default="anb,damon,m5-hpt")

    sweep = sub.add_parser(
        "sweep", help="benchmark x policy matrix (parallel with --jobs)"
    )
    sweep.add_argument("--benches", default="mcf,roms",
                       help="comma-separated benchmark names")
    sweep.add_argument("--policies", default="anb,damon,m5-hpt")
    add_config_args(sweep, SimConfig, SWEEP_FIELDS)
    add_linger_arg(sweep)
    sweep.add_argument("--jobs", type=int, default=1,
                       help="worker processes for the matrix cells")
    sweep.add_argument("--metrics", default=None, metavar="FILE",
                       help="collect every cell's metrics snapshot into "
                            "one JSON file keyed bench -> policy")

    fleet = sub.add_parser(
        "fleet",
        help="multi-tenant fleet on a shared 2- or 3-tier hierarchy "
             "(QoS bandwidth arbitration + DRAM->CXL->pooled demotion "
             "chains)",
    )
    add_config_args(fleet, FleetConfig, FLEET_FIELDS)
    add_config_args(fleet, SimConfig, FLEET_SIM_FIELDS)
    add_linger_arg(fleet)
    fleet.add_argument("--out", default=None, metavar="FILE",
                       help="write the fleet summary + per-tenant metric "
                            "rows as JSON (the CI snapshot artifact)")
    fleet.add_argument("--metrics", default=None, metavar="FILE",
                       help="write the fleet metrics-registry snapshot "
                            "as JSON")
    fleet.add_argument("--trace", default=None, metavar="FILE",
                       help="write per-tenant pipeline spans as one "
                            "chrome://tracing JSON (one process row per "
                            "tenant)")

    metrics = sub.add_parser(
        "metrics", help="pretty-print one metrics snapshot, or diff two"
    )
    metrics.add_argument("files", nargs="+", metavar="FILE",
                         help="snapshot files (.json or .prom); one file "
                              "shows it, two files diff them")
    metrics.add_argument("--all", action="store_true",
                         help="diff: also list unchanged series")

    profile = sub.add_parser("profile", help="PAC/WAC offline profile")
    add_bench_arg(profile)
    add_config_args(profile, SimConfig, TRACE_FIELDS)

    report = sub.add_parser("report", help="full Markdown profile report")
    add_bench_arg(report)
    # profile_benchmark reads only the trace length and the seed
    add_config_args(report, SimConfig, ("total_accesses", "seed"))
    report.add_argument("--output", default=None,
                        help="write the report to a file instead of stdout")

    verify = sub.add_parser(
        "verify",
        help="run the differential oracle pairs (exact vs batched sketch, "
             "PAC cache vs direct, instant vs async-unlimited migration, "
             "reference vs batched engine, per-access vs vectorized "
             "kernels, 1-tenant fleet vs single run, uninterrupted vs "
             "resumed run)",
    )
    verify.add_argument("--oracles",
                        default="sketch,pac,migration,engine,kernels,fleet,"
                                "resume",
                        help="comma-separated oracle names to run")
    verify.add_argument("--bench", default="mcf",
                        help="benchmark for the migration, engine, fleet "
                             "and resume oracles")
    verify.add_argument("--policy", default="m5-hpt", choices=ALL_POLICIES,
                        help="policy for the migration, engine, fleet and "
                             "resume oracles")
    verify.add_argument("--accesses", type=int, default=None,
                        help="trace length for every oracle that takes "
                             "one (default: each oracle's own)")
    verify.add_argument("--chunk", type=int, default=None,
                        help="epoch or batch size for every oracle that "
                             "takes one (default: each oracle's own)")
    verify.add_argument("--seed", type=int, default=1)
    verify.add_argument("--json", default=None, metavar="FILE",
                        help="also write the per-field diffs as JSON")

    sub.add_parser("hwcost", help="Table 4 tracker cost model")

    lint = sub.add_parser(
        "lint",
        help="project-aware static analysis (determinism, units, numpy "
             "dtype safety, concurrency, crash safety, pickle safety, "
             "performance)",
    )
    from repro.lintkit import add_arguments as _add_lint_arguments

    _add_lint_arguments(lint)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    handler = {
        "list": cmd_list,
        "run": cmd_run,
        "serve": cmd_serve,
        "compare": cmd_compare,
        "sweep": cmd_sweep,
        "fleet": cmd_fleet,
        "metrics": cmd_metrics,
        "profile": cmd_profile,
        "report": cmd_report,
        "verify": cmd_verify,
        "hwcost": cmd_hwcost,
        "lint": cmd_lint,
    }[args.command]
    return handler(args)


if __name__ == "__main__":
    raise SystemExit(main())
