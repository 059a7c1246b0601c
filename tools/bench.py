#!/usr/bin/env python
"""One bench harness: ``python tools/bench.py engine|overhead``.

Each leg runs at its fixed CI size and writes ``BENCH_<leg>.json`` at
the repo root.  Every record starts with the same header: ``leg``,
``cpu_count``, ``repeats``, the leg's parameters, ``medians_s``,
``identical`` and ``ok``; the exit code is 1 unless ``ok``.

* ``engine`` — the batched hot path against the per-access reference
  engine (mcf, ``m5-hpt+hwt``, WAC on): batched must be at least
  ``MIN_SPEEDUP`` times faster.  ``stages`` holds per-stage
  accesses/sec from one traced run per engine, excluded from timing.
* ``overhead`` — plain against five instrumented variants (metrics,
  metrics+tracing, invariant checks, the series recorder, periodic
  checkpoints into a temporary directory): each must finish within
  ``plain * (1 + tolerance) + SLACK_S``, the stage spans must cover
  ``MIN_COVERAGE`` of the run, and the invariant catalogue must find
  no violation.  ``budgets`` records each variant's ``ratio``,
  ``limit_s`` and ``slack_share`` (the slack's part of the limit).

Both legs run one warm-up, then ``repeats`` interleaved rounds over
their variants, so CPU frequency drift hits every variant alike, and
compare medians.  Every variant must be
bit-identical to the leg's first (baseline) variant on
``IDENTITY_FIELDS``: an engine or an observer may change how fast a
run is, never what it computes.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import statistics
import sys
import tempfile
import time

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")
sys.path.insert(0, os.path.join(ROOT, "src"))

from repro.obs import Observability  # noqa: E402
from repro.sim import SimConfig, Simulation  # noqa: E402
from repro.workloads import registry  # noqa: E402

#: Where ``main`` writes ``BENCH_<leg>.json``.
OUT_DIR = ROOT
CHUNK = 16_384
SEED = 1

#: RunResult fields every variant must share with the baseline.
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

METRICS = {"metrics": True, "tracing": False}
TRACED = {"metrics": True, "tracing": True}

#: Variant name -> ``simulation`` keywords; the first is the baseline.
ENGINE_VARIANTS = {
    "reference": {"engine": "reference"},
    "batched": {"engine": "batched"},
}
MIN_SPEEDUP = 10.0

CHECKPOINT_EVERY = 5
OVERHEAD_VARIANTS = {
    "plain": {},
    "metrics": {"obs": METRICS},
    "metrics+tracing": {"obs": TRACED},
    "invariants": {"check_invariants": True},
    "recorder": {"obs": METRICS, "record_series": "default"},
    "checkpoint": {"checkpoint_every": CHECKPOINT_EVERY},
}
TOLERANCE = 0.05
INVARIANT_TOLERANCE = 0.10
SLACK_S = 0.05
MIN_COVERAGE = 0.95


def simulation(bench, policy, config, seed=SEED, obs=None, wac=False,
               **overrides) -> Simulation:
    """A ready-to-run simulation: ``overrides`` replace ``config``
    fields, ``obs`` holds Observability keywords, ``seed`` seeds the
    workload."""
    return Simulation(
        registry.build(bench, seed=seed),
        dataclasses.replace(config, **overrides),
        policy=policy,
        enable_wac=wac,
        obs=Observability(**obs) if obs else None,
    )


def measure(make, variants, repeats, warmup=None):
    """One warm-up run (of ``warmup``, default the baseline), then
    ``repeats`` interleaved rounds over ``variants``; only
    ``Simulation.run`` is timed.

    Returns each variant's median seconds and its last
    ``(simulation, result)``.
    """
    make(**variants[warmup or next(iter(variants))]).run()
    times = {name: [] for name in variants}
    last = {}
    for _ in range(repeats):
        for name, kwargs in variants.items():
            sim = make(**kwargs)
            start = time.perf_counter()
            result = sim.run()
            times[name].append(time.perf_counter() - start)
            last[name] = (sim, result)
    return {n: statistics.median(ts) for n, ts in times.items()}, last


def identical(last) -> bool:
    """Whether every variant's result equals the baseline's on
    ``IDENTITY_FIELDS``; prints each disagreement."""
    (base_name, (_, base)), *others = last.items()
    same = True
    for name, (_, result) in others:
        diff = [f for f in IDENTITY_FIELDS
                if getattr(result, f) != getattr(base, f)]
        if diff:
            print(f"FAIL: {name} differs from {base_name} on "
                  f"{', '.join(diff)}")
            same = False
    return same


def header(leg, repeats, params, medians, same, ok):
    """The keys every record starts with."""
    return {"leg": leg, "cpu_count": os.cpu_count() or 1, "repeats": repeats,
            **params,
            "medians_s": {str(k): round(v, 4) for k, v in medians.items()},
            "identical": same, "ok": ok}


def write_record(record) -> None:
    """Dump ``record`` to ``OUT_DIR/BENCH_<leg>.json`` as stable,
    diff-friendly JSON."""
    path = os.path.abspath(os.path.join(OUT_DIR,
                                        f"BENCH_{record['leg']}.json"))
    with open(path, "w") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")
    print(f"recorded to {path}")


def stage_rates(make, kwargs, accesses):
    """Per-stage accesses/sec from one traced (untimed) run."""
    sim = make(obs=TRACED, **kwargs)
    sim.run()
    rates = {}
    for row in sim.obs.flame_table():
        if row["name"].startswith("stage."):
            total = row["total_s"]
            rates[row["name"][len("stage."):]] = {
                "total_s": round(total, 6),
                "accesses_per_s": round(accesses / total) if total > 0 else None,
            }
    return rates


def engine(accesses=200_000, repeats=3):
    """Batched against reference engine (see the module docstring)."""
    params = {"bench": "mcf", "policy": "m5-hpt+hwt", "accesses": accesses,
              "chunk": CHUNK, "seed": SEED}
    config = SimConfig(total_accesses=accesses, chunk_size=CHUNK,
                       trace_subsample=64.0, checkpoints=1)

    def make(**kwargs):
        return simulation("mcf", "m5-hpt+hwt", config, wac=True, **kwargs)

    medians, last = measure(make, ENGINE_VARIANTS, repeats, warmup="batched")
    speedup = medians["reference"] / medians["batched"]
    for name, median in medians.items():
        print(f"{name:>10s}: {median:7.3f} s "
              f"({accesses / median:12,.0f} accesses/s)")
    print(f"   speedup: {speedup:7.2f}x  (gate: {MIN_SPEEDUP:.1f}x)")
    same = identical(last)
    ok = same and speedup >= MIN_SPEEDUP
    return {**header("engine", repeats, params, medians, same, ok),
            "speedup": round(speedup, 3), "min_speedup": MIN_SPEEDUP,
            "stages": {name: stage_rates(make, kwargs, accesses)
                       for name, kwargs in ENGINE_VARIANTS.items()}}


def overhead(accesses=400_000, repeats=5):
    """Plain against instrumented runs (see the module docstring)."""
    params = {"bench": "mcf", "policy": "m5-hpt", "accesses": accesses,
              "chunk": CHUNK, "seed": SEED, "tolerance": TOLERANCE,
              "invariant_tolerance": INVARIANT_TOLERANCE, "slack_s": SLACK_S,
              "min_coverage": MIN_COVERAGE,
              "checkpoint_every": CHECKPOINT_EVERY}
    with tempfile.TemporaryDirectory() as tmp:
        # Only the checkpoint variant sets checkpoint_every > 0, so
        # only it writes here.
        config = SimConfig(total_accesses=accesses, chunk_size=CHUNK,
                           trace_subsample=64.0, checkpoints=1,
                           checkpoint_path=os.path.join(tmp, "bench.ckpt"))

        def make(**kwargs):
            return simulation("mcf", "m5-hpt", config, **kwargs)

        medians, last = measure(make, OVERHEAD_VARIANTS, repeats)

    plain = medians["plain"]
    budgets, over = {}, []
    print(f"{'variant':>16s}  {'median_s':>9s}  {'ratio':>7s}  "
          f"{'limit_s':>8s}  {'slack_share':>11s}")
    for name, median in medians.items():
        if name == "plain":
            print(f"{name:>16s}  {median:9.4f}")
            continue
        tolerance = INVARIANT_TOLERANCE if name == "invariants" else TOLERANCE
        limit = plain * (1.0 + tolerance) + SLACK_S
        budgets[name] = {"ratio": round(median / plain, 3),
                         "limit_s": round(limit, 4),
                         "slack_share": round(SLACK_S / limit, 3)}
        print(f"{name:>16s}  {median:9.4f}  {median / plain:6.3f}x  "
              f"{limit:8.4f}  {SLACK_S / limit:11.3f}")
        if median > limit:
            over.append(name)
    if over:
        print(f"FAIL: {', '.join(over)} over budget")

    coverage = last["metrics+tracing"][0].obs.tracer.coverage()
    print(f"stage-span coverage: {coverage:.3f} (bar {MIN_COVERAGE})")
    extra = last["invariants"][1].extra
    checks = extra.get("invariant_checks", 0)
    violations = extra.get("invariant_violations", 0)
    print(f"invariant checks: {checks:.0f} run, {violations:.0f} violations")
    same = identical(last)
    ok = same and not over and coverage >= MIN_COVERAGE and not violations
    return {**header("overhead", repeats, params, medians, same, ok),
            "budgets": budgets, "coverage": round(coverage, 4),
            "invariant_checks": checks, "invariant_violations": violations}


LEGS = {"engine": engine, "overhead": overhead}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("leg", choices=list(LEGS))
    record = LEGS[parser.parse_args(argv).leg]()
    write_record(record)
    print("OK" if record["ok"] else "FAIL", f"({record['leg']} leg)")
    return 0 if record["ok"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
