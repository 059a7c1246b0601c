"""Engine integration: observability must measure, never perturb."""

import dataclasses

import pytest

from repro.fleet import FleetConfig, FleetSimulation
from repro.fleet.sim import _build_tenant
from repro.obs import Observability
from repro.obs.exporters import parse_prometheus, to_prometheus
from repro.service import Service, StreamSpec
from repro.sim import SimConfig, Simulation
from repro.sim.sweep import run_one
from repro.workloads import record, uniform_workload

#: The default pipeline, in order; 3-tier fleet tenants add ``chain``.
PIPELINE = {"trace", "translate", "snoop", "policy", "migrate", "perf",
            "checkpoint"}


def small_config(**kw):
    defaults = dict(
        total_accesses=120_000,
        chunk_size=30_000,
        ddr_pages=512,
        cxl_pages=4096,
        checkpoints=3,
        pages_per_gb=1024,
    )
    defaults.update(kw)
    return SimConfig(**defaults)


def run(policy="m5-hpt", obs=None, **cfg):
    sim = Simulation(
        uniform_workload(footprint_pages=1024, seed=0),
        small_config(**cfg),
        policy=policy,
        obs=obs,
    )
    return sim.run()


# Drivers for the stage-histogram test: each runs one way of stepping
# the pipeline with metrics on and returns (registries, epochs per
# registry, stage labels every registry must carry).


def drive_run(tmp_path):
    obs = Observability(metrics=True, tracing=False)
    run(obs=obs)
    return [obs.registry], small_config().num_epochs, PIPELINE


def fleet_config(**kw):
    return SimConfig(total_accesses=60_000, chunk_size=15_000, seed=1, **kw)


def drive_three_tier_tenant(tmp_path):
    """``Simulation.run`` on a fleet tenant with the chain spliced in:
    metrics on must run every stage (the checkpoint stage last) and
    leave the result equal to the obs-off twin's."""
    fleet = FleetConfig(tenants=1, tiers=3, bench="mcf")
    config = fleet_config(migrate=False)
    obs = Observability(metrics=True, tracing=False)
    sim = _build_tenant(fleet, config, 0, obs=obs)[2]
    twin = _build_tenant(fleet, config, 0)[2]
    measured = dataclasses.asdict(sim.run())
    plain = dataclasses.asdict(twin.run())
    measured.pop("metrics")
    plain.pop("metrics")
    assert plain["ratio_checkpoints"]
    assert measured == plain
    return [obs.registry], config.num_epochs, PIPELINE | {"chain"}


def drive_fleet(tmp_path):
    fsim = FleetSimulation(
        FleetConfig(tenants=2, tiers=3, bench="mcf,roms"),
        fleet_config(),
        tenant_metrics=True,
    )
    result = fsim.run()
    registries = [obs_t.registry for obs_t in fsim.tenant_obs]
    return registries, result.epochs, PIPELINE | {"chain"}


def drive_service(tmp_path):
    chunk = small_config().chunk_size
    n_chunks = 3
    path = record(uniform_workload(footprint_pages=1024, seed=0),
                  n_chunks * chunk, tmp_path / "s.rtrace", chunk_size=chunk)
    spec = StreamSpec("s", str(path), budget=chunk)
    with Service([spec], small_config()) as service:
        service.run()
        registries = [stream.sim.obs.registry for stream in service.streams]
    return registries, n_chunks, PIPELINE


class TestEquivalence:
    def test_instrumented_run_is_bit_identical(self):
        plain = run()
        instrumented = run(obs=Observability(metrics=True, tracing=True))
        assert instrumented.execution_time_s == plain.execution_time_s
        assert instrumented.app_time_s == plain.app_time_s
        assert instrumented.promoted == plain.promoted
        assert instrumented.demoted == plain.demoted
        assert instrumented.nr_pages_ddr == plain.nr_pages_ddr
        assert instrumented.ratio_checkpoints == plain.ratio_checkpoints

    def test_async_mode_also_identical(self):
        plain = run(migration_mode="async")
        instrumented = run(
            migration_mode="async",
            obs=Observability(metrics=True, tracing=True),
        )
        assert instrumented.execution_time_s == plain.execution_time_s
        assert instrumented.extra == plain.extra


class TestEngineMetrics:
    def test_snapshot_attached_and_consistent(self):
        obs = Observability(metrics=True, tracing=False)
        result = run(obs=obs)
        assert result.metrics
        flat = parse_prometheus(to_prometheus(result.metrics))
        assert flat["sim_epochs_total"] == small_config().num_epochs
        assert flat["sim_migrated_pages_total{direction=\"promote\"}"] == (
            float(result.promoted)
        )
        assert flat["tier_resident_pages{tier=\"ddr\"}"] == (
            float(result.nr_pages_ddr)
        )
        assert flat["tier_resident_pages{tier=\"cxl\"}"] == (
            float(result.nr_pages_cxl)
        )
        # accesses split by tier covers the whole run
        total = (flat["sim_accesses_total{tier=\"ddr\"}"]
                 + flat["sim_accesses_total{tier=\"cxl\"}"])
        assert total == float(small_config().total_accesses)

    @pytest.mark.parametrize(
        "driver",
        [drive_run, drive_three_tier_tenant, drive_fleet, drive_service],
        ids=["run", "three-tier-tenant", "fleet", "service"],
    )
    def test_stage_histogram_counts_every_epoch(self, driver, tmp_path):
        """Whichever driver steps the pipeline, every stage runs and is
        timed exactly once per epoch."""
        registries, epochs, stages = driver(tmp_path)
        for reg in registries:
            fam = reg.get("pipeline_stage_seconds")
            series = fam.series()
            assert {labels["stage"] for labels, _ in series} == stages
            for labels, hist in series:
                assert hist.count == epochs, labels

    def test_async_outcome_counters_match_extra(self):
        obs = Observability(metrics=True, tracing=False)
        result = run(migration_mode="async", obs=obs)
        flat = parse_prometheus(to_prometheus(result.metrics))
        assert flat.get("migration_outcomes_total{outcome=\"committed\"}",
                        0.0) == result.extra.get("mig_committed", 0.0)

    def test_disabled_obs_attaches_nothing(self):
        result = run()
        assert result.metrics == {}


class TestEngineTracing:
    def test_stage_spans_cover_the_run(self):
        obs = Observability(metrics=False, tracing=True)
        result = run(obs=obs)
        names = {r.name for r in obs.tracer.spans}
        assert names >= {
            "run", "stage.trace", "stage.translate", "stage.snoop",
            "stage.policy", "stage.migrate", "stage.perf",
            "stage.checkpoint",
        }
        assert obs.tracer.coverage() >= 0.95
        # sim-time accounting: the root span covers the simulated run
        root = next(r for r in obs.tracer.spans if r.name == "run")
        assert root.dur_sim_s == result.execution_time_s

    def test_async_tick_nests_under_migrate(self):
        obs = Observability(metrics=False, tracing=True)
        run(migration_mode="async", obs=obs)
        ticks = [r for r in obs.tracer.spans if r.name == "migrate.tick"]
        assert ticks and all(r.depth == 2 for r in ticks)
        migrate = next(
            r for r in obs.tracer.spans
            if r.name == "stage.migrate" and r.epoch == ticks[0].epoch
        )
        assert migrate.child_wall_s > 0.0


class TestSweepMetrics:
    def test_run_one_with_metrics_flag(self):
        result = run_one(
            "mcf", "m5-hpt", small_config(),
            seed=1, pages_per_gb=1024, with_metrics=True,
        )
        assert result.metrics
        names = {m["name"] for m in result.metrics["metrics"]}
        assert "sim_epochs_total" in names

    def test_run_one_default_is_uninstrumented(self):
        result = run_one(
            "mcf", "m5-hpt", small_config(), seed=1, pages_per_gb=1024
        )
        assert result.metrics == {}
