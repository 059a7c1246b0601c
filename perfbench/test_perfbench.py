"""Tiny-size self-test of the benchmark.

Run from the root of a checkout::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import legs  # noqa: E402
import run  # noqa: E402
from spans import SpanSink, instrument_sim, self_times, timed_digest  # noqa: E402

DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())

#: Per-layer metrics that must read above 0 on each workload, because
#: their layer runs there.
LAYERS_RUN = {
    "run-m5": {
        "sim.trace_s", "sim.translate_s", "sim.snoop_s", "cxl.digest_s",
        "cxl.pac_s", "cxl.wac_s", "core.hpt_s", "core.hwt_s",
        "memory.mglru_s", "sim.policy_s", "sim.migrate_s", "sim.perf_s",
        "cxl.unique_pages", "cxl.unique_words", "core.nominated",
    },
    "fleet-damon": {
        "sim.trace_s", "sim.translate_s", "sim.snoop_s", "cxl.digest_s",
        "cxl.pac_s", "memory.mglru_s", "sim.policy_s", "sim.migrate_s",
        "migration.tick_s", "sim.perf_s", "fleet.chain_s",
        "fleet.arbitrate_s", "cxl.unique_pages", "migration.attempted",
        "migration.committed", "migration.commit_ratio",
        "fleet.chain_pages", "fleet.max_slowdown",
    },
    "serve-ckpt": {
        "sim.trace_s", "sim.translate_s", "sim.snoop_s", "cxl.digest_s",
        "cxl.pac_s", "core.hpt_s", "memory.mglru_s", "sim.policy_s",
        "sim.perf_s", "workloads.decode_s", "service.ingest_s",
        "service.drive_s", "service.checkpoint_s", "cxl.unique_pages",
        "core.nominated", "service.rounds", "service.checkpoints",
        "service.checkpoint_bytes", "workloads.decoded_bytes",
    },
}
ALWAYS = {"sim.epoch_p50_ms", "sim.epoch_p90_ms", "sim.epochs",
          "cxl.requests", "obs.trace_overhead"}


def bench(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "0", "--trace", str(trace), "--tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_declared_metrics_match_the_program():
    assert [m["name"] for m in DECLARED["end_to_end"]] == list(run.END_TO_END)
    assert [m["name"] for m in DECLARED["per_layer"]] == list(run.PER_LAYER)
    declared = {m["name"]: m["unit"]
                for m in DECLARED["end_to_end"] + DECLARED["per_layer"]}
    assert declared == {**run.END_TO_END, **run.PER_LAYER}
    assert [w["name"] for w in DECLARED["workloads"]] == list(run.WORKLOAD_NAMES)


@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
@pytest.mark.parametrize("trace", [0, 1])
def test_workload_completes_without_errors(workload, trace):
    out = bench(workload, trace)
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] and out["failed"] == 0 and out["attempted"] > 0
    section = DECLARED["per_layer" if trace else "end_to_end"]
    assert set(out["metrics"]) == {m["name"] for m in section}
    if not trace:
        assert out["metrics"]["success_rate"]["value"] == 1.0
        return
    nonzero = {name for name, m in out["metrics"].items() if m["value"] > 0}
    assert LAYERS_RUN[workload] | ALWAYS <= nonzero
    if workload == "serve-ckpt":
        # The traced service pickled its instrumented simulations.
        assert out["metrics"]["service.checkpoints"]["value"] > 0
    if workload == "fleet-damon":
        # The bandwidth ceilings bind, so the arbiter slows a tenant.
        assert out["metrics"]["fleet.max_slowdown"]["value"] > 1


def test_instrumented_simulation_pickles_and_matches(tmp_path):
    wl = legs.RunM5(3, tmp_path, 1 / 64)
    plain = wl.digests(None, wl.setup().run())
    sink = SpanSink()
    sim = wl.setup()
    instrument_sim(sim, sink)
    clone = pickle.loads(pickle.dumps(sim))
    with timed_digest(sink):
        traced = wl.digests(None, sim.run())
    assert traced == plain
    assert wl.digests(None, clone.run()) == plain
    times = self_times(sink.spans)
    assert all(t >= 0 for t in times.values())
    assert {"sim.epoch", "cxl.digest", "core.hpt", "core.hwt"} <= set(times)
