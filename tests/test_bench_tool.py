"""``tools/bench.py``: the shared header, the identity check, cleanup.

Each leg runs at a tiny size here (a few 16384-access epochs, one
repeat); the gates' verdicts at that size are not asserted, only what
the harness records and returns.
"""

import functools
import importlib.util
import json
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "bench.py"
EPOCH = 16_384
HEADER = ("leg", "cpu_count", "repeats", "medians_s", "identical", "ok")


@pytest.fixture(scope="module")
def bench():
    spec = importlib.util.spec_from_file_location("bench_tool", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def tiny_legs(bench):
    return {
        "engine": functools.partial(bench.engine, accesses=3 * EPOCH,
                                    repeats=1),
        # five epochs, so the checkpoint variant writes once
        "overhead": functools.partial(bench.overhead, accesses=5 * EPOCH,
                                      repeats=1),
    }


@pytest.mark.parametrize("leg", ["engine", "overhead"])
def test_every_record_carries_the_common_header(bench, leg):
    record = tiny_legs(bench)[leg]()
    assert record["leg"] == leg
    assert all(key in record for key in HEADER)
    assert record["identical"] is True
    assert record["cpu_count"] >= 1
    assert all(v > 0 for v in record["medians_s"].values())


@pytest.mark.parametrize("leg, variants, name, kwargs", [
    ("engine", "ENGINE_VARIANTS", "batched", {"engine": "batched", "seed": 2}),
    ("overhead", "OVERHEAD_VARIANTS", "metrics", {"seed": 2}),
])
def test_a_perturbed_variant_fails_identity_and_main(
        bench, monkeypatch, tmp_path, leg, variants, name, kwargs):
    monkeypatch.setitem(getattr(bench, variants), name, kwargs)
    monkeypatch.setattr(bench, "LEGS", tiny_legs(bench))
    monkeypatch.setattr(bench, "OUT_DIR", str(tmp_path))
    assert bench.main([leg]) == 1
    record = json.loads((tmp_path / f"BENCH_{leg}.json").read_text())
    assert record["identical"] is False
    assert record["ok"] is False


def test_checkpoint_variant_leaves_no_file(bench, monkeypatch, tmp_path):
    monkeypatch.setattr("tempfile.tempdir", str(tmp_path))
    written = []
    save_state = bench.Simulation.save_state

    def spy(self, path, *args, **kwargs):
        written.append(path)
        return save_state(self, path, *args, **kwargs)

    monkeypatch.setattr(bench.Simulation, "save_state", spy)
    tiny_legs(bench)["overhead"]()
    assert written and all(p.startswith(str(tmp_path)) for p in written)
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv", [[], ["sweep"], ["engine", "--smoke"]])
def test_main_takes_one_leg_name_and_no_option(bench, argv):
    with pytest.raises(SystemExit) as exc:
        bench.main(argv)
    assert exc.value.code == 2
