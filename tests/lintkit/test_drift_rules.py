"""Fixture tests for the registry-drift rules DRIFT002-DRIFT003.

Each fixture tree carries a stub ``repro/sim/config.py`` module: the
"full-tree" proxy that arms the reverse (documented-but-gone) diffs.
"""

import json

from repro.lintkit.rules.drift import update_registries
from tests.lintkit.conftest import rule_ids

_CONFIG_SRC = """\
    from dataclasses import dataclass


    @dataclass
    class SimConfig:
        num_pages: int = 64
        seed: int = 0
    """


def _tree(extra=None):
    files = {"src/repro/sim/config.py": _CONFIG_SRC}
    if extra:
        files.update(extra)
    return files


# ---------------------------------------------------------------------------
# DRIFT002: telemetry event names vs telemetry_events.json

_PUBLISHER = """\
    def run(bus):
        bus.publish("epoch", 0, 0.0)
    """


def test_drift002_passes_documented_events(lint_tree):
    result = lint_tree(
        _tree({"src/repro/sim/telemetry_use.py": _PUBLISHER}),
        rules=["DRIFT002"],
        registries={"telemetry_events.json": {"events": {"epoch": "per-epoch"}}},
    )
    assert result.ok


def test_drift002_flags_undocumented_event_at_emit_site(lint_tree):
    result = lint_tree(
        _tree({"src/repro/sim/telemetry_use.py": _PUBLISHER}),
        rules=["DRIFT002"],
        registries={"telemetry_events.json": {"events": {}}},
    )
    assert rule_ids(result) == ["DRIFT002"]
    finding = result.findings[0]
    assert "`epoch`" in finding.message and "missing from" in finding.message
    assert finding.path.endswith("telemetry_use.py")


def test_drift002_flags_documented_but_unemitted_event(lint_tree):
    result = lint_tree(
        _tree({"src/repro/sim/telemetry_use.py": _PUBLISHER}),
        rules=["DRIFT002"],
        registries={
            "telemetry_events.json": {
                "events": {"epoch": "ok", "ghost.event": "gone"}
            }
        },
    )
    assert any("no longer emitted" in f.message for f in result.findings)


def test_drift002_quiet_on_fixture_subtrees(lint_tree):
    # No publish calls and no config module: a partial tree, stay quiet.
    result = lint_tree({"src/repro/core/thing.py": "x = 1\n"}, rules=["DRIFT002"])
    assert result.ok


# ---------------------------------------------------------------------------
# DRIFT003: metric family names vs metric_families.json

_INSTRUMENTS = """\
    def wire(registry):
        registry.counter("pages_moved_total", "Pages moved")
        registry.gauge("queue_depth", "Queue depth")
    """


def test_drift003_passes_documented_families(lint_tree):
    result = lint_tree(
        _tree({"src/repro/sim/metrics_use.py": _INSTRUMENTS}),
        rules=["DRIFT003"],
        registries={
            "metric_families.json": {
                "families": {"pages_moved_total": "a", "queue_depth": "b"}
            }
        },
    )
    assert result.ok


def test_drift003_flags_undocumented_family(lint_tree):
    result = lint_tree(
        _tree({"src/repro/sim/metrics_use.py": _INSTRUMENTS}),
        rules=["DRIFT003"],
        registries={
            "metric_families.json": {"families": {"queue_depth": "b"}}
        },
    )
    assert rule_ids(result) == ["DRIFT003"]
    assert "`pages_moved_total`" in result.findings[0].message


def test_drift003_flags_missing_registry_file(lint_tree):
    result = lint_tree(
        _tree({"src/repro/sim/metrics_use.py": _INSTRUMENTS}),
        rules=["DRIFT003"],
    )
    assert rule_ids(result) == ["DRIFT003"]
    assert "is missing" in result.findings[0].message


# ---------------------------------------------------------------------------
# --update-registries regeneration


def test_update_registries_writes_and_preserves_descriptions(
    make_project, tmp_path
):
    project = make_project(
        _tree(
            {
                "src/repro/sim/telemetry_use.py": _PUBLISHER,
                "src/repro/sim/metrics_use.py": _INSTRUMENTS,
            }
        )
    )
    written = update_registries(project)
    assert len(written) == 2

    events_path = tmp_path / "docs" / "registries" / "telemetry_events.json"
    events = json.loads(events_path.read_text())
    assert events["events"] == {"epoch": "TODO: describe"}
    families = json.loads(
        (tmp_path / "docs" / "registries" / "metric_families.json").read_text()
    )
    assert set(families["families"]) == {"pages_moved_total", "queue_depth"}

    # A maintainer fills in a description; regeneration keeps it.
    events["events"]["epoch"] = "per-epoch pipeline summary"
    events_path.write_text(json.dumps(events))
    update_registries(project)
    events = json.loads(events_path.read_text())
    assert events["events"]["epoch"] == "per-epoch pipeline summary"
