"""Event and metric names have one source: the code that emits them.

Every literal ``publish("name", ...)`` in ``src/`` has an entry in
``repro.sim.telemetry.EVENTS`` and every entry has a publish site.
Every metric family registered in ``src/`` passes its help text, the
description ``/metrics`` exports, as a literal at registration.  The
watchdog's ``alert.<rule>`` events take their names from user-defined
SLO rules, so they are not literal and not checked.

Each check is a function of a source tree and a catalogue; the fixture
tests below run it on small bad trees so a check that stops firing
fails here, not silently.
"""

import ast
import textwrap
from pathlib import Path

from repro.sim.telemetry import EVENTS

SRC = Path(__file__).resolve().parents[1] / "src"


def literal_calls(src, methods):
    """``(name, call, "file:line")`` for each ``*.<method>("name", ...)``
    call under ``src`` whose method is in ``methods``."""
    for path in sorted(src.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in methods
                and node.args
                and isinstance(node.args[0], ast.Constant)
                and isinstance(node.args[0].value, str)
            ):
                site = f"{path.relative_to(src)}:{node.lineno}"
                yield node.args[0].value, node, site


def published(src):
    sites = {}
    for name, _, site in literal_calls(src, {"publish"}):
        sites.setdefault(name, site)
    return sites


def uncatalogued(src, events):
    """Published event names with no ``events`` entry."""
    return [f"{name} ({site})" for name, site in sorted(published(src).items())
            if name not in events]


def stale(src, events):
    """``events`` entries published nowhere or left undescribed."""
    sites = published(src)
    return sorted(name for name, text in events.items()
                  if name not in sites or not text)


def _has_help(call):
    if len(call.args) > 1:
        node = call.args[1]
    else:
        node = next((kw.value for kw in call.keywords if kw.arg == "help"),
                    None)
    return (isinstance(node, ast.Constant) and isinstance(node.value, str)
            and bool(node.value.strip()))


def families(src):
    return list(literal_calls(src, {"counter", "gauge", "histogram"}))


def bare_families(src):
    """Metric families registered without literal help text."""
    return [f"{name} ({site})" for name, call, site in families(src)
            if not _has_help(call)]


def test_every_published_event_is_catalogued():
    assert published(SRC), "no publish sites found: the scan is broken"
    missing = uncatalogued(SRC, EVENTS)
    assert not missing, f"published but not in EVENTS: {missing}"


def test_every_catalogued_event_is_published():
    gone = stale(SRC, EVENTS)
    assert not gone, f"in EVENTS but published nowhere or undescribed: {gone}"


def test_every_metric_family_has_help_text():
    assert families(SRC), "no metric registrations found: the scan is broken"
    bare = bare_families(SRC)
    assert not bare, f"metric families registered without help text: {bare}"


# ---------------------------------------------------------------------------
# The checks on fixture trees

def _tree(tmp_path, source):
    (tmp_path / "mod.py").write_text(textwrap.dedent(source))
    return tmp_path


_PUBLISHER = """\
    def run(bus, rule):
        bus.publish("epoch", 0, 0.0)
        bus.publish(f"alert.{rule}", 0, 0.0)
    """


def test_undocumented_event_is_flagged_at_its_publish_site(tmp_path):
    src = _tree(tmp_path, _PUBLISHER)
    assert uncatalogued(src, {}) == ["epoch (mod.py:2)"]
    assert uncatalogued(src, {"epoch": "per-epoch summary"}) == []


def test_dynamic_event_names_are_not_checked(tmp_path):
    # the f-string alert name is neither uncatalogued nor a publish site
    src = _tree(tmp_path, _PUBLISHER)
    assert set(published(src)) == {"epoch"}


def test_stale_or_undescribed_entry_is_flagged(tmp_path):
    src = _tree(tmp_path, _PUBLISHER)
    events = {"epoch": "per-epoch summary", "ghost.event": "gone"}
    assert stale(src, events) == ["ghost.event"]
    assert stale(src, {"epoch": ""}) == ["epoch"]


def test_family_without_help_text_is_flagged(tmp_path):
    src = _tree(tmp_path, """\
        def wire(registry, text):
            registry.counter("moved_total", "Pages moved")
            registry.gauge("depth", help="Queue depth")
            registry.counter("bare_total")
            registry.histogram("blank_seconds", "  ")
            registry.gauge("computed", text)
        """)
    assert bare_families(src) == [
        "bare_total (mod.py:4)",
        "blank_seconds (mod.py:5)",
        "computed (mod.py:6)",
    ]
