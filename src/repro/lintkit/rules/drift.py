"""DRIFT002–DRIFT003: registry drift rules.

Two name spaces in this codebase are easy to let rot: the telemetry
event names the pipeline publishes, and the metric families the
instruments register.  Each has a checked-in registry under
``docs/registries/``; these rules diff source against registry *in
both directions*, so adding an event/metric without documenting it —
or documenting one that no longer exists — fails the lint run.

Registry workflow: ``tools/run_lint.py --update-registries``
regenerates both registries from source, preserving existing
descriptions.  Config knobs need no registry: each ``SimConfig`` /
``FleetConfig`` field declares its CLI flag or exemption reason in
its own ``field(metadata=...)`` (``repro.sim.config.flag`` /
``exempt``), and ``tests/test_cli_config.py`` checks both ways.
"""

from __future__ import annotations

import ast
import json
import os
from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.lintkit.base import Rule, register
from repro.lintkit.context import FileContext, Project
from repro.lintkit.findings import Finding

EVENTS_REGISTRY = "telemetry_events.json"
METRICS_REGISTRY = "metric_families.json"

_CONFIG_MODULE = "repro/sim/config.py"


def _load_registry(project: Project, name: str) -> Optional[dict]:
    path = project.registry_path(name)
    if not os.path.exists(path):
        return None
    with open(path) as fh:
        return json.load(fh)


def _registry_rel(project: Project, name: str) -> str:
    return f"docs/registries/{name}"


def extract_events(files: Iterable[FileContext]) -> Dict[str, List[Tuple[str, int]]]:
    """Literal first arguments of ``*.publish(...)`` calls, by name."""
    return _extract_string_calls(files, {"publish"})


def extract_metric_families(
    files: Iterable[FileContext],
) -> Dict[str, List[Tuple[str, int]]]:
    """Literal first arguments of instrument registrations, by name."""
    return _extract_string_calls(files, {"counter", "gauge", "histogram"})


def _extract_string_calls(
    files: Iterable[FileContext], methods: Set[str]
) -> Dict[str, List[Tuple[str, int]]]:
    out: Dict[str, List[Tuple[str, int]]] = {}
    for ctx in files:
        if ctx.tree is None or "repro/lintkit/" in ctx.rel:
            continue
        for node in ast.walk(ctx.tree):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in methods
                and node.args
                and isinstance(node.args[0], ast.Constant)
                and isinstance(node.args[0].value, str)
            ):
                out.setdefault(node.args[0].value, []).append(
                    (ctx.rel, node.lineno)
                )
    return out


class _ExtractionDrift(Rule):
    """Shared two-way diff for the extraction-based registries."""

    registry_file = ""
    registry_key = ""
    thing = ""

    def _extract(self, files: Iterable[FileContext]) -> Dict[str, List[Tuple[str, int]]]:
        raise NotImplementedError

    def check_project(self, project: Project) -> Iterable[Finding]:
        emitted = self._extract(project.files)
        if not emitted and project.file_ending_with(_CONFIG_MODULE) is None:
            return  # fixture trees without the subsystem: stay quiet
        registry = _load_registry(project, self.registry_file)
        reg_rel = _registry_rel(project, self.registry_file)
        if registry is None:
            yield self.finding(
                reg_rel, 1,
                f"registry file {self.registry_file} is missing",
                fix_hint="run tools/run_lint.py --update-registries",
            )
            return
        documented = set(registry.get(self.registry_key, {}))
        for name, sites in sorted(emitted.items()):
            if name not in documented:
                rel, line = sites[0]
                yield self.finding(
                    rel, line,
                    f"{self.thing} `{name}` is emitted here but missing from "
                    f"{self.registry_file}",
                    fix_hint="run tools/run_lint.py --update-registries and "
                    "fill in the description",
                )
        # The reverse diff (documented-but-not-emitted) only makes
        # sense for a full-tree scan; use the presence of the config
        # module as the full-tree proxy so subtree lints stay quiet.
        if project.file_ending_with(_CONFIG_MODULE) is not None:
            for name in sorted(documented - set(emitted)):
                yield self.finding(
                    reg_rel, 1,
                    f"{self.thing} `{name}` is documented in "
                    f"{self.registry_file} but no longer emitted by source",
                    fix_hint="delete the stale entry (or restore the emitter)",
                )


@register
class TelemetryEventDrift(_ExtractionDrift):
    """DRIFT002: telemetry event names vs ``telemetry_events.json``."""

    id = "DRIFT002"
    title = "telemetry event registry drift"
    registry_file = EVENTS_REGISTRY
    registry_key = "events"
    thing = "telemetry event"

    def _extract(self, files):
        return extract_events(files)


@register
class MetricFamilyDrift(_ExtractionDrift):
    """DRIFT003: metric family names vs ``metric_families.json``."""

    id = "DRIFT003"
    title = "metric family registry drift"
    registry_file = METRICS_REGISTRY
    registry_key = "families"
    thing = "metric family"

    def _extract(self, files):
        return extract_metric_families(files)


def update_registries(project: Project) -> List[str]:
    """Regenerate the extraction-based registries from source.

    Existing descriptions are preserved; new names get a ``TODO``
    placeholder the maintainer fills in.  Returns the files written.
    """
    written: List[str] = []
    for registry_file, key, extract in (
        (EVENTS_REGISTRY, "events", extract_events),
        (METRICS_REGISTRY, "families", extract_metric_families),
    ):
        emitted = extract(project.files)
        existing = _load_registry(project, registry_file) or {}
        old = existing.get(key, {})
        entries = {
            name: old.get(name, "TODO: describe")
            for name in sorted(emitted)
        }
        path = project.registry_path(registry_file)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as fh:
            json.dump({key: entries}, fh, indent=2, sort_keys=True)
            fh.write("\n")
        written.append(path)
    return written
