#!/usr/bin/env python3
"""Standalone front end for ``repro.lintkit`` (CI entry point).

Same behaviour as ``repro lint`` plus ``--update-registries``, which
regenerates the registries (``docs/registries/telemetry_events.json``
and ``metric_families.json``) from the scanned source, preserving any
existing descriptions — see ``docs/static_analysis.md`` for the
workflow.

Usage::

    PYTHONPATH=src python tools/run_lint.py                # lint src/
    PYTHONPATH=src python tools/run_lint.py --format json --output lint.json
    PYTHONPATH=src python tools/run_lint.py --update-registries
"""

import argparse
import os
import sys

sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
)

from repro.lintkit import add_arguments, load_project, run_from_args  # noqa: E402
from repro.lintkit.rules.drift import update_registries  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(
        prog="run_lint.py",
        description="repro.lintkit static analysis (CI entry point)",
    )
    add_arguments(parser)
    parser.add_argument(
        "--update-registries", action="store_true",
        help="regenerate docs/registries/{telemetry_events,metric_families}"
        ".json from source and exit",
    )
    args = parser.parse_args()
    if args.update_registries:
        project = load_project(args.paths, root=args.root)
        for path in update_registries(project):
            print(f"registry updated: {os.path.relpath(path, project.root)}")
        return 0
    return run_from_args(args)


if __name__ == "__main__":
    raise SystemExit(main())
