#!/usr/bin/env python
"""Standalone differential-oracle runner: a shim over ``repro verify``.

Takes exactly ``repro verify``'s flags: the oracle list, the
benchmark/policy the migration, engine, fleet and resume pairs run,
the seed, the migration pair's trace length, and ``--json FILE`` for
the full per-field diff (for pinning goldens or CI artifacts).

Usage::

    PYTHONPATH=src python tools/run_differential.py
    PYTHONPATH=src python tools/run_differential.py \
        --oracles migration --bench roms --accesses 600000 \
        --json diff.json

Exit status: 0 when every oracle pair agrees within tolerance,
1 on drift, 2 on a usage error.
"""

import sys

from repro.cli import main

if __name__ == "__main__":
    raise SystemExit(main(["verify", *sys.argv[1:]]))
