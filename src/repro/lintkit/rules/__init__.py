"""Rule modules — importing this package registers every rule."""

from repro.lintkit.rules import (  # noqa: F401
    concurrency,
    crashsafe,
    determinism,
    dtype,
    perf,
    pickle_safety,
    units,
)
