"""Cached differential-harness runs shared by the test modules.

Several suites ask for the same run (a configuration at a seed, where
baseline values may be spelled out or left out); the cache runs it
once per test run.
"""

from __future__ import annotations

from functools import lru_cache

from repro.workload.differential import BASELINE, check, covering_array

SEEDS = (1, 7, 42)
ARRAY = covering_array()


@lru_cache(maxsize=None)
def _checked(seed: int, row: tuple) -> tuple[str, ...]:
    return tuple(check(seed, dict(row)))


def checked(seed: int, **row) -> list[str]:
    """The failures of one oracle-checked run (see ``check``)."""
    key = tuple(sorted(
        (name, value) for name, value in row.items()
        if value != BASELINE[name]
    ))
    return list(_checked(seed, key))


def covering_row(**values) -> dict:
    """The first covering-array row holding ``values`` (its run is
    shared with the array's own test), else ``values`` alone."""
    for row in ARRAY:
        if all(row[name] == value for name, value in values.items()):
            return row
    return values
