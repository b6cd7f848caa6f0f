"""Startup-recovery benchmark — the ``recovery`` figure.

Not a paper figure: this sweep times
:class:`repro.mdv.recovery.RecoveryManager` against file-backed stores
of growing size, writing ``BENCH_recovery.json`` for the CI
perf-regression gate like the Figure 11–15 sweeps do.

Each point builds a provider store of N benchmark documents (plus a
small fixed rule base), tears every document's ``filter_data`` rows —
a repair with real work, one XML re-decomposition and rewrite per
document — and times one full ``recover()`` pass: rollback, scratch
clearing, the MDV03x invariant audit, every repair, and the verifying
re-audit.  ``ms_per_document`` therefore reads as *milliseconds of
recovery per stored document*.

Two series pin the durability-profile contract (docs/DURABILITY.md):
the ``fast`` profile (MEMORY journal, synchronous OFF) and the ``safe``
profile (WAL, synchronous NORMAL) recover the same stores, and the
figure's claims bound both the absolute budget, the growth of per-
document cost (the scans are near-linear) and the safe-over-fast
overhead (recovery is read-dominant, so WAL must stay cheap).
"""

from __future__ import annotations

import gc
import os
import tempfile
import time
from collections.abc import Sequence

from repro.bench.harness import MeasurementPoint, SweepResult
from repro.bench.reporting import FigureResult
from repro.mdv.provider import MetadataProvider
from repro.mdv.recovery import RecoveryManager
from repro.obs.metrics import default_registry
from repro.rdf.schema import objectglobe_schema
from repro.storage.engine import Database
from repro.workload.documents import benchmark_document
from repro.workload.rules import comp_rule, con_rule, con_token
from repro.workload.scenarios import WorkloadSpec

__all__ = [
    "figure_recovery",
    "RECOVERY_SIZES",
    "RECOVERY_BUDGET_SECONDS",
]

#: Store sizes (documents) for the quick sweep; ``--full`` quadruples
#: the largest.
RECOVERY_SIZES = (50, 200, 800)

#: The largest store must recover within this budget (single-threaded).
RECOVERY_BUDGET_SECONDS = 10.0

#: Per-document recovery cost may grow at most this factor from the
#: smallest to the largest store (near-linear scans).
_SCALING_FACTOR = 8.0

#: ``safe`` may cost at most this factor over ``fast`` on the largest
#: store (recovery is read-dominant; WAL reads are cheap).
_SAFE_OVERHEAD_FACTOR = 3.0

#: Fixed rule base per store: a few COMP thresholds plus ``contains``
#: rules, so the audit walks a realistic rule catalogue.
_COMP_RULES = 4
_CON_RULES = 4


def _build_store(path: str, size: int, durability: str) -> float:
    """Populate one file-backed provider store; returns build seconds."""
    schema = objectglobe_schema()
    started = time.perf_counter()
    db = Database(path, durability=durability)
    provider = MetadataProvider(schema, name="mdp", db=db)
    for index in range(_COMP_RULES):
        provider.subscribe("lmr", comp_rule(2 + index))
    for index in range(1, _CON_RULES + 1):
        provider.subscribe("lmr", con_rule(index))
    token = con_token(1)
    for index in range(size):
        host = (
            f"host{index}.{token}.example.org" if index % 2 else None
        )
        provider.register_document(
            benchmark_document(
                index, synth_value=index % 10, server_host=host
            )
        )
    return time.perf_counter() - started


def _measure(size: int, durability: str) -> tuple[MeasurementPoint, float]:
    """Recover one torn ``size``-document store; returns (point,
    build_seconds)."""
    schema = objectglobe_schema()
    with tempfile.TemporaryDirectory() as scratch:
        path = os.path.join(scratch, f"store-{durability}-{size}.db")
        build_seconds = _build_store(path, size, durability)
        db = Database(path, durability=durability)
        try:
            # Tear every document's derived atoms so the repair pass
            # rebuilds them from the XML — recovery with per-document
            # work to do, not just a clean audit.
            with db.transaction():
                db.execute("DELETE FROM filter_data")
            gc.collect()
            before = default_registry().counter_values()
            started = time.perf_counter()
            manager = RecoveryManager(db, schema)
            report = manager.recover()
            elapsed = time.perf_counter() - started
            if not report.clean:
                raise RuntimeError(
                    f"recovery left findings: {report.summary()}"
                )
            counters = tuple(
                default_registry().counters_since(before).items()
            )
            point = MeasurementPoint(
                spec=WorkloadSpec("CON", _COMP_RULES + _CON_RULES),
                batch_size=size,
                repeats=1,
                total_seconds=elapsed,
                hits=report.repaired,
                iterations=len(report.findings_before),
                repeat_seconds=(elapsed,),
                counters=counters,
            )
            return point, build_seconds
        finally:
            db.close()


def figure_recovery(
    quick: bool = True, sizes: Sequence[int] | None = None
) -> FigureResult:
    """Recovery wall time vs. store size, fast vs. safe profile."""
    if sizes is not None:
        sizes = tuple(sizes)
    else:
        sizes = RECOVERY_SIZES if quick else (*RECOVERY_SIZES[:-1],
                                              RECOVERY_SIZES[-1] * 4)
    series: list[SweepResult] = []
    by_profile: dict[str, list[MeasurementPoint]] = {}
    for durability in ("fast", "safe"):
        points: list[MeasurementPoint] = []
        prepare_seconds = 0.0
        for size in sizes:
            point, build_seconds = _measure(size, durability)
            points.append(point)
            prepare_seconds += build_seconds
        by_profile[durability] = points
        series.append(
            SweepResult(
                spec=WorkloadSpec("CON", sizes[-1]),
                points=points,
                prepare_seconds=prepare_seconds,
                label_override=f"startup recovery ({durability} profile)",
            )
        )
    figure = FigureResult(
        "Recovery",
        "startup recovery (audit + repair + re-audit) — wall time vs. "
        "store size, fast vs. safe durability profile",
        series=series,
    )
    fast = by_profile["fast"]
    safe = by_profile["safe"]
    largest_fast, smallest_fast = fast[-1], fast[0]
    growth = (
        largest_fast.ms_per_document / smallest_fast.ms_per_document
        if smallest_fast.ms_per_document > 0
        else 1.0
    )
    overhead = (
        safe[-1].total_seconds / largest_fast.total_seconds
        if largest_fast.total_seconds > 0
        else 1.0
    )
    figure.claims = [
        (
            f"the {sizes[-1]}-document store recovers within "
            f"{RECOVERY_BUDGET_SECONDS:.0f}s "
            f"({largest_fast.total_seconds:.2f}s, fast profile)",
            largest_fast.total_seconds < RECOVERY_BUDGET_SECONDS,
        ),
        (
            f"per-document recovery cost grows at most "
            f"{_SCALING_FACTOR:.0f}x from {sizes[0]} to {sizes[-1]} "
            f"documents ({growth:.2f}x — near-linear scans)",
            growth <= _SCALING_FACTOR,
        ),
        (
            f"the safe profile recovers the largest store within "
            f"{_SAFE_OVERHEAD_FACTOR:.0f}x of fast ({overhead:.2f}x)",
            overhead <= _SAFE_OVERHEAD_FACTOR,
        ),
        (
            "every recovery pass rebuilt the filter_data rows of every "
            "stored document and re-audited clean",
            all(
                point.hits >= point.batch_size for point in (*fast, *safe)
            ),
        ),
    ]
    return figure
