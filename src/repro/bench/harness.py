"""Measurement harness for the paper's Section 4 experiments.

The paper's protocol: build a rule base of one type, register a batch of
documents, measure the overall filter runtime, divide by the batch size.
*"The average registration time of a single RDF document was calculated
by dividing the overall runtime by the batch size."*

:class:`FilterBench` prepares the rule base once into a template
database; every measurement point restores a pristine copy via the
SQLite backup API, so expensive rule registration is paid once per
``(rule type, rule base size)`` combination.  Small batches are repeated
and averaged to tame timer noise; repeats advance the document index
range so the one-to-one matching contract of OID/PATH/JOIN workloads is
preserved.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from repro.filter.engine import FilterEngine
from repro.obs.metrics import default_registry
from repro.rdf.schema import Schema, objectglobe_schema
from repro.rules.decompose import decompose_rule
from repro.rules.normalize import normalize_rule
from repro.rules.parser import parse_rule
from repro.rules.registry import RuleRegistry
from repro.storage.engine import Database
from repro.storage.schema import create_all
from repro.workload.scenarios import WorkloadSpec

__all__ = ["MeasurementPoint", "SweepResult", "FilterBench", "DEFAULT_BATCH_SIZES"]

#: The batch sizes swept by default (the paper's x axis).
DEFAULT_BATCH_SIZES = (1, 2, 5, 10, 20, 50, 100, 200)

#: Repeats aim for at least this many registered documents per point so
#: single-millisecond batches do not drown in timer noise.
_MIN_DOCUMENTS_PER_POINT = 20
_MAX_REPEATS = 10


@dataclass(frozen=True)
class MeasurementPoint:
    """One (workload, batch size) measurement."""

    spec: WorkloadSpec
    batch_size: int
    repeats: int
    total_seconds: float
    hits: int
    iterations: int
    #: Per-repeat batch durations; the metric uses their median so a
    #: single GC pause or scheduler hiccup cannot distort sub-millisecond
    #: points (small batches are repeated up to 10 times).
    repeat_seconds: tuple[float, ...] = ()
    #: Counter deltas accumulated while measuring this point (sorted
    #: ``(name, delta)`` pairs from the default metrics registry, e.g.
    #: atoms scanned, rule-group evaluations, SQL statements).
    counters: tuple[tuple[str, float], ...] = ()

    @property
    def documents_registered(self) -> int:
        return self.batch_size * self.repeats

    @property
    def ms_per_document(self) -> float:
        """The paper's metric: average registration cost per document."""
        if self.repeat_seconds:
            ordered = sorted(self.repeat_seconds)
            median = ordered[len(ordered) // 2]
            return median * 1000.0 / self.batch_size
        return self.total_seconds * 1000.0 / self.documents_registered


@dataclass
class SweepResult:
    """A batch-size sweep for one workload (one curve of a figure)."""

    spec: WorkloadSpec
    points: list[MeasurementPoint] = field(default_factory=list)
    prepare_seconds: float = 0.0
    #: Display label override (ablation comparisons use it to tell
    #: ``… triggering=counting`` curves apart from the baseline).
    label_override: str | None = None

    @property
    def label(self) -> str:
        return self.label_override or self.spec.label()

    def cost_at(self, batch_size: int) -> float:
        for point in self.points:
            if point.batch_size == batch_size:
                return point.ms_per_document
        raise KeyError(batch_size)

    def batch_sizes(self) -> list[int]:
        return [point.batch_size for point in self.points]


class FilterBench:
    """Prepares a rule base once and measures batch registrations."""

    def __init__(
        self,
        spec: WorkloadSpec,
        schema: Schema | None = None,
        use_rule_groups: bool = True,
        deduplicate: bool = True,
        join_evaluation: str = "scan",
        triggering: str = "sql",
    ):
        self.spec = spec
        self.schema = schema or objectglobe_schema()
        self.use_rule_groups = use_rule_groups
        self.deduplicate = deduplicate
        self.join_evaluation = join_evaluation
        #: Triggering backend ("sql" = the paper's joins, "counting" =
        #: the in-memory counting matcher).
        self.triggering = triggering
        self._template: Database | None = None
        self._borrowed_template = False
        self.prepare_seconds = 0.0

    # ------------------------------------------------------------------
    # Preparation
    # ------------------------------------------------------------------
    def prepare(self) -> None:
        """Build the rule-base template database (idempotent)."""
        if self._template is not None:
            return
        started = time.perf_counter()
        db = Database()
        create_all(db)
        registry = RuleRegistry(db, deduplicate=self.deduplicate)
        engine = FilterEngine(
            db, registry, self.use_rule_groups, self.join_evaluation
        )
        subscriber = "bench-lmr"
        with db.transaction():
            for text in self.spec.rule_texts():
                normalized = normalize_rule(parse_rule(text), self.schema)[0]
                decomposed = decompose_rule(normalized, self.schema)
                registration = registry.register_subscription(
                    subscriber, text, decomposed
                )
                engine.initialize_rules(registration.created)
        db.execute("ANALYZE")
        db.commit()
        self._template = db
        self.prepare_seconds = time.perf_counter() - started

    def close(self) -> None:
        if self._template is not None:
            if not self._borrowed_template:
                self._template.close()
            self._template = None

    def fresh_engine(self) -> tuple[Database, FilterEngine]:
        """A pristine copy of the prepared rule base plus its engine."""
        self.prepare()
        assert self._template is not None
        db = self._template.clone()
        registry = RuleRegistry(db, deduplicate=self.deduplicate)
        return db, FilterEngine(
            db, registry, self.use_rule_groups, self.join_evaluation,
            triggering=self.triggering,
        )

    def variant(self, triggering: str) -> FilterBench:
        """A bench sharing this one's prepared template, differing only
        in ``triggering`` — ablation comparisons measure both backends
        against the *same* rule base.  Close the parent last; the
        variant borrows the template and must not outlive it.
        """
        self.prepare()
        twin = FilterBench(
            self.spec,
            schema=self.schema,
            use_rule_groups=self.use_rule_groups,
            deduplicate=self.deduplicate,
            join_evaluation=self.join_evaluation,
            triggering=triggering,
        )
        twin._template = self._template
        twin._borrowed_template = True
        twin.prepare_seconds = self.prepare_seconds
        return twin

    # ------------------------------------------------------------------
    # Measurement
    # ------------------------------------------------------------------
    def repeats_for(self, batch_size: int) -> int:
        repeats = max(1, _MIN_DOCUMENTS_PER_POINT // batch_size)
        repeats = min(repeats, _MAX_REPEATS)
        if self.spec.rule_type not in ("COMP", "CON"):
            # Repeats advance the index range; stay within the rule base.
            repeats = min(repeats, max(1, self.spec.rule_count // batch_size))
        return repeats

    def measure(self, batch_size: int, repeats: int | None = None) -> MeasurementPoint:
        """Measure the average registration cost at one batch size."""
        if repeats is None:
            repeats = self.repeats_for(batch_size)
        db, engine = self.fresh_engine()
        try:
            # Building the counting index is a one-time server cost, not
            # a per-batch cost — keep it out of the timed loop.
            engine.warm()
            durations: list[float] = []
            hits = 0
            iterations = 0
            before = default_registry().counter_values()
            for repeat in range(repeats):
                documents = self.spec.documents(
                    batch_size, start_index=repeat * batch_size
                )
                resources = [r for doc in documents for r in doc]
                started = time.perf_counter()
                outcome = engine.process_insertions(resources, collect="none")
                durations.append(time.perf_counter() - started)
                hits += engine.result_count()
                iterations = max(iterations, outcome.passes[0].iterations)
            counters = tuple(
                default_registry().counters_since(before).items()
            )
            return MeasurementPoint(
                spec=self.spec,
                batch_size=batch_size,
                repeats=repeats,
                total_seconds=sum(durations),
                hits=hits,
                iterations=iterations,
                repeat_seconds=tuple(durations),
                counters=counters,
            )
        finally:
            engine.close()
            db.close()

    def sweep(self, batch_sizes=DEFAULT_BATCH_SIZES) -> SweepResult:
        """Measure every batch size; returns one figure curve."""
        self.prepare()
        label = (
            f"{self.spec.label()} triggering={self.triggering}"
            if self.triggering != "sql"
            else None
        )
        result = SweepResult(
            spec=self.spec,
            prepare_seconds=self.prepare_seconds,
            label_override=label,
        )
        for batch_size in batch_sizes:
            if (
                self.spec.rule_type not in ("COMP", "CON")
                and batch_size > self.spec.rule_count
            ):
                continue
            result.points.append(self.measure(batch_size))
        return result
