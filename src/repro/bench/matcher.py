"""The ``matcher`` figure: triggering cost vs. rule-base size (1k→1M).

Beyond the paper: the paper's figures vary the *batch size* at modest
rule bases; this figure varies the **rule-base size** and compares the
triggering backends — the relational join (``triggering="sql"``, with
the ``contains`` scan) against the in-memory counting matcher
(``triggering="counting"``, :mod:`repro.filter.counting`).

The rule base is a *selective mix* (one third each) of OID-shaped
equality rules (unique subject URIs), COMP-shaped range rules
(``synthValue >`` a unique bound) and CON-shaped ``contains`` rules
(unique 8-letter tokens).  Every measured document matches exactly one
OID rule and :data:`MATCH_TOKENS` contains rules, so the *hit* work is
constant across sizes and the curves isolate how the *miss* cost scales
with the rule base — the regime the ROADMAP's million-rule item is
about.  The mix is deliberately contains-heavy enough that the sql scan
arm grows linearly; a pure-equality base would be flat on every backend
and show nothing.

Rule bases this large cannot go through the per-rule parse pipeline in
reasonable time; :class:`MatcherBench` clones atoms decomposed from one
template rule of each shape and bulk-registers them
(:meth:`~repro.rules.registry.RuleRegistry.bulk_register_triggering`),
which keeps the mutation version/log exactly as the normal path would.

Quick mode sweeps 1k/10k/50k rules (the committed
``benchmarks/baselines/BENCH_matcher.json`` gate); ``--full`` adds the
nightly 10k/100k/1M lane.  Claims are ratio-based and hardware-honest:
absolute milliseconds move with the host, the *shape* (flat counting
curve, ≥10x over the scan join, sub-millisecond matching at the largest
size) is what must reproduce.  Two claims are no wall time at all: the
``counting.contains_lookups`` counter per document is equal at every
size, so the flatness of ``contains`` matching is asserted exactly, and
the counting index's traced bytes per rule
(:func:`counting_bytes_per_rule`) at the largest size stay within 1.2x
of the smallest — at 1M rules, the memory the million-subscription
target needs.
"""

from __future__ import annotations

import gc
import time
import tracemalloc
from dataclasses import replace

from repro.bench.harness import FilterBench, SweepResult
from repro.bench.reporting import FigureResult
from repro.filter.counting import CountingMatcher
from repro.obs.metrics import MetricsRegistry, default_registry
from repro.rdf.schema import Schema
from repro.rules.atoms import TriggeringAtom
from repro.rules.decompose import decompose_rule
from repro.rules.normalize import normalize_rule
from repro.rules.parser import parse_rule
from repro.rules.registry import RuleRegistry
from repro.storage.engine import Database
from repro.storage.schema import create_all
from repro.workload.documents import host_uri
from repro.workload.rules import comp_rule, con_rule, con_token, oid_rule
from repro.workload.scenarios import WorkloadSpec

__all__ = [
    "MATCH_TOKENS",
    "QUICK_SIZES",
    "FULL_SIZES",
    "MatcherBench",
    "counting_bytes_per_rule",
    "mixed_rules",
    "figure_matcher",
]

#: ``contains`` tokens embedded in every measured document's host: each
#: document matches this many CON rules (plus its one OID rule) at any
#: rule-base size, so selectivity is constant and the curves measure
#: miss cost.
MATCH_TOKENS = 6

#: Rule-base sizes of the committed quick-mode baseline (PR perf gate).
QUICK_SIZES = (1_000, 10_000, 50_000)

#: The nightly scale lane (``--full``), up to the million-rule target.
FULL_SIZES = (10_000, 100_000, 1_000_000)

#: Batch sizes per measured point — small, so a point is dominated by
#: per-document match cost rather than amortization effects.
_BATCHES = (10, 20)


def _template_atom(rule_text: str, schema: Schema) -> TriggeringAtom:
    """The single triggering atom a template rule decomposes into."""
    normalized = normalize_rule(parse_rule(rule_text), schema)[0]
    decomposed = decompose_rule(normalized, schema)
    atom = decomposed.end
    assert isinstance(atom, TriggeringAtom), rule_text
    return atom


def mixed_rules(size, schema):
    """Yield ``(rule_text, atom)`` for the selective mixed rule base.

    Index ``i`` becomes an OID, COMP or CON shaped rule by ``i % 3``;
    the atoms are value-substituted clones of pipeline-decomposed
    templates, so their classes, properties and numeric flags are
    exactly what registration would produce.
    """
    oid_template = _template_atom(oid_rule(0), schema)
    comp_template = _template_atom(comp_rule(0), schema)
    con_template = _template_atom(con_rule(0), schema)
    for index in range(size):
        sub_index = index // 3
        shape = index % 3
        if shape == 0:
            yield (
                oid_rule(sub_index),
                replace(oid_template, value=str(host_uri(sub_index))),
            )
        elif shape == 1:
            yield (
                comp_rule(sub_index),
                replace(comp_template, value=str(sub_index)),
            )
        else:
            yield (
                con_rule(sub_index),
                replace(con_template, value=con_token(sub_index)),
            )


class MatcherBench(FilterBench):
    """A :class:`FilterBench` whose rule base is bulk-loaded.

    The spec is CON-shaped so the measured documents embed the
    :data:`MATCH_TOKENS` matched tokens; the prepared template holds
    the mixed base of :func:`mixed_rules` instead of the spec's pure
    rule type.  The store is empty while rules register, so atom
    initialization is skipped (nothing to materialize).
    """

    def __init__(self, size: int, **knobs):
        spec = WorkloadSpec("CON", size, match_fraction=MATCH_TOKENS / size)
        super().__init__(spec, **knobs)
        self.size = size

    def prepare(self) -> None:
        if self._template is not None:
            return
        started = time.perf_counter()
        db = Database()
        create_all(db)
        registry = RuleRegistry(db)
        registry.bulk_register_triggering(
            "bench-matcher", mixed_rules(self.size, self.schema)
        )
        db.execute("ANALYZE")
        db.commit()
        self._template = db
        self.prepare_seconds = time.perf_counter() - started

    def index_bytes_per_rule(self) -> float:
        """:func:`counting_bytes_per_rule` of the prepared rule base."""
        self.prepare()
        return counting_bytes_per_rule(self._template)


def counting_bytes_per_rule(db: Database) -> float:
    """Traced bytes per rule of a counting index built from ``db``'s
    triggering tables (:mod:`tracemalloc`; the rows read while building,
    and the free lists that would keep their memory, are emptied before
    the count is taken)."""
    matcher = CountingMatcher(MetricsRegistry())
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        gc.collect()
        before = tracemalloc.get_traced_memory()[0]
        matcher.refresh(db, 0)  # a fresh matcher rebuilds at any version
        gc.collect()
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        if not tracing:
            tracemalloc.stop()
    return held / max(matcher.rule_count, 1)


def _plateau(sweep: SweepResult) -> float:
    """Mean per-document cost over the sweep's points."""
    return sum(p.ms_per_document for p in sweep.points) / len(sweep.points)


def figure_matcher(quick: bool = True, sizes=None, batches=None) -> FigureResult:
    """Triggering backends across rule-base sizes (the ``matcher`` figure)."""
    sizes = sizes or (QUICK_SIZES if quick else FULL_SIZES)
    batches = batches or _BATCHES
    series: list[SweepResult] = []
    per_size: list[tuple[int, SweepResult, SweepResult]] = []
    match_hist = default_registry().histogram("counting.match_ms")
    match_by_size: dict[int, float] = {}
    lookups_by_size: dict[int, float] = {}
    bytes_by_size: dict[int, float] = {}
    for size in sizes:
        scan_bench = MatcherBench(size)
        try:
            bytes_by_size[size] = scan_bench.index_bytes_per_rule()
            counting_bench = scan_bench.variant(triggering="counting")
            try:
                scan_sweep = scan_bench.sweep(batches)
                hist_before = match_hist.total
                counting_sweep = counting_bench.sweep(batches)
                documents = sum(
                    p.documents_registered for p in counting_sweep.points
                )
                # Matching-stage-only latency of this size's counting arm
                # (the engine's closure/result writes are excluded).
                match_by_size[size] = (
                    match_hist.total - hist_before
                ) / documents
                lookups_by_size[size] = sum(
                    dict(p.counters).get("counting.contains_lookups", 0.0)
                    for p in counting_sweep.points
                ) / documents
            finally:
                counting_bench.close()
        finally:
            scan_bench.close()
        scan_sweep.label_override = f"mix n={size} sql scan"
        counting_sweep.label_override = f"mix n={size} counting"
        series.extend((scan_sweep, counting_sweep))
        per_size.append((size, scan_sweep, counting_sweep))
    figure = FigureResult(
        "Matcher",
        "triggering backends — per-document cost vs. rule-base size "
        "(mixed eq/range/contains base, constant hits per document)",
        series=series,
    )
    hits_identical = all(
        scan.batch_sizes() == counting.batch_sizes()
        and [p.hits for p in scan.points] == [p.hits for p in counting.points]
        for __, scan, counting in per_size
    )
    largest, scan_l, counting_l = per_size[-1]
    smallest, __, counting_s = per_size[0]
    second = per_size[-2][0] if len(per_size) > 1 else largest
    scan_speedup = _plateau(scan_l) / _plateau(counting_l)
    growth = _plateau(counting_l) / _plateau(counting_s)
    size_ratio = largest / smallest
    memory_ratio = bytes_by_size[largest] / bytes_by_size[smallest]
    figure.claims = [
        (
            "sql scan and counting backends register identical hit "
            "counts at every size and batch (exactness)",
            hits_identical,
        ),
        (
            f"the counting matcher is >=10x cheaper per document than "
            f"the sql scan join at n={largest} "
            f"({_plateau(scan_l):.2f} ms vs {_plateau(counting_l):.3f} ms "
            f"on this host; absolute times are hardware-dependent, the "
            f"ratio is the claim — measured {scan_speedup:.0f}x)",
            scan_speedup >= 10.0,
        ),
        (
            f"counting per-document cost grows sub-linearly in the "
            f"rule-base size ({growth:.2f}x cost for {size_ratio:.0f}x "
            f"more rules)",
            growth < size_ratio / 2,
        ),
        (
            f"counting matching stage (index probes + counters, "
            f"excluding result writes) is sub-millisecond per document "
            f"at n={second} ({match_by_size[second]:.3f} ms) and keeps a "
            f">=10x margin over the whole sql scan pipeline at "
            f"n={largest} ({match_by_size[largest]:.3f} ms matching vs "
            f"{_plateau(scan_l):.2f} ms total; milliseconds are "
            f"hardware-dependent, the bound and the ratio are the claim)",
            match_by_size[second] < 1.0
            and match_by_size[largest] * 10.0 <= _plateau(scan_l),
        ),
        (
            f"counting contains lookups per document are equal at every "
            f"size ({', '.join(f'{v:.1f}' for v in lookups_by_size.values())}"
            f" at n={', '.join(map(str, lookups_by_size))}): the substring "
            f"dictionary's probe does not grow with the rule base "
            f"(a deterministic counter, not a wall time)",
            len(set(lookups_by_size.values())) == 1
            and min(lookups_by_size.values()) > 0,
        ),
        (
            f"counting index memory per rule is flat in the rule-base "
            f"size ({', '.join(f'{v:.0f}' for v in bytes_by_size.values())}"
            f" traced bytes per rule at n={', '.join(map(str, bytes_by_size))}"
            f"; n={largest} is {memory_ratio:.2f}x n={smallest}, within "
            f"1.2x either way; tracemalloc bytes, not a wall time)",
            1 / 1.2 <= memory_ratio <= 1.2,
        ),
    ]
    return figure
