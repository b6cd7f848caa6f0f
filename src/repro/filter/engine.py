"""The filter engine: matching documents and rules (paper, §3.4–3.5).

:class:`FilterEngine` owns the execution of filter runs over one MDP
store:

- :meth:`run` — one execution of the filter: load input atoms, determine
  affected triggering rules, then iterate join-rule (group) evaluation
  until no dependent rules remain.  Termination is guaranteed because
  the dependency graph is acyclic; the longest leaf-to-root path bounds
  the iteration count (paper, Section 3.4).
- :meth:`process_insertions` — registration of new resources: decompose
  into atoms, store them, run the filter once.
- :meth:`process_diff` — the paper's three-pass update/delete algorithm
  (Section 3.5): old versions → *candidates*; candidates against the new
  state → *wrong candidates*; new versions → new matches.  True
  candidates (candidates minus wrong candidates) are reported as
  unmatched so LMR caches can evict them.
- :meth:`initialize_rules` — full evaluation of newly registered atomic
  rules against pre-existing metadata, so a new subscription immediately
  sees already-registered resources and later incremental runs find
  correct materialized inputs.
"""

from __future__ import annotations

import time
from collections.abc import Iterable, Sequence

from repro.obs.metrics import MetricsRegistry, default_registry
from repro.obs.tracing import Tracer
from repro.rdf.diff import DocumentDiff
from repro.rdf.model import Resource, URIRef
from repro.rules.atoms import AtomNode, TriggeringAtom
from repro.rules.registry import RuleRegistry
from repro.filter.decompose import resources_atoms
from repro.filter.joins import (
    evaluate_groups_at,
    initialize_join_rule,
    load_group,
)
from repro.filter.counting import TRIGGERING_MODES, CountingMatcher
from repro.filter.matcher import initialize_triggering_rule, match_triggering_rules
from repro.filter.results import FilterRunResult, PublishOutcome
from repro.storage.engine import Database
from repro.storage.tables import (
    AtomRow,
    FilterDataTable,
    FilterInputTable,
    MaterializedTable,
)

__all__ = ["FilterEngine"]

#: Hard cap on join iterations; the dependency graph bounds real runs far
#: below this, the cap only turns a hypothetical logic bug into an error.
_MAX_ITERATIONS = 1000


class FilterEngine:
    """Executes the publish & subscribe filter over one MDP database.

    ``use_rule_groups`` keeps the paper's grouped join evaluation
    (Section 3.3.3); setting it to ``False`` evaluates every join rule
    individually — an ablation knob used by the benchmark suite.
    """

    def __init__(
        self,
        db: Database,
        registry: RuleRegistry,
        use_rule_groups: bool = True,
        join_evaluation: str = "probe",
        metrics: MetricsRegistry | None = None,
        triggering: str = "sql",
    ):
        if join_evaluation not in ("scan", "probe"):
            raise ValueError(
                f"join_evaluation must be 'scan' or 'probe', got "
                f"{join_evaluation!r}"
            )
        if triggering not in TRIGGERING_MODES:
            raise ValueError(
                f"triggering must be one of {TRIGGERING_MODES}, got "
                f"{triggering!r}"
            )
        self._db = db
        self._registry = registry
        self._filter_data = FilterDataTable(db)
        self._filter_input = FilterInputTable(db)
        self._materialized = MaterializedTable(db)
        self.use_rule_groups = use_rule_groups
        #: "probe" (the default) = the delta-driven optimization, 10×
        #: faster and independent of the rule base size on PATH/JOIN
        #: workloads (EXPERIMENTS.md, ablations); "scan" = the paper's
        #: combined member evaluation, kept for the figure reproductions
        #: and ablations (see repro.filter.joins).
        self.join_evaluation = join_evaluation
        #: ``"sql"`` (the default) evaluates the triggering stage with
        #: the paper's relational joins; ``"counting"`` probes the
        #: in-memory predicate index of :mod:`repro.filter.counting` —
        #: same hits, match cost independent of the rule base size
        #: (docs/FILTER_ALGORITHM.md).  The join-rule closure, the
        #: materialization and all results are unchanged either way.
        self.triggering = triggering
        self._counting: CountingMatcher | None = None
        #: Total filter runs executed (diagnostics).
        self.runs_executed = 0
        #: Hits of the last run that never entered ``result_objects``.
        self._direct_hits = 0
        self.metrics = metrics if metrics is not None else default_registry()
        #: Span tree of every run (``trace.filter.*`` histograms).
        self.tracer = Tracer(registry=self.metrics)
        self._m_runs = self.metrics.counter("filter.runs")
        self._m_atoms = self.metrics.counter("filter.atoms_scanned")
        self._m_triggered = self.metrics.counter("filter.rules_triggered")
        self._m_iterations = self.metrics.counter("filter.iterations")
        self._m_result_rows = self.metrics.counter("filter.result_rows")

    # ------------------------------------------------------------------
    # One filter execution
    # ------------------------------------------------------------------
    def run(
        self,
        input_atoms: Iterable[AtomRow] | None = None,
        input_uris: Iterable[str] | None = None,
        materialize: bool = True,
        collect: str = "all",
    ) -> FilterRunResult:
        """Execute the filter once.

        Input atoms come either from ``input_atoms`` directly or, with
        ``input_uris``, from the current ``filter_data`` state of the
        given resources (the shape pass 2 of the update algorithm needs).

        ``collect`` controls which ``(rule, resource)`` pairs are read
        back into Python: ``"all"`` (default), ``"end"`` (only rules that
        are some subscription's end rule) or ``"none"``.
        """
        result = FilterRunResult()
        with self._db.transaction(), self.tracer.span("filter.run") as run_span:
            self._filter_input.clear()
            self._db.execute("DELETE FROM result_objects")
            self._direct_hits = 0
            # Whether result_objects may hold anything: always on the
            # SQL path, whose hits never leave the database.
            joins_fed = True
            if self.triggering == "counting":
                atoms_scanned, joins_fed = self._run_triggering_counting(
                    result, input_atoms, input_uris, materialize, collect
                )
            else:
                if input_atoms is not None:
                    self._filter_input.load(input_atoms)
                if input_uris is not None:
                    self._db.executemany(
                        "INSERT INTO filter_input "
                        "SELECT uri_reference, class, property, value "
                        "FROM filter_data WHERE uri_reference = ?",
                        ((uri,) for uri in set(input_uris)),
                    )
                atoms_scanned = self._db.count("filter_input")
                started = time.perf_counter()
                with self.tracer.span("filter.triggering"):
                    result.triggering_hits = match_triggering_rules(self._db)
                result.triggering_seconds = time.perf_counter() - started
            self._m_atoms.inc(atoms_scanned)
            run_span.set("atoms", atoms_scanned)
            self._m_triggered.inc(result.triggering_hits)
            started = time.perf_counter()
            iteration = 0
            inserted_total = result.triggering_hits
            while joins_fed and iteration < _MAX_ITERATIONS:
                with self.tracer.span(
                    "filter.iteration", iteration=iteration
                ) as iteration_span:
                    inserted = evaluate_groups_at(
                        self._db,
                        iteration,
                        iteration + 1,
                        self.use_rule_groups,
                        self.join_evaluation,
                        metrics=self.metrics,
                    )
                    iteration_span.set("inserted", inserted)
                if inserted == 0:
                    break
                inserted_total += inserted
                iteration += 1
            result.iterations = iteration
            result.join_seconds = time.perf_counter() - started
            self._m_iterations.inc(iteration)
            self._m_result_rows.inc(inserted_total)
            run_span.set("iterations", iteration)
            run_span.set("triggering_hits", result.triggering_hits)
            with self.tracer.span("filter.closure"):
                if materialize and joins_fed:
                    # The paper materializes "the results of atomic rules
                    # join rules depend on"; end rules are materialized too,
                    # since new subscriptions and the update algorithm read
                    # a rule's current matches from there.
                    self._db.execute(
                        "INSERT OR IGNORE INTO materialized "
                        "(rule_id, uri_reference) "
                        "SELECT DISTINCT ro.rule_id, ro.uri_reference "
                        "FROM result_objects ro "
                        "WHERE EXISTS (SELECT 1 FROM rule_dependencies rd "
                        "              WHERE rd.source_rule = ro.rule_id) "
                        "   OR EXISTS (SELECT 1 FROM subscriptions s "
                        "              WHERE s.end_rule = ro.rule_id)"
                    )
                if joins_fed:
                    result.pairs |= self._collect(collect)
        self.runs_executed += 1
        self._m_runs.inc()
        return result

    def _run_triggering_counting(
        self,
        result: FilterRunResult,
        input_atoms: Iterable[AtomRow] | None,
        input_uris: Iterable[str] | None,
        materialize: bool,
        collect: str,
    ) -> tuple[int, bool]:
        """Counting triggering: probe the index, merge into the run.

        The index computes the same ``(resource, rule)`` hit set as the
        SQL joins (see :mod:`repro.filter.counting` for the argument).
        The merge routes each hit by what its rule is for: hits of a
        rule some join reads enter ``result_objects`` at iteration 0,
        so the join closure proceeds exactly as in the SQL path; hits
        of a rule nothing joins on are final already — they go straight
        to ``materialized`` (end rules, when ``materialize``) and into
        ``result.pairs`` (per ``collect``) without touching the working
        table.  Returns the atom count scanned and whether any hit
        feeds a join.
        """
        started = time.perf_counter()
        rows: list[AtomRow] = []
        if input_atoms is not None:
            rows.extend(input_atoms)
        if input_uris is not None:
            rows.extend(self._input_rows_for(input_uris))
        with self.tracer.span("filter.triggering.counting"):
            hits = self._counting_matcher().match(rows)
        with self.tracer.span("filter.triggering.merge"):
            join_inputs, end_rules = self._registry.roles_among(
                {rule_id for __, rule_id in hits}
            )
            feeding = [hit for hit in hits if hit[1] in join_inputs]
            if feeding:
                self._db.executemany(
                    "INSERT INTO result_objects "
                    "(uri_reference, rule_id, iteration) VALUES (?, ?, 0)",
                    feeding,
                )
            direct = [
                (rule_id, uri)
                for uri, rule_id in hits
                if rule_id not in join_inputs
            ]
            direct_end = [pair for pair in direct if pair[0] in end_rules]
            if materialize and direct_end:
                self._materialized.insert_pairs(direct_end)
            if collect != "none":
                result.pairs = {
                    (rule_id, URIRef(uri))
                    for rule_id, uri in (
                        direct if collect == "all" else direct_end
                    )
                }
        self._direct_hits = len(direct)
        result.triggering_hits = len(hits)
        result.triggering_seconds = time.perf_counter() - started
        return len(rows), bool(feeding)

    def _input_rows_for(self, uris: Iterable[str]) -> list[AtomRow]:
        """Current ``filter_data`` rows of the given resources (pass 2),
        in sorted URI order so the hit list is deterministic."""
        rows: list[AtomRow] = []
        for uri in sorted({str(uri) for uri in uris}):
            fetched = self._db.query_all(
                "SELECT uri_reference, class, property, value "
                "FROM filter_data WHERE uri_reference = ?",
                (uri,),
            )
            rows.extend(
                (row[0], row[1], row[2], row[3]) for row in fetched
            )
        return rows

    def _counting_matcher(self) -> CountingMatcher:
        """The counting index, brought up to the registry's version."""
        if self._counting is None:
            self._counting = CountingMatcher(metrics=self.metrics)
        self._counting.refresh(
            self._db,
            self._registry.mutation_version,
            self._registry.mutation_log,
        )
        return self._counting

    def warm(self) -> None:
        """Eagerly build the triggering evaluator's derived state.

        With ``triggering="counting"`` this (re)builds the in-memory
        predicate index; a no-op for the SQL path.  The benchmark
        harness calls it before its timing loop so the one-time build is
        excluded from the measured region (it amortizes over a server's
        lifetime, not per batch); the provider calls it after crash
        recovery so the index is rebuilt from the repaired store before
        the first publish.
        """
        if self.triggering == "counting":
            self._counting_matcher()

    def close(self) -> None:
        """Release the counting index (idempotent).

        The main database belongs to the caller and stays open.
        """
        self._counting = None

    def _collect(self, mode: str) -> set[tuple[int, URIRef]]:
        if mode == "none":
            return set()
        if mode == "end":
            # One idx_subs_end_rule probe per result row; an
            # uncorrelated IN may be planned as a scan of every
            # subscription instead (docs/FILTER_ALGORITHM.md).
            rows = self._db.query_all(
                "SELECT DISTINCT ro.rule_id, ro.uri_reference "
                "FROM result_objects ro WHERE EXISTS "
                "(SELECT 1 FROM subscriptions s "
                " WHERE s.end_rule = ro.rule_id)"
            )
        else:
            rows = self._db.query_all(
                "SELECT DISTINCT rule_id, uri_reference FROM result_objects"
            )
        return {
            (int(row["rule_id"]), URIRef(row["uri_reference"]))
            for row in rows
        }

    # ------------------------------------------------------------------
    # Insert path (initial registrations)
    # ------------------------------------------------------------------
    def process_insertions(
        self, resources: Sequence[Resource], collect: str = "end"
    ) -> PublishOutcome:
        """Register brand-new resources and run the filter once.

        ``collect="none"`` skips reading result pairs back into Python —
        the benchmark harness uses it and asks :meth:`result_count`
        instead, because the paper measures the filter up to the
        production of ``ResultObjects``.
        """
        atoms = resources_atoms(resources)
        outcome = PublishOutcome()
        with self._db.transaction():
            self._filter_data.insert_atoms(atoms)
            run = self.run(
                input_atoms=atoms, materialize=True, collect=collect
            )
        outcome.passes.append(run)
        # "end" pairs are end-rule pairs already.
        outcome.matched = (
            run.by_rule if collect == "end" else self._end_matches(run)
        )
        return outcome

    def _end_matches(self, run: FilterRunResult) -> dict[int, set[URIRef]]:
        """The end-rule pairs among everything a run derived, by rule."""
        return run.matches_of(
            self._registry.end_rules_among(
                {rule_id for rule_id, __ in run.pairs}
            )
        )

    def result_count(self) -> int:
        """Distinct ``(rule, resource)`` hits of the last run, whichever
        route they took: the ``result_objects`` rows plus the hits the
        counting merge handed on without storing them (disjoint sets —
        a rule goes one way or the other)."""
        return self._direct_hits + int(
            self._db.scalar(
                "SELECT COUNT(*) FROM (SELECT DISTINCT rule_id, "
                "uri_reference FROM result_objects)"
            )
        )

    # ------------------------------------------------------------------
    # Update/delete path (paper, Section 3.5)
    # ------------------------------------------------------------------
    def process_diff(self, diff: DocumentDiff) -> PublishOutcome:
        """Apply a document diff and compute all notifications.

        Implements the paper's three filter executions.  Pure insertions
        (initial registrations) short-circuit to the single-pass path.
        """
        old_changed = diff.old_versions_of_changed()
        if not old_changed:
            return self.process_insertions(diff.inserted)

        outcome = PublishOutcome()
        outcome.deleted = {resource.uri for resource in diff.deleted}
        changed_uris = [str(r.uri) for r in old_changed]

        with self._db.transaction():
            # Pass 1 — old versions of updated and deleted resources.
            # The database still holds the old state, so derivations are
            # consistent with what previous runs materialized.
            pass1 = self.run(
                input_atoms=resources_atoms(old_changed),
                materialize=False,
                collect="all",
            )
            candidates = self._end_matches(pass1)

            # Every pass-1 derivation depended on the old state of the
            # changed resources; drop it from the materialized results.
            # Passes 2 and 3 re-derive whatever still holds.
            self._materialized.delete_pairs(
                (rule_id, str(uri)) for rule_id, uri in pass1.pairs
            )

            # Write the modified metadata into the database.
            self._filter_data.delete_for(changed_uris)
            new_resources = diff.new_versions_of_changed()
            self._filter_data.insert_atoms(resources_atoms(new_resources))

            # Pass 2 — the candidate resources, evaluated against the new
            # database state.  Input covers *all* resources pass 1 derived
            # (not only end-rule hits) so intermediate materializations
            # are rebuilt too.
            pass2 = self.run(
                input_uris=[str(uri) for uri in pass1.all_uris()],
                materialize=True,
                collect="end",
            )

            # Pass 3 — the modified metadata itself (the one execution
            # that would suffice without updates and deletions).
            pass3 = self.run(
                input_atoms=resources_atoms(new_resources),
                materialize=True,
                collect="end",
            )

        outcome.passes = [pass1, pass2, pass3]
        final: dict[int, set[URIRef]] = {}
        for run in (pass2, pass3):
            for rule_id, uris in run.by_rule.items():
                final.setdefault(rule_id, set()).update(uris)
        outcome.matched = final
        for rule_id, uris in candidates.items():
            stale = uris - final.get(rule_id, set())
            if stale:
                outcome.unmatched[rule_id] = stale
        return outcome

    def delete_resources(self, resources: Sequence[Resource]) -> PublishOutcome:
        """Remove resources entirely (whole-document deletion)."""
        diff = DocumentDiff(
            document_uri=resources[0].uri.document_uri if resources else "",
        )
        diff.deleted.extend(resources)
        return self.process_diff(diff)

    # ------------------------------------------------------------------
    # Rule initialization (new subscriptions over existing data)
    # ------------------------------------------------------------------
    def initialize_rules(
        self, created: Sequence[tuple[int, AtomNode]]
    ) -> int:
        """Fully evaluate newly created atomic rules over existing data.

        ``created`` must be in children-first order (as produced by
        :meth:`~repro.rules.registry.RuleRegistry.ensure_atoms`) so a
        join rule's inputs are always materialized before the join runs.
        Returns the total number of materialized rows produced.
        """
        produced = 0
        with self._db.transaction():
            for rule_id, atom in created:
                if isinstance(atom, TriggeringAtom):
                    produced += initialize_triggering_rule(
                        self._db,
                        rule_id,
                        self._registry.triggering_tables(rule_id, atom),
                    )
                    continue
                row = self._db.query_one(
                    "SELECT left_rule, right_rule, group_id FROM atomic_rules "
                    "WHERE rule_id = ?",
                    (rule_id,),
                )
                assert row is not None
                group = load_group(self._db, int(row["group_id"]))
                produced += initialize_join_rule(
                    self._db,
                    rule_id,
                    int(row["left_rule"]),
                    int(row["right_rule"]),
                    group,
                )
        return produced

    def current_matches(self, end_rule_id: int) -> list[URIRef]:
        """The resources currently matching an end rule (materialized)."""
        return self._materialized.uris_for(end_rule_id)
