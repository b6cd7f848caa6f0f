"""The persistent rule catalogue (paper, Sections 3.3.2–3.3.4).

The registry owns the tables ``atomic_rules``, ``rule_dependencies``,
``rule_groups``, the triggering index tables (``filter_rules_class`` and
the per-operator ``filter_rules_*``), plus ``subscriptions`` /
``subscription_rules`` / ``named_rules``.

Persisting a decomposed rule *merges its dependency tree with the global
dependency graph*: every atom is looked up by canonical rule text first
("There are no duplicates" — Section 3.3.4) and only missing atoms are
inserted, so equivalent rules and atomic rules shared between
subscriptions are evaluated only once.  Join rules are attached to their
rule group (Section 3.3.3) as they are created.

Reference counting (one count per subscription or named rule using an
atom) drives cleanup on unsubscription: atoms reaching zero references
with no remaining dependents are removed together with their index rows
and materialized results.
"""

from __future__ import annotations

import json
import sqlite3
from collections import deque
from collections.abc import Iterable
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.errors import RuleAnalysisError, SubscriptionError
from repro.rules.atoms import AtomNode, JoinAtom, TriggeringAtom
from repro.rules.decompose import DecomposedRule
from repro.semantics.rewrite import SemanticRewriter
from repro.semantics.store import SEMANTICS_MODES, SemanticStore
from repro.storage.engine import Database
from repro.storage.schema import (
    COMPARISON_TABLES,
    TRIGGER_TABLES,
    filter_rules_table,
)

if TYPE_CHECKING:  # imported lazily at runtime to avoid a package cycle
    from repro.analysis.diagnostics import Diagnostic
    from repro.rdf.schema import Schema

__all__ = [
    "RuleRegistry",
    "RegisteredSubscription",
    "RuleMutation",
    "Subscription",
    "ANALYZE_POLICIES",
    "DEDUPE_MODES",
    "MUTATION_LOG_LIMIT",
    "SEMANTICS_MODES",
]

#: Valid values for the ``analyze=`` registration policy: ``"off"``
#: skips analysis, ``"warn"`` records diagnostics on the registration
#: result, ``"reject"`` additionally refuses to register when the
#: analyzer reports errors.
ANALYZE_POLICIES = ("off", "warn", "reject")

#: Valid values for the ``dedupe=`` knob: ``"off"`` registers every
#: decomposition as-is (atoms still share by exact key), ``"report"``
#: additionally records an MDV051 diagnostic when a semantically
#: equivalent rule is already stored, and ``"merge"`` lets the new
#: subscription share the equivalent rule's triggering entry outright —
#: fan-out is restored per subscription at notification time, so the
#: delivered streams are identical to the undeduped path.
DEDUPE_MODES = ("off", "report", "merge")


#: Length bound of :attr:`RuleRegistry.mutation_log`.  Far above any
#: realistic burst between two filter runs; consumers finding a gap the
#: log no longer covers fall back to a full index rebuild, so the bound
#: only caps memory, never correctness.
MUTATION_LOG_LIMIT = 4096


#: Names the triggering index tables holding a row of ``:rule_id`` —
#: one primary-key probe per table.
_TABLES_OF_RULE = " UNION ALL ".join(
    f"SELECT '{table}' WHERE EXISTS "
    f"(SELECT 1 FROM {table} WHERE rule_id = :rule_id)"
    for table in TRIGGER_TABLES
)


@dataclass(frozen=True, slots=True)
class RuleMutation:
    """One triggering-index change, in ``mutation_version`` order.

    Deliberately *not* an add/drop opcode: consumers re-sync the touched
    rule from the store, which is idempotent and immune to entries whose
    enclosing transaction later rolled back.
    """

    version: int
    rule_id: int


@dataclass(frozen=True, slots=True)
class Subscription:
    """One registered subscription of one subscriber."""

    sub_id: int
    subscriber: str
    rule_text: str
    end_rule: int


@dataclass
class RegisteredSubscription:
    """Result of registering a subscription.

    ``created`` lists the atoms that did not exist before, children
    before parents — the filter engine must initialize their
    materialized results against the already-registered metadata before
    the atoms can take part in incremental evaluation.
    """

    subscription: Subscription
    end_rule: int
    all_rule_ids: list[int] = field(default_factory=list)
    created: list[tuple[int, AtomNode]] = field(default_factory=list)
    #: Findings of the pre-registration analyzer (empty with ``analyze="off"``).
    diagnostics: list["Diagnostic"] = field(default_factory=list)

    @property
    def reused_existing_atoms(self) -> bool:
        return len(self.created) < len(self.all_rule_ids)


class RuleRegistry:
    """Catalogue of atomic rules, dependencies, groups and subscriptions."""

    def __init__(
        self,
        db: Database,
        deduplicate: bool = True,
        dedupe: str = "off",
        semantics: str = "off",
    ):
        self._db = db
        #: Merge equal atomic rules across subscriptions (the paper's
        #: design).  ``False`` disables the dependency-graph merge — an
        #: ablation knob: every subscription gets private atoms.
        self.deduplicate = deduplicate
        if dedupe not in DEDUPE_MODES:
            raise ValueError(
                f"unknown dedupe mode {dedupe!r}; expected one of "
                f"{DEDUPE_MODES}"
            )
        if dedupe != "off" and not deduplicate:
            raise ValueError(
                "dedupe requires atom deduplication (deduplicate=True)"
            )
        #: Semantic deduplication by canonical form (see DEDUPE_MODES).
        self.dedupe = dedupe
        if semantics not in SEMANTICS_MODES:
            raise ValueError(
                f"unknown semantics mode {semantics!r}; expected one of "
                f"{SEMANTICS_MODES}"
            )
        #: Active S-ToPSS degree (see :data:`SEMANTICS_MODES`).  With
        #: ``"off"`` no semantic rows are ever written and the registry
        #: is byte-identical to the purely syntactic design.
        self.semantics = semantics
        #: Vocabulary accessors (always available — the vocabulary is a
        #: property of the store; the knob gates only the *rewriting*).
        self.semantic_store = SemanticStore(db)
        self._rewriter: SemanticRewriter | None = (
            SemanticRewriter(self.semantic_store, semantics, db.metrics)
            if semantics != "off"
            else None
        )
        self._salt_counter = 0
        #: Cache of reconstructed atom nodes, keyed by rule id.
        self._node_cache: dict[int, AtomNode] = {}
        #: Bumped whenever triggering index rows change (inserts and
        #: atom garbage collection).  The counting matcher
        #: (:mod:`repro.filter.counting`) keys its index refresh on this
        #: counter, so an unchanged rule base is indexed exactly once.
        self.mutation_version: int = 0
        #: Bounded feed of the same changes, one :class:`RuleMutation`
        #: per version bump: the counting matcher applies it
        #: incrementally when it covers the gap since its last refresh.
        self.mutation_log: deque[RuleMutation] = deque(
            maxlen=MUTATION_LOG_LIMIT
        )

    # ------------------------------------------------------------------
    # Atom persistence (dependency-graph merge)
    # ------------------------------------------------------------------
    def ensure_atoms(
        self, decomposed: DecomposedRule
    ) -> tuple[int, list[int], list[tuple[int, AtomNode]]]:
        """Persist all atoms of a decomposition, deduplicating by key.

        Returns ``(end_rule_id, all_rule_ids, created)`` where ``created``
        holds ``(rule_id, atom)`` for newly inserted atoms in
        children-first order.
        """
        ids: dict[str, int] = {}
        created: list[tuple[int, AtomNode]] = []
        with self._db.transaction():
            for atom in decomposed.atoms:
                existing = (
                    self._lookup(atom.key) if self.deduplicate else None
                )
                if existing is not None:
                    ids[atom.key] = existing
                    continue
                rule_id = self._insert_atom(atom, ids)
                ids[atom.key] = rule_id
                created.append((rule_id, atom))
                self._node_cache[rule_id] = atom
        end_id = ids[decomposed.end.key]
        all_ids = [ids[atom.key] for atom in decomposed.atoms]
        return end_id, all_ids, created

    def bulk_register_triggering(
        self,
        subscriber: str,
        rules: "Iterable[tuple[str, TriggeringAtom]]",
    ) -> list[tuple[int, AtomNode]]:
        """Register many single-atom subscriptions in one transaction.

        The scale harness's fast path (the matcher benchmark and the
        nightly million-rule lane): skips the per-rule
        parse/normalize/decompose pipeline but funnels every atom
        through the same :meth:`_insert_triggering` as the normal path,
        so the mutation version/log and the dedup-by-key contract stay
        intact.  Returns the created atoms (children-first, trivially:
        all triggering) for
        :meth:`~repro.filter.engine.FilterEngine.initialize_rules`;
        callers building a rule base over an *empty* metadata store may
        skip initialization — there is nothing to materialize.
        """
        created: list[tuple[int, AtomNode]] = []
        with self._db.transaction():
            for rule_text, atom in rules:
                existing = (
                    self._lookup(atom.key) if self.deduplicate else None
                )
                if existing is not None:
                    rule_id = existing
                else:
                    rule_id = self._insert_triggering(atom)
                    self._node_cache[rule_id] = atom
                    created.append((rule_id, atom))
                cursor = self._db.execute(
                    "INSERT INTO subscriptions (subscriber, rule_text, "
                    "end_rule) VALUES (?, ?, ?)",
                    (subscriber, rule_text, rule_id),
                )
                sub_id = int(cursor.lastrowid)
                self._db.execute(
                    "INSERT INTO subscription_rules (sub_id, rule_id) "
                    "VALUES (?, ?)",
                    (sub_id, rule_id),
                )
                self._db.execute(
                    "UPDATE atomic_rules SET refcount = refcount + 1 "
                    "WHERE rule_id = ?",
                    (rule_id,),
                )
        return created

    def _lookup(self, key: str) -> int | None:
        return self._db.scalar(
            "SELECT rule_id FROM atomic_rules WHERE rule_text = ?", (key,)
        )

    def _stored_key(self, atom: AtomNode) -> str:
        """The rule text persisted for ``atom``.

        With deduplication disabled a unique salt keeps the UNIQUE
        constraint satisfied while preventing any sharing.
        """
        if self.deduplicate:
            return atom.key
        self._salt_counter += 1
        return f"{atom.key}~!{self._salt_counter}"

    def _insert_atom(self, atom: AtomNode, ids: dict[str, int]) -> int:
        if isinstance(atom, TriggeringAtom):
            return self._insert_triggering(atom)
        return self._insert_join(atom, ids)

    def _insert_triggering(self, atom: TriggeringAtom) -> int:  # mdv: allow(MDV065): runs inside caller's transaction
        self.mutation_version += 1
        cursor = self._db.execute(
            "INSERT INTO atomic_rules (kind, rule_text, class) "
            "VALUES ('triggering', ?, ?)",
            (self._stored_key(atom), atom.rdf_class),
        )
        rule_id = int(cursor.lastrowid)
        self.mutation_log.append(
            RuleMutation(self.mutation_version, rule_id)
        )
        if atom.is_class_only:
            self._db.executemany(
                "INSERT INTO filter_rules_class (rule_id, class) VALUES (?, ?)",
                ((rule_id, cls) for cls in atom.extension_classes),
            )
        else:
            table = filter_rules_table(str(atom.operator))
            self._db.executemany(
                f"INSERT INTO {table} (rule_id, class, property, value, "
                f"numeric) VALUES (?, ?, ?, ?, ?)",
                (
                    (rule_id, cls, atom.prop, atom.value, int(atom.numeric))
                    for cls in atom.extension_classes
                ),
            )
        self._insert_semantic_rows(rule_id, atom)
        return rule_id

    def _insert_semantic_rows(self, rule_id: int, atom: TriggeringAtom) -> None:  # mdv: allow(MDV065): runs inside caller's transaction
        """Add the active degree's expansion rows for one base atom.

        Every row carries ``semantic = 1`` so reconstruction
        (:meth:`_load_triggering`) and the rule-base audit can recover
        the subscriber's original predicate; both triggering paths give
        multiple index rows of one rule OR semantics, so no matcher
        change is needed.  ``INSERT OR IGNORE`` everywhere: expansions
        of synonym/taxonomy-overlapping vocabularies collide on the
        primary key and the first row wins.
        """
        rewriter = self._rewriter
        if rewriter is None:
            return
        expansion = rewriter.expand(atom)
        if expansion.is_empty:
            return
        metrics = self._db.metrics
        metrics.counter("semantics.rules_in").inc()
        inserted = 0
        if atom.is_class_only:
            for cls in expansion.extra_classes:
                cursor = self._db.execute(
                    "INSERT OR IGNORE INTO filter_rules_class "
                    "(rule_id, class, semantic) VALUES (?, ?, 1)",
                    (rule_id, cls),
                )
                inserted += max(cursor.rowcount, 0)
        else:
            base_table = filter_rules_table(str(atom.operator))
            all_classes = (*atom.extension_classes, *expansion.extra_classes)
            for cls in expansion.extra_classes:
                cursor = self._db.execute(
                    f"INSERT OR IGNORE INTO {base_table} "
                    f"(rule_id, class, property, value, numeric, semantic) "
                    f"VALUES (?, ?, ?, ?, ?, 1)",
                    (rule_id, cls, atom.prop, atom.value, int(atom.numeric)),
                )
                inserted += max(cursor.rowcount, 0)
            for variant in expansion.variants:
                table = filter_rules_table(variant.operator)
                for cls in all_classes:
                    cursor = self._db.execute(
                        f"INSERT OR IGNORE INTO {table} "
                        f"(rule_id, class, property, value, numeric, "
                        f"semantic) VALUES (?, ?, ?, ?, ?, 1)",
                        (
                            rule_id, cls, variant.prop, variant.value,
                            int(variant.numeric),
                        ),
                    )
                    inserted += max(cursor.rowcount, 0)
        metrics.counter("semantics.atoms_out").inc(inserted)

    def _insert_join(self, atom: JoinAtom, ids: dict[str, int]) -> int:  # mdv: allow(MDV065): runs inside caller's transaction
        left_id = ids.get(atom.left.key) or self._require(atom.left.key)
        right_id = ids.get(atom.right.key) or self._require(atom.right.key)
        group_id = self._ensure_group(atom)
        cursor = self._db.execute(
            "INSERT INTO atomic_rules (kind, rule_text, class, left_rule, "
            "right_rule, group_id) VALUES ('join', ?, ?, ?, ?, ?)",
            (self._stored_key(atom), atom.rdf_class, left_id, right_id, group_id),
        )
        rule_id = int(cursor.lastrowid)
        dependency_rows = [
            (left_id, rule_id, "left", group_id),
            (right_id, rule_id, "right", group_id),
        ]
        self._db.executemany(
            "INSERT INTO rule_dependencies (source_rule, target_rule, side, "
            "group_id) VALUES (?, ?, ?, ?)",
            dependency_rows,
        )
        return rule_id

    def _require(self, key: str) -> int:
        rule_id = self._lookup(key)
        if rule_id is None:
            raise SubscriptionError(f"missing child atom for key {key!r}")
        return rule_id

    def _ensure_group(self, atom: JoinAtom) -> int:
        signature = atom.group_signature
        existing = self._db.scalar(
            "SELECT group_id FROM rule_groups WHERE signature = ?",
            (signature,),
        )
        if existing is not None:
            return int(existing)
        cursor = self._db.execute(
            "INSERT INTO rule_groups (signature, left_class, right_class, "
            "left_property, right_property, operator, register_side, "
            "numeric_compare, self_join) VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?)",
            (
                signature,
                atom.left_class,
                atom.right_class,
                atom.left_prop,
                atom.right_prop,
                atom.operator,
                atom.register_side,
                int(atom.numeric),
                int(atom.self_join),
            ),
        )
        return int(cursor.lastrowid)

    # ------------------------------------------------------------------
    # Subscriptions
    # ------------------------------------------------------------------
    def register_subscription(
        self,
        subscriber: str,
        rule_text: str,
        decomposed: DecomposedRule,
        analyze: str = "off",
    ) -> RegisteredSubscription:
        """Register a subscription and merge its atoms into the graph.

        ``analyze`` selects the pre-registration analysis policy (see
        :data:`ANALYZE_POLICIES`).  The subsumption check runs before the
        atoms are persisted — once merged, a candidate would compare
        equal to itself.  With ``"reject"``, analyzer errors raise
        :class:`~repro.errors.RuleAnalysisError` and nothing is stored.
        """
        diagnostics = self._analyze_candidate(
            subscriber, rule_text, decomposed, analyze
        )
        canon_hash: str | None = None
        equivalent_end: int | None = None
        if self.dedupe != "off":
            canon_hash, equivalent_end, dedupe_diagnostics = (
                self._dedupe_candidate(decomposed)
            )
            diagnostics.extend(dedupe_diagnostics)
        if equivalent_end is not None and self.dedupe == "merge":
            # Share the equivalent rule's triggering entry: no new atoms,
            # no index mutation — the subscription rides the stored tree.
            end_id = equivalent_end
            all_ids = self._tree_rule_ids(equivalent_end)
            created: list[int] = []
            self._db.metrics.counter("analysis.dedupe_merged").inc()
        else:
            end_id, all_ids, created = self.ensure_atoms(decomposed)
        with self._db.transaction():
            if canon_hash is not None and equivalent_end is None:
                # Inside the subscription's transaction: a torn
                # registration never leaves a canon entry without its
                # subscription (crash-safety, docs/DURABILITY.md).
                self._db.execute(
                    "INSERT OR IGNORE INTO rule_canon (canon_hash, rule_id) "
                    "VALUES (?, ?)",
                    (canon_hash, end_id),
                )
            duplicate = self._db.query_one(
                "SELECT sub_id FROM subscriptions WHERE subscriber = ? AND "
                "rule_text = ?",
                (subscriber, rule_text),
            )
            if duplicate is not None:
                raise SubscriptionError(
                    f"subscriber {subscriber!r} already registered this rule"
                )
            cursor = self._db.execute(
                "INSERT INTO subscriptions (subscriber, rule_text, end_rule) "
                "VALUES (?, ?, ?)",
                (subscriber, rule_text, end_id),
            )
            sub_id = int(cursor.lastrowid)
            unique_ids = sorted(set(all_ids))
            self._db.executemany(
                "INSERT INTO subscription_rules (sub_id, rule_id) "
                "VALUES (?, ?)",
                ((sub_id, rule_id) for rule_id in unique_ids),
            )
            self._db.executemany(
                "UPDATE atomic_rules SET refcount = refcount + 1 "
                "WHERE rule_id = ?",
                ((rule_id,) for rule_id in unique_ids),
            )
        subscription = Subscription(sub_id, subscriber, rule_text, end_id)
        return RegisteredSubscription(
            subscription, end_id, all_ids, created, diagnostics
        )

    def _analyze_candidate(
        self,
        subscriber: str,
        rule_text: str,
        decomposed: DecomposedRule,
        analyze: str,
    ) -> list["Diagnostic"]:
        """Run the pre-registration subsumption check per ``analyze``."""
        if analyze not in ANALYZE_POLICIES:
            raise ValueError(
                f"unknown analyze policy {analyze!r}; "
                f"expected one of {ANALYZE_POLICIES}"
            )
        if analyze == "off":
            return []
        from repro.analysis.subsume import check_subsumption

        report = check_subsumption(
            decomposed, self, subscriber=subscriber, source=rule_text
        )
        if analyze == "reject" and report.has_errors:
            raise RuleAnalysisError(
                f"rule rejected by pre-registration analysis: "
                f"{report.errors()[0].message}",
                diagnostics=report.diagnostics,
            )
        return list(report.diagnostics)

    def _dedupe_candidate(
        self, decomposed: DecomposedRule
    ) -> tuple[str, int | None, list["Diagnostic"]]:
        """Look the candidate's canonical form up in ``rule_canon``.

        Returns ``(canon_hash, equivalent_end_rule_or_None, diagnostics)``.
        A stored rule only counts as *equivalent* (not identical) when
        its end-rule key differs from the candidate's — identical keys
        already share atoms through :meth:`ensure_atoms`.
        """
        from repro.analysis.diagnostics import Diagnostic, Severity
        from repro.analysis.rulebase import canonicalize

        canon = canonicalize(decomposed.end)
        row = self._db.query_one(
            "SELECT rule_id FROM rule_canon WHERE canon_hash = ?",
            (canon.hash,),
        )
        if row is None:
            return canon.hash, None, []
        existing_id = int(row["rule_id"])
        diagnostics: list[Diagnostic] = []
        if self.load_atom(existing_id).key != decomposed.end.key:
            if self.dedupe == "report":
                diagnostics.append(
                    Diagnostic(
                        Severity.WARNING,
                        "MDV051",
                        f"rule is semantically equivalent to stored end "
                        f"rule {existing_id} (different spelling)",
                        hint="dedupe='merge' would share one triggering "
                        "entry",
                        source=decomposed.end.key,
                    )
                )
            else:
                diagnostics.append(
                    Diagnostic(
                        Severity.INFO,
                        "MDV051",
                        f"rule merged into equivalent stored end rule "
                        f"{existing_id}",
                        source=decomposed.end.key,
                    )
                )
        return canon.hash, existing_id, diagnostics

    def _tree_rule_ids(self, end_id: int) -> list[int]:
        """All rule ids of the stored dependency tree under ``end_id``."""
        seen: set[int] = set()
        stack = [end_id]
        while stack:
            rule_id = stack.pop()
            if rule_id in seen:
                continue
            seen.add(rule_id)
            row = self._db.query_one(
                "SELECT left_rule, right_rule FROM atomic_rules "
                "WHERE rule_id = ?",
                (rule_id,),
            )
            if row is None:
                raise SubscriptionError(f"no atomic rule with id {rule_id}")
            for child in (row["left_rule"], row["right_rule"]):
                if child is not None:
                    stack.append(int(child))
        return sorted(seen)

    def unsubscribe(self, subscriber: str, rule_text: str) -> list[int]:
        """Remove a subscription; returns the ids of atoms garbage-collected."""
        row = self._db.query_one(
            "SELECT sub_id FROM subscriptions WHERE subscriber = ? AND "
            "rule_text = ?",
            (subscriber, rule_text),
        )
        if row is None:
            raise SubscriptionError(
                f"subscriber {subscriber!r} has no subscription for this rule"
            )
        return self._remove_subscription(int(row["sub_id"]))

    def _remove_subscription(self, sub_id: int) -> list[int]:
        with self._db.transaction():
            rule_rows = self._db.query_all(
                "SELECT rule_id FROM subscription_rules WHERE sub_id = ?",
                (sub_id,),
            )
            rule_ids = [int(r["rule_id"]) for r in rule_rows]
            self._db.execute(
                "DELETE FROM subscriptions WHERE sub_id = ?", (sub_id,)
            )
            self._db.execute(
                "DELETE FROM subscription_rules WHERE sub_id = ?", (sub_id,)
            )
            self._db.executemany(
                "UPDATE atomic_rules SET refcount = refcount - 1 "
                "WHERE rule_id = ?",
                ((rule_id,) for rule_id in rule_ids),
            )
            return self._collect_dead_atoms(rule_ids)

    def _collect_dead_atoms(self, released: list[int]) -> list[int]:
        """Delete unreferenced atoms (zero refcount, no live dependents).

        Only an atom whose refcount just dropped (``released``) or whose
        last dependent was just deleted can have died, so each wave
        probes those ids and the next wave is the inputs of its dead.
        """
        removed: list[int] = []
        frontier = set(released)
        while frontier:
            rows = self._db.query_all(
                "SELECT rule_id, left_rule, right_rule FROM atomic_rules ar "
                "WHERE rule_id IN (SELECT value FROM json_each(?)) "
                "AND refcount <= 0 "
                "AND NOT EXISTS (SELECT 1 FROM rule_dependencies rd "
                "WHERE rd.source_rule = ar.rule_id) ORDER BY rule_id",
                (json.dumps(sorted(frontier)),),
            )
            frontier = set()
            for row in rows:
                self._delete_atom(int(row["rule_id"]))
                removed.append(int(row["rule_id"]))
                frontier.update(
                    int(row[side])
                    for side in ("left_rule", "right_rule")
                    if row[side] is not None
                )
        return removed

    def _delete_atom(self, rule_id: int) -> None:  # mdv: allow(MDV065): runs inside caller's transaction
        self.mutation_version += 1
        self.mutation_log.append(
            RuleMutation(self.mutation_version, rule_id)
        )
        self._db.execute(
            "DELETE FROM rule_dependencies WHERE target_rule = ?", (rule_id,)
        )
        self._db.execute(
            "DELETE FROM filter_rules_class WHERE rule_id = ?", (rule_id,)
        )
        for table in COMPARISON_TABLES.values():
            self._db.execute(f"DELETE FROM {table} WHERE rule_id = ?", (rule_id,))
        self._db.execute(
            "DELETE FROM materialized WHERE rule_id = ?", (rule_id,)
        )
        self._db.execute(
            "DELETE FROM rule_canon WHERE rule_id = ?", (rule_id,)
        )
        self._db.execute(
            "DELETE FROM atomic_rules WHERE rule_id = ?", (rule_id,)
        )
        self._node_cache.pop(rule_id, None)

    # ------------------------------------------------------------------
    # Semantic vocabulary (repro.semantics, docs/SEMANTICS.md)
    # ------------------------------------------------------------------
    def register_synonyms(self, kind: str, terms: list[str]) -> int:
        """Register a synonym set and re-expand the affected rule base."""
        with self._db.transaction():
            set_id = self.semantic_store.register_synonyms(kind, terms)
            self._reexpand_all()
        return set_id

    def register_taxonomy_edge(self, narrower: str, broader: str) -> list[int]:
        """Add a taxonomy edge; returns the re-expanded rule ids."""
        with self._db.transaction():
            added = self.semantic_store.register_taxonomy_edge(
                narrower, broader
            )
            affected = self._reexpand_all() if added else []
        self._db.metrics.gauge("semantics.taxonomy.closure_size").set(
            self.semantic_store.closure_size()
        )
        return affected

    def seed_schema_taxonomy(self, schema: "Schema") -> int:
        """Import the RDF-Schema class hierarchy into the taxonomy."""
        with self._db.transaction():
            added = self.semantic_store.seed_schema_taxonomy(schema)
            if added:
                self._reexpand_all()
        self._db.metrics.gauge("semantics.taxonomy.closure_size").set(
            self.semantic_store.closure_size()
        )
        return added

    def register_affine_mapping(
        self,
        source_property: str,
        target_property: str,
        scale: float,
        offset: float = 0.0,
    ) -> int:
        """Register an affine mapping and re-expand the rule base."""
        with self._db.transaction():
            map_id = self.semantic_store.register_affine_mapping(
                source_property, target_property, scale, offset
            )
            self._reexpand_all()
        return map_id

    def register_enum_mapping(
        self,
        source_property: str,
        target_property: str,
        pairs: list[tuple[str, str]],
    ) -> int:
        """Register an enum mapping and re-expand the rule base."""
        with self._db.transaction():
            map_id = self.semantic_store.register_enum_mapping(
                source_property, target_property, pairs
            )
            self._reexpand_all()
        return map_id

    def _reexpand_all(self) -> list[int]:
        """Re-derive every triggering rule's semantic rows.

        Vocabulary changes after registration (the marketplace's
        late-arriving taxonomy edge) invalidate previously derived
        expansions.  Each touched rule gets a mutation-log entry, so the
        counting matcher resyncs incrementally — exactly the protocol
        ordinary registration uses.  Vocabulary
        registered *before* the rules (the recommended order; see
        docs/SEMANTICS.md) makes this a no-op loop over zero rules.
        """
        if self._rewriter is None:
            return []
        rows = self._db.query_all(
            "SELECT rule_id, class FROM atomic_rules "
            "WHERE kind = 'triggering' ORDER BY rule_id"
        )
        affected: list[int] = []
        for row in rows:
            rule_id = int(row["rule_id"])
            atom = self._load_triggering(rule_id, str(row["class"]))
            self._resync_semantic_rows(rule_id, atom)
            affected.append(rule_id)
        return affected

    def _resync_semantic_rows(self, rule_id: int, atom: TriggeringAtom) -> None:  # mdv: allow(MDV065): runs inside caller's transaction
        """Drop and re-derive one rule's semantic rows (idempotent)."""
        self.mutation_version += 1
        self.mutation_log.append(
            RuleMutation(self.mutation_version, rule_id)
        )
        self._db.execute(
            "DELETE FROM filter_rules_class WHERE rule_id = ? "
            "AND semantic = 1",
            (rule_id,),
        )
        for table in COMPARISON_TABLES.values():
            self._db.execute(
                f"DELETE FROM {table} WHERE rule_id = ? AND semantic = 1",
                (rule_id,),
            )
        self._insert_semantic_rows(rule_id, atom)

    # ------------------------------------------------------------------
    # Named rules (rule-as-extension support)
    # ------------------------------------------------------------------
    def register_named_rule(
        self, name: str, rule_text: str, decomposed: DecomposedRule
    ) -> RegisteredSubscription:
        """Register a rule under a name usable as a search extension."""
        if self.named_rule(name) is not None:
            raise SubscriptionError(f"named rule {name!r} already exists")
        registration = self.register_subscription(
            f"~named~{name}", rule_text, decomposed
        )
        with self._db.transaction():
            self._db.execute(
                "INSERT INTO named_rules (name, rule_text, end_rule, class) "
                "VALUES (?, ?, ?, ?)",
                (name, rule_text, registration.end_rule, decomposed.rdf_class),
            )
        return registration

    def named_rule(self, name: str) -> tuple[int, str] | None:
        """``(end_rule_id, class)`` of a named rule, or ``None``."""
        row = self._db.query_one(
            "SELECT end_rule, class FROM named_rules WHERE name = ?", (name,)
        )
        if row is None:
            return None
        return int(row["end_rule"]), str(row["class"])

    def named_rule_types(self) -> dict[str, str]:
        """Extension name → registered class, for rule normalization."""
        rows = self._db.query_all("SELECT name, class FROM named_rules")
        return {row["name"]: row["class"] for row in rows}

    def named_rule_definitions(self) -> dict[str, str]:
        """Extension name → defining rule text, for query inlining."""
        rows = self._db.query_all("SELECT name, rule_text FROM named_rules")
        return {row["name"]: row["rule_text"] for row in rows}

    def named_producers(self) -> dict[str, AtomNode]:
        """Extension name → end atom node, for rule decomposition."""
        rows = self._db.query_all("SELECT name, end_rule FROM named_rules")
        return {
            row["name"]: self.load_atom(int(row["end_rule"])) for row in rows
        }

    # ------------------------------------------------------------------
    # Lookups used by the filter and the publisher
    # ------------------------------------------------------------------
    def end_rule_ids(self) -> set[int]:
        """Every end rule: a scan of ``subscriptions``, for analysis and
        the ablation strategies — the publish path asks
        :meth:`end_rules_among` about the rules a run produced."""
        rows = self._db.query_all("SELECT DISTINCT end_rule FROM subscriptions")
        return {int(row["end_rule"]) for row in rows}

    def end_rules_among(self, rule_ids: set[int]) -> set[int]:
        """Those of ``rule_ids`` that are some subscription's end rule
        (one ``idx_subs_end_rule`` probe per id)."""
        if not rule_ids:
            return set()
        rows = self._db.query_all(
            "SELECT j.value FROM json_each(?) j WHERE EXISTS "
            "(SELECT 1 FROM subscriptions s WHERE s.end_rule = j.value)",
            (json.dumps(sorted(rule_ids)),),
        )
        return {int(row[0]) for row in rows}

    def triggering_tables(
        self, rule_id: int, atom: TriggeringAtom
    ) -> list[str]:
        """The index tables holding rows of one triggering rule.

        The table its operator names; with a semantic degree active the
        variants of its expansion may sit in other operators' tables
        (an affine inverse under a negative scale turns ``<`` into
        ``>``), so the store is asked — one statement, one primary-key
        probe per table.
        """
        if self._rewriter is None:
            return [
                "filter_rules_class"
                if atom.is_class_only
                else filter_rules_table(str(atom.operator))
            ]
        rows = self._db.query_all(_TABLES_OF_RULE, {"rule_id": rule_id})
        return [row[0] for row in rows]

    def roles_among(self, rule_ids: set[int]) -> tuple[set[int], set[int]]:
        """``(join inputs, end rules)`` among ``rule_ids``.

        One statement: per id a probe of the ``rule_dependencies``
        primary key (does any join read this rule?) and one of
        ``idx_subs_end_rule``.  A rule can be both.
        """
        if not rule_ids:
            return set(), set()
        rows = self._db.query_all(
            "SELECT j.value, "
            "EXISTS (SELECT 1 FROM rule_dependencies rd "
            "        WHERE rd.source_rule = j.value), "
            "EXISTS (SELECT 1 FROM subscriptions s "
            "        WHERE s.end_rule = j.value) "
            "FROM json_each(?) j",
            (json.dumps(sorted(rule_ids)),),
        )
        join_inputs = {int(row[0]) for row in rows if row[1]}
        end_rules = {int(row[0]) for row in rows if row[2]}
        return join_inputs, end_rules

    def subscribers(self) -> list[str]:
        """Every distinct subscriber name, sorted (``~named~`` ones too).

        A loose index scan: one ``(subscriber, rule_text)`` autoindex
        seek per distinct name, however many rules each name holds.
        """
        rows = self._db.query_all(
            "WITH RECURSIVE names(name) AS ("
            " SELECT MIN(subscriber) FROM subscriptions"
            " UNION ALL"
            " SELECT (SELECT MIN(subscriber) FROM subscriptions"
            "         WHERE subscriber > names.name)"
            " FROM names WHERE names.name IS NOT NULL"
            ") SELECT name FROM names WHERE name IS NOT NULL"
        )
        return [row[0] for row in rows]

    def subscriptions_for(self, end_rule_ids: set[int]) -> list[Subscription]:
        if not end_rule_ids:
            return []
        rows = self._db.query_all(
            "SELECT sub_id, subscriber, rule_text, end_rule FROM "
            "subscriptions WHERE end_rule IN "
            "(SELECT value FROM json_each(?)) ORDER BY sub_id",
            (json.dumps(sorted(end_rule_ids)),),
        )
        return [
            Subscription(
                int(r["sub_id"]), r["subscriber"], r["rule_text"],
                int(r["end_rule"]),
            )
            for r in rows
        ]

    def subscriptions_of(self, subscriber: str) -> list[Subscription]:
        rows = self._db.query_all(
            "SELECT sub_id, subscriber, rule_text, end_rule FROM "
            "subscriptions WHERE subscriber = ? ORDER BY sub_id",
            (subscriber,),
        )
        return [
            Subscription(
                int(r["sub_id"]), r["subscriber"], r["rule_text"],
                int(r["end_rule"]),
            )
            for r in rows
        ]

    def atom_count(self) -> int:
        return self._db.count("atomic_rules")

    def triggering_count(self) -> int:
        return self._db.count("atomic_rules", "kind = 'triggering'")

    def join_count(self) -> int:
        return self._db.count("atomic_rules", "kind = 'join'")

    def group_count(self) -> int:
        return self._db.count("rule_groups")

    # ------------------------------------------------------------------
    # Atom reconstruction
    # ------------------------------------------------------------------
    def load_atom(self, rule_id: int) -> AtomNode:
        """Rebuild the :class:`AtomNode` tree for a stored atomic rule."""
        cached = self._node_cache.get(rule_id)
        if cached is not None:
            return cached
        row = self._db.query_one(
            "SELECT kind, class, left_rule, right_rule, group_id "
            "FROM atomic_rules WHERE rule_id = ?",
            (rule_id,),
        )
        if row is None:
            raise SubscriptionError(f"no atomic rule with id {rule_id}")
        if row["kind"] == "triggering":
            node = self._load_triggering(rule_id, str(row["class"]))
        else:
            node = self._load_join(row)
        self._node_cache[rule_id] = node
        return node

    def _load_triggering(self, rule_id: int, rdf_class: str) -> TriggeringAtom:
        # ``semantic = 0`` everywhere: reconstruction recovers the
        # subscriber's *original* atom; expansion rows are derived state.
        class_rows = self._db.query_all(
            "SELECT class FROM filter_rules_class WHERE rule_id = ? "
            "AND semantic = 0 ORDER BY class",
            (rule_id,),
        )
        if class_rows:
            return TriggeringAtom(
                rdf_class=rdf_class,
                extension_classes=tuple(r["class"] for r in class_rows),
            )
        for operator, table in COMPARISON_TABLES.items():
            rows = self._db.query_all(
                f"SELECT class, property, value, numeric FROM {table} "
                f"WHERE rule_id = ? AND semantic = 0 ORDER BY class",
                (rule_id,),
            )
            if rows:
                return TriggeringAtom(
                    rdf_class=rdf_class,
                    extension_classes=tuple(r["class"] for r in rows),
                    prop=rows[0]["property"],
                    operator=operator,
                    value=rows[0]["value"],
                    numeric=bool(rows[0]["numeric"]),
                )
        raise SubscriptionError(
            f"triggering rule {rule_id} has no index rows"
        )

    def _load_join(self, row: "sqlite3.Row") -> JoinAtom:
        group = self._db.query_one(
            "SELECT * FROM rule_groups WHERE group_id = ?",
            (row["group_id"],),
        )
        if group is None:
            raise SubscriptionError(
                f"join rule references missing group {row['group_id']}"
            )
        left = self.load_atom(int(row["left_rule"]))
        right = self.load_atom(int(row["right_rule"]))
        return JoinAtom(
            left=left,
            right=right,
            left_class=group["left_class"],
            right_class=group["right_class"],
            left_prop=group["left_property"],
            right_prop=group["right_property"],
            operator=group["operator"],
            register_side=group["register_side"],
            numeric=bool(group["numeric_compare"]),
            self_join=bool(group["self_join"]),
        )
