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
from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import TYPE_CHECKING, NamedTuple

from repro.errors import SubscriptionError
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
    from repro.rdf.schema import Schema

__all__ = [
    "RuleRegistry",
    "CreatedAtom",
    "RegisteredSubscription",
    "RuleMutation",
    "Subscription",
    "MUTATION_LOG_LIMIT",
    "SEMANTICS_MODES",
]

#: Length bound of :attr:`RuleRegistry.mutation_log`.  Far above any
#: realistic burst between two filter runs; consumers finding a gap the
#: log no longer covers fall back to a full index rebuild, so the bound
#: only caps memory, never correctness.
MUTATION_LOG_LIMIT = 4096


_ADD_SUBSCRIPTION_RULE = (
    "INSERT INTO subscription_rules (sub_id, rule_id) VALUES (?, ?)"
)
_ADD_REFERENCE = (
    "UPDATE atomic_rules SET refcount = refcount + 1 WHERE rule_id = ?"
)

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


class CreatedAtom(NamedTuple):
    """An atom a registration inserted, with the ids a join reads.

    ``left_rule``, ``right_rule`` and ``group_id`` are a join's inputs
    and rule group, ``None`` for a triggering atom.
    """

    rule_id: int
    atom: AtomNode
    left_rule: int | None = None
    right_rule: int | None = None
    group_id: int | None = None


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
    created: list[CreatedAtom] = field(default_factory=list)

    @property
    def reused_existing_atoms(self) -> bool:
        return len(self.created) < len(self.all_rule_ids)

    @property
    def end_is_new(self) -> bool:
        """Whether the end rule is one of the created atoms (the last)."""
        return bool(self.created) and self.created[-1].rule_id == self.end_rule


class RuleRegistry:
    """Catalogue of atomic rules, dependencies, groups and subscriptions."""

    def __init__(
        self,
        db: Database,
        deduplicate: bool = True,
        semantics: str = "off",
    ):
        self._db = db
        #: Merge equal atomic rules across subscriptions (the paper's
        #: design).  ``False`` disables the dependency-graph merge — an
        #: ablation knob: every subscription gets private atoms.
        self.deduplicate = deduplicate
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
        #: Cache of reconstructed atom nodes, keyed by rule id.  Only
        #: :meth:`load_atom` fills it, never an insert: an atom whose
        #: transaction rolls back (its AUTOINCREMENT id is reused by the
        #: next insert) must not stay reachable under that id.
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
        #: Named rules for rule compilation: read from the store once,
        #: then kept up to date by :meth:`register_named_rule` (see
        #: :meth:`forget_named_rules` for a rollback).
        self._named_types: dict[str, str] | None = None
        self._named_producers: dict[str, AtomNode] | None = None

    # ------------------------------------------------------------------
    # Atom persistence (dependency-graph merge)
    # ------------------------------------------------------------------
    def ensure_atoms(
        self, decomposed: DecomposedRule
    ) -> tuple[int, list[int], list[CreatedAtom]]:
        """Persist all atoms of a decomposition, deduplicating by key.

        Returns ``(end_rule_id, all_rule_ids, created)`` where ``created``
        holds the newly inserted atoms in children-first order.  A new
        atom starts with no references.
        """
        with self._db.transaction():
            return self._ensure_atoms(decomposed, refcount=0)

    def _ensure_atoms(  # mdv: allow(MDV065): runs inside caller's transaction
        self, decomposed: DecomposedRule, refcount: int
    ) -> tuple[int, list[int], list[CreatedAtom]]:
        """:meth:`ensure_atoms`, new atoms inserted with ``refcount``."""
        atoms = decomposed.atoms
        ids: dict[str, int] = {}
        if self.deduplicate:
            single = atoms[0] if len(atoms) == 1 else None
            if isinstance(single, TriggeringAtom):
                # Insert first; a stored atom is looked up only when the
                # UNIQUE (rule_text) constraint finds it.
                rule_id = self._insert_triggering(single, refcount)
                if rule_id is not None:
                    return rule_id, [rule_id], [CreatedAtom(rule_id, single)]
            ids = self._lookup_keys(atoms)
        created: list[CreatedAtom] = []
        for atom in atoms:
            if atom.key in ids:
                continue
            if isinstance(atom, TriggeringAtom):
                rule_id = self._insert_triggering(atom, refcount)
                assert rule_id is not None, "looked up above: not stored"
                entry = CreatedAtom(rule_id, atom)
            else:
                # Children come first, so both inputs have ids.
                entry = self._insert_join(
                    atom, ids[atom.left.key], ids[atom.right.key], refcount
                )
            ids[atom.key] = entry.rule_id
            created.append(entry)
        end_id = ids[decomposed.end.key]
        all_ids = [ids[atom.key] for atom in atoms]
        return end_id, all_ids, created

    def _lookup_keys(self, atoms: list[AtomNode]) -> dict[str, int]:
        """Stored rule id per key, for those of ``atoms`` already stored
        (one statement: a ``rule_text`` probe per key)."""
        # One variable per atom of one rule, never per rule of the base.
        rows = self._db.query_all(
            "SELECT rule_text, rule_id FROM atomic_rules WHERE rule_text "
            f"IN ({', '.join('?' * len(atoms))})",
            [atom.key for atom in atoms],
        )
        return {row[0]: int(row[1]) for row in rows}

    def bulk_register_triggering(
        self,
        subscriber: str,
        rules: "Iterable[tuple[str, TriggeringAtom]]",
    ) -> list[CreatedAtom]:
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
        created: list[CreatedAtom] = []
        with self._db.transaction():
            for rule_text, atom in rules:
                rule_id = self._insert_triggering(atom, refcount=1)
                if rule_id is None:
                    rule_id = self._lookup_keys([atom])[atom.key]
                    self._db.execute(_ADD_REFERENCE, (rule_id,))
                else:
                    created.append(CreatedAtom(rule_id, atom))
                cursor = self._db.execute(
                    "INSERT INTO subscriptions (subscriber, rule_text, "
                    "end_rule) VALUES (?, ?, ?)",
                    (subscriber, rule_text, rule_id),
                )
                sub_id = int(cursor.lastrowid)
                self._db.execute(_ADD_SUBSCRIPTION_RULE, (sub_id, rule_id))
        return created

    def _stored_key(self, atom: AtomNode) -> str:
        """The rule text persisted for ``atom``.

        With deduplication disabled a unique salt keeps the UNIQUE
        constraint satisfied while preventing any sharing.  The salt
        exceeds every stored rule id, and every stored salt is at most
        its own row's id, so a registry reopened on the store cannot
        reuse one.
        """
        if self.deduplicate:
            return atom.key
        salt = self._db.scalar(
            "SELECT COALESCE(MAX(rule_id), 0) + 1 FROM atomic_rules"
        )
        return f"{atom.key}~!{salt}"

    def _execute_rows(
        self, sql: str, rows: Sequence[tuple[object, ...]]
    ) -> None:
        """One statement for ``rows``: ``execute`` for a single row."""
        if len(rows) == 1:
            self._db.execute(sql, rows[0])
        elif rows:
            self._db.executemany(sql, rows)

    def _insert_triggering(  # mdv: allow(MDV065): runs inside caller's transaction
        self, atom: TriggeringAtom, refcount: int
    ) -> int | None:
        """Insert ``atom`` with its index rows; ``None`` if it is stored."""
        cursor = self._db.execute(
            "INSERT INTO atomic_rules (kind, rule_text, class, refcount) "
            "VALUES ('triggering', ?, ?, ?) "
            "ON CONFLICT (rule_text) DO NOTHING",
            (self._stored_key(atom), atom.rdf_class, refcount),
        )
        if cursor.rowcount != 1:
            return None
        rule_id = int(cursor.lastrowid)
        self.mutation_version += 1
        self.mutation_log.append(
            RuleMutation(self.mutation_version, rule_id)
        )
        if atom.is_class_only:
            self._execute_rows(
                "INSERT INTO filter_rules_class (rule_id, class) VALUES (?, ?)",
                [(rule_id, cls) for cls in atom.extension_classes],
            )
        else:
            table = filter_rules_table(str(atom.operator))
            self._execute_rows(
                f"INSERT INTO {table} (rule_id, class, property, value, "
                f"numeric) VALUES (?, ?, ?, ?, ?)",
                [
                    (rule_id, cls, atom.prop, atom.value, int(atom.numeric))
                    for cls in atom.extension_classes
                ],
            )
        self._insert_semantic_rows(rule_id, atom)
        return rule_id

    def _insert_semantic_rows(self, rule_id: int, atom: TriggeringAtom) -> None:  # mdv: allow(MDV065): runs inside caller's transaction
        """Add the active degree's expansion rows for one base atom.

        Every row carries ``semantic = 1`` so reconstruction
        (:meth:`_load_triggering`) can recover the subscriber's original
        predicate; both triggering paths give multiple index rows of one
        rule OR semantics, so no matcher change is needed.  ``INSERT OR IGNORE`` everywhere: expansions
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

    def _insert_join(  # mdv: allow(MDV065): runs inside caller's transaction
        self, atom: JoinAtom, left_id: int, right_id: int, refcount: int
    ) -> CreatedAtom:
        group_id = self._ensure_group(atom)
        cursor = self._db.execute(
            "INSERT INTO atomic_rules (kind, rule_text, class, left_rule, "
            "right_rule, group_id, refcount) "
            "VALUES ('join', ?, ?, ?, ?, ?, ?)",
            (
                self._stored_key(atom), atom.rdf_class, left_id, right_id,
                group_id, refcount,
            ),
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
        return CreatedAtom(rule_id, atom, left_id, right_id, group_id)

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
    ) -> RegisteredSubscription:
        """Register a subscription and merge its atoms into the graph.

        One transaction.  A new atom counts this subscription's
        reference from its insert on; only reused atoms are updated.
        """
        with self._db.transaction():
            end_id, all_ids, created = self._ensure_atoms(
                decomposed, refcount=1
            )
            # The UNIQUE (subscriber, rule_text) constraint is the
            # duplicate check; any other constraint still raises.
            cursor = self._db.execute(
                "INSERT INTO subscriptions (subscriber, rule_text, end_rule) "
                "VALUES (?, ?, ?) "
                "ON CONFLICT (subscriber, rule_text) DO NOTHING",
                (subscriber, rule_text, end_id),
            )
            if cursor.rowcount != 1:
                raise SubscriptionError(
                    f"subscriber {subscriber!r} already registered this rule"
                )
            sub_id = int(cursor.lastrowid)
            unique_ids = sorted(set(all_ids))
            self._execute_rows(
                _ADD_SUBSCRIPTION_RULE,
                [(sub_id, rule_id) for rule_id in unique_ids],
            )
            new = {entry.rule_id for entry in created}
            self._execute_rows(
                _ADD_REFERENCE,
                [(rule_id,) for rule_id in unique_ids if rule_id not in new],
            )
        subscription = Subscription(sub_id, subscriber, rule_text, end_id)
        return RegisteredSubscription(subscription, end_id, all_ids, created)

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
        with self._db.transaction():
            registration = self.register_subscription(
                f"~named~{name}", rule_text, decomposed
            )
            self._db.execute(
                "INSERT INTO named_rules (name, rule_text, end_rule, class) "
                "VALUES (?, ?, ?, ?)",
                (name, rule_text, registration.end_rule, decomposed.rdf_class),
            )
        # Committed, or joined to the caller's transaction: a caller
        # that rolls it back calls forget_named_rules().
        if self._named_types is not None:
            self._named_types[name] = decomposed.rdf_class
        if self._named_producers is not None:
            self._named_producers[name] = decomposed.end
        return registration

    def forget_named_rules(self) -> None:
        """Drop the named-rule memo; the next lookup reads the store.

        For a caller whose transaction rolled back a
        :meth:`register_named_rule` (the provider's operations do).
        """
        self._named_types = None
        self._named_producers = None

    def named_rule(self, name: str) -> tuple[int, str] | None:
        """``(end_rule_id, class)`` of a named rule, or ``None``."""
        row = self._db.query_one(
            "SELECT end_rule, class FROM named_rules WHERE name = ?", (name,)
        )
        if row is None:
            return None
        return int(row["end_rule"]), str(row["class"])

    def named_rule_types(self) -> Mapping[str, str]:
        """Extension name → registered class, for rule normalization
        (read-only; the store is read once)."""
        if self._named_types is None:
            rows = self._db.query_all("SELECT name, class FROM named_rules")
            self._named_types = {row["name"]: row["class"] for row in rows}
        return MappingProxyType(self._named_types)

    def named_rule_definitions(self) -> dict[str, str]:
        """Extension name → defining rule text, for query inlining."""
        rows = self._db.query_all("SELECT name, rule_text FROM named_rules")
        return {row["name"]: row["rule_text"] for row in rows}

    def named_producers(self) -> Mapping[str, AtomNode]:
        """Extension name → end atom node, for rule decomposition
        (read-only; the store is read once)."""
        if self._named_producers is None:
            rows = self._db.query_all(
                "SELECT name, end_rule FROM named_rules"
            )
            self._named_producers = {
                row["name"]: self.load_atom(int(row["end_rule"]))
                for row in rows
            }
        return MappingProxyType(self._named_producers)

    # ------------------------------------------------------------------
    # Lookups used by the filter and the publisher
    # ------------------------------------------------------------------
    def end_rule_ids(self) -> set[int]:
        """Every end rule: a scan of ``subscriptions``, for tests and the
        end-to-end benchmark's wrap point — the publish path asks
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
