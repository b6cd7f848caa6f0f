"""Whole-registry static optimization: canonical forms, covering, advice.

The per-rule linter (:mod:`repro.analysis.lint`) and the pairwise
subsumption check (:mod:`repro.analysis.subsume`) answer questions about
*one* candidate rule.  This module audits the *entire* registered rule
base at once — the classic covering/merging analysis of content-based
publish/subscribe, done statically over the stored triggering index:

- **canonicalization** — every end rule is normalized into a hashed
  canonical form (identity-join chains flattened, predicate conjuncts
  merged through the interval domains, numeric literals normalized,
  leaves re-sorted and re-folded the way :mod:`repro.rules.decompose`
  folds them).  Equal canonical keys ⇒ equal match sets, so bucketing
  the registry by canonical hash yields its semantic equivalence
  classes (``MDV050``/``MDV051``) and its dead rules (``MDV053``);
- **scalable covering** — instead of the O(n²) pairwise walk, rules are
  bucketed by tree shape and, per varying leaf slot, indexed by
  ``(extension, property, operator family)``: ordered bounds form
  sorted chains whose immediate predecessor is a covering witness,
  equality/exclusion pins live in hash maps, and ``contains`` needles
  are probed by substring enumeration.  Every emitted covering edge is
  re-checked with :func:`repro.analysis.subsume.tree_direction`, so the
  report is sound by construction (``MDV052``);
- an **index advisor** that reads ``filter_data`` and rule-index
  statistics and recommends ``join_evaluation`` / ``triggering`` knob
  settings for the observed workload (``MDV054``).

:func:`audit_registry` drives all three and returns a
:class:`RegistryAudit` whose :meth:`~RegistryAudit.to_dict` is the
``ANALYSIS.json`` payload of ``python -m repro.analysis audit``.

Canonicalization is deliberately conservative without a schema: only
*pairwise* predicate implications are applied (sound for multi-valued
properties, whose predicates quantify existentially over elements).
With a schema, single-valued slots additionally get full interval-domain
merging — equality-pin absorption and unsatisfiability detection.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from time import perf_counter

from repro.analysis.diagnostics import AnalysisReport, Severity
from repro.analysis.intervals import (
    NumericConstraints,
    StringConstraints,
    predicate_implies,
)
from repro.analysis.subsume import tree_direction
from repro.errors import UnknownClassError, UnknownPropertyError
from repro.obs.metrics import MetricsRegistry, default_registry
from repro.rdf.schema import Schema
from repro.rules.atoms import AtomNode, JoinAtom, TriggeringAtom, make_join
from repro.storage.engine import Database
from repro.storage.schema import COMPARISON_TABLES
from repro.text.ngrams import TRIGRAM_LENGTH

__all__ = [
    "CanonicalRule",
    "canonicalize",
    "canonical_hash",
    "load_registry_atoms",
    "CoveringEdge",
    "find_covering_edges",
    "IndexAdvice",
    "advise_indexes",
    "RegistryAudit",
    "audit_registry",
]

#: Pairwise ``tree_direction`` is only attempted inside a shape bucket
#: with several varying leaf slots when the bucket is small; larger
#: buckets fall back to per-slot index probes (documented incompleteness
#: — never unsoundness, since every edge is re-checked).
PAIRWISE_BUCKET_CAP = 256

#: Substring enumeration for ``contains`` covering stops at this needle
#: length (quadratically many substrings).
MAX_ENUMERATED_NEEDLE = 64

#: Linear witness scans (exclusion pins vs. needle maps) give up after
#: this many probes.
MAX_WITNESS_SCAN = 256

_LOWER_OPS = (">", ">=")
_UPPER_OPS = ("<", "<=")


# ----------------------------------------------------------------------
# Canonicalization
# ----------------------------------------------------------------------
def _num_text(value: str) -> str:
    """Canonical rendering of a numeric literal ('64.0' → '64')."""
    number = float(value)
    if number.is_integer():
        return str(int(number))
    return repr(number)


def _canon_leaf(atom: TriggeringAtom) -> TriggeringAtom:
    ext = tuple(sorted(set(atom.extension_classes)))
    value = atom.value
    if atom.numeric and value is not None:
        value = _num_text(value)
    if ext == atom.extension_classes and value == atom.value:
        return atom
    return TriggeringAtom(
        atom.rdf_class, ext, atom.prop, atom.operator, value, atom.numeric
    )


def _single_valued(schema: Schema | None, rdf_class: str, prop: str) -> bool:
    """Whether ``prop`` is known single-valued (False when unknown)."""
    if schema is None:
        return False
    try:
        return not schema.property_def(rdf_class, prop).multivalued
    except (UnknownClassError, UnknownPropertyError):
        return False


def _make_pred(
    template: TriggeringAtom, operator: str, value: str
) -> TriggeringAtom:
    return TriggeringAtom(
        template.rdf_class,
        template.extension_classes,
        template.prop,
        operator,
        value,
        template.numeric,
    )


def _inside_bounds(domain: NumericConstraints, value: float) -> bool:
    """Whether ``value`` lies inside the domain's interval bounds."""
    if domain.lower is not None and (
        value < domain.lower
        or (domain.lower_strict and value == domain.lower)
    ):
        return False
    if domain.upper is not None and (
        value > domain.upper
        or (domain.upper_strict and value == domain.upper)
    ):
        return False
    return True


def _merge_single_valued(
    atoms: list[TriggeringAtom],
) -> tuple[list[TriggeringAtom], bool]:
    """Full interval-domain merge of one single-valued predicate group."""
    template = atoms[0]
    if template.numeric:
        numeric_domain = NumericConstraints()
        for atom in atoms:
            assert atom.operator is not None and atom.value is not None
            numeric_domain.add(atom.operator, float(atom.value))
        if not numeric_domain.is_satisfiable():
            return atoms, False
        merged: list[TriggeringAtom] = []
        if numeric_domain.eq is not None:
            merged.append(
                _make_pred(template, "=", _num_text(str(numeric_domain.eq)))
            )
        else:
            if numeric_domain.lower is not None:
                operator = ">" if numeric_domain.lower_strict else ">="
                merged.append(
                    _make_pred(
                        template, operator, _num_text(str(numeric_domain.lower))
                    )
                )
            if numeric_domain.upper is not None:
                operator = "<" if numeric_domain.upper_strict else "<="
                merged.append(
                    _make_pred(
                        template, operator, _num_text(str(numeric_domain.upper))
                    )
                )
            for value in sorted(numeric_domain.excluded):
                if _inside_bounds(numeric_domain, value):
                    merged.append(
                        _make_pred(template, "!=", _num_text(str(value)))
                    )
        return (merged or atoms[:1]), True
    string_domain = StringConstraints()
    for atom in atoms:
        assert atom.operator is not None and atom.value is not None
        string_domain.add(atom.operator, atom.value)
    if not string_domain.is_satisfiable():
        return atoms, False
    merged = []
    if string_domain.eq is not None:
        merged.append(_make_pred(template, "=", string_domain.eq))
    else:
        needles = sorted(string_domain.substrings)
        for needle in needles:
            if any(needle != other and needle in other for other in needles):
                continue  # a longer needle already requires this one
            merged.append(_make_pred(template, "contains", needle))
        for value in sorted(string_domain.excluded):
            if not any(sub not in value for sub in string_domain.substrings):
                merged.append(_make_pred(template, "!=", value))
    return (merged or atoms[:1]), True


def _merge_pairwise(atoms: list[TriggeringAtom]) -> list[TriggeringAtom]:
    """Drop predicates implied by a *single* other predicate.

    Per-element implication lifts through the existential quantification
    of multi-valued slots, so this is the strongest merge that is sound
    without schema knowledge.  Of a mutually-implying pair the smaller
    key survives.
    """
    kept: list[TriggeringAtom] = []
    for i, atom in enumerate(atoms):
        assert atom.operator is not None and atom.value is not None
        dropped = False
        for j, other in enumerate(atoms):
            if i == j:
                continue
            assert other.operator is not None and other.value is not None
            if not predicate_implies(
                other.operator, other.value, atom.operator, atom.value,
                atom.numeric,
            ):
                continue
            mutual = predicate_implies(
                atom.operator, atom.value, other.operator, other.value,
                atom.numeric,
            )
            if not (mutual and i < j):
                dropped = True
                break
        if not dropped:
            kept.append(atom)
    return kept


def _canon_identity_group(
    rdf_class: str,
    leaves: list[AtomNode],
    schema: Schema | None,
) -> tuple[list[AtomNode], bool]:
    """Merge the flattened leaves of one identity-join chain."""
    satisfiable = True
    predicate_groups: dict[
        tuple[tuple[str, ...], str, bool], list[TriggeringAtom]
    ] = {}
    class_only: dict[tuple[str, ...], TriggeringAtom] = {}
    opaque: list[AtomNode] = []
    for leaf in leaves:
        if not isinstance(leaf, TriggeringAtom):
            opaque.append(leaf)
        elif leaf.is_class_only:
            class_only.setdefault(leaf.extension_classes, leaf)
        else:
            assert leaf.prop is not None
            key = (leaf.extension_classes, leaf.prop, leaf.numeric)
            predicate_groups.setdefault(key, []).append(leaf)

    predicates: list[TriggeringAtom] = []
    for (__, prop, __numeric), group in predicate_groups.items():
        unique = {atom.key: atom for atom in group}
        group = sorted(unique.values(), key=lambda atom: atom.key)
        if len(group) == 1:
            predicates.extend(group)
            continue
        if _single_valued(schema, group[0].rdf_class, prop):
            merged, group_ok = _merge_single_valued(group)
            satisfiable = satisfiable and group_ok
            predicates.extend(merged)
        else:
            predicates.extend(_merge_pairwise(group))

    # A class-only leaf is redundant next to any leaf whose extension is
    # no wider: predicate leaves and opaque join subtrees both register
    # resources drawn from their class's extension.
    kept_class_only: list[TriggeringAtom] = []
    for ext, atom in sorted(class_only.items()):
        ext_set = set(ext)
        if any(
            set(pred.extension_classes) <= ext_set for pred in predicates
        ):
            continue
        if opaque and set(class_only) and ext_set >= _widest_extension(
            leaves, rdf_class, ext
        ):
            # The opaque subtree registers rdf_class resources; when this
            # class-only leaf is over that same extension (or wider) the
            # subtree already implies it.
            continue
        if any(
            other_ext != ext and set(other_ext) < ext_set
            for other_ext in class_only
        ):
            continue
        kept_class_only.append(atom)

    merged_leaves: list[AtomNode] = [*predicates, *kept_class_only, *opaque]
    if not merged_leaves:  # nothing survived: keep one class-only anchor
        merged_leaves = [next(iter(sorted(class_only.items())))[1]]
    return merged_leaves, satisfiable


def _widest_extension(
    leaves: list[AtomNode], rdf_class: str, fallback: tuple[str, ...]
) -> set[str]:
    """The extension-class set of ``rdf_class`` as recorded on any leaf."""
    for leaf in leaves:
        if isinstance(leaf, TriggeringAtom) and leaf.rdf_class == rdf_class:
            return set(leaf.extension_classes)
    return set(fallback)


def _is_mergeable_identity(node: AtomNode, rdf_class: str) -> bool:
    return (
        isinstance(node, JoinAtom)
        and node.is_identity
        and not node.self_join
        and node.left_class == rdf_class
        and node.right_class == rdf_class
    )


def _canon(
    node: AtomNode, schema: Schema | None
) -> tuple[AtomNode, bool]:
    if isinstance(node, TriggeringAtom):
        return _canon_leaf(node), True
    if not _is_mergeable_identity(node, node.left_class):
        left, left_ok = _canon(node.left, schema)
        right, right_ok = _canon(node.right, schema)
        rebuilt = make_join(
            left,
            node.left_class,
            node.left_prop,
            node.operator,
            right,
            node.right_class,
            node.right_prop,
            node.register_side,
            node.numeric,
            node.self_join,
        )
        return rebuilt, left_ok and right_ok

    rdf_class = node.left_class
    leaves: list[AtomNode] = []
    satisfiable = True

    def flatten(current: AtomNode) -> None:
        nonlocal satisfiable
        if _is_mergeable_identity(current, rdf_class):
            join = current
            assert isinstance(join, JoinAtom)
            flatten(join.left)
            flatten(join.right)
        else:
            canonical, child_ok = _canon(current, schema)
            satisfiable = satisfiable and child_ok
            leaves.append(canonical)

    flatten(node)
    merged, group_ok = _canon_identity_group(rdf_class, leaves, schema)
    satisfiable = satisfiable and group_ok

    ordered = sorted(merged, key=lambda leaf: leaf.key)
    rebuilt = ordered[0]
    for leaf in ordered[1:]:
        rebuilt = make_join(
            rebuilt, rdf_class, None, "=", leaf, rdf_class, None,
            register_side="left",
        )
    return rebuilt, satisfiable


@dataclass(frozen=True, slots=True)
class CanonicalRule:
    """The canonical form of one end rule.

    Two end rules with equal :attr:`key` have equal match sets on every
    document stream; unsatisfiable rules all share one per-class key
    (their match sets are equal — empty — regardless of spelling).
    """

    node: AtomNode
    satisfiable: bool

    @property
    def key(self) -> str:
        if not self.satisfiable:
            return f"UNSAT[{self.node.rdf_class}]"
        return self.node.key

    @property
    def hash(self) -> str:
        return hashlib.sha256(self.key.encode()).hexdigest()


def canonicalize(end: AtomNode, schema: Schema | None = None) -> CanonicalRule:
    """Normalize one end rule's dependency tree into canonical form."""
    node, satisfiable = _canon(end, schema)
    return CanonicalRule(node, satisfiable)


def canonical_hash(end: AtomNode, schema: Schema | None = None) -> str:
    """The canonical-form hash used by the registry's ``dedupe`` knob."""
    return canonicalize(end, schema).hash


# ----------------------------------------------------------------------
# Bulk registry loading
# ----------------------------------------------------------------------
def load_registry_atoms(db: Database) -> dict[int, AtomNode]:
    """Reconstruct every stored atom tree with O(1) full-table scans.

    :meth:`RuleRegistry.load_atom` issues several queries per atom —
    fine for one rule, fatal for a 100k-rule audit.  Insertion order is
    children-first (``AUTOINCREMENT`` ids), so one pass in ``rule_id``
    order can build every tree bottom-up.
    """
    # ``semantic = 0`` everywhere: the audit reasons over the
    # subscribers' original predicates; semantic expansion rows are
    # derived state (repro.semantics) and would corrupt reconstruction.
    extensions: dict[int, list[str]] = {}
    predicates: dict[int, tuple[str, str, str, bool]] = {}
    for operator, table in COMPARISON_TABLES.items():
        for row in db.query_all(
            f"SELECT rule_id, class, property, value, numeric FROM {table} "
            f"WHERE semantic = 0"
        ):
            rule_id = int(row["rule_id"])
            extensions.setdefault(rule_id, []).append(row["class"])
            predicates[rule_id] = (
                row["property"], operator, row["value"], bool(row["numeric"])
            )
    for row in db.query_all(
        "SELECT rule_id, class FROM filter_rules_class WHERE semantic = 0"
    ):
        extensions.setdefault(int(row["rule_id"]), []).append(row["class"])

    groups: dict[int, tuple[str, str, str | None, str | None, str, str, bool, bool]] = {}
    for row in db.query_all(
        "SELECT group_id, left_class, right_class, left_property, "
        "right_property, operator, register_side, numeric_compare, "
        "self_join FROM rule_groups"
    ):
        groups[int(row["group_id"])] = (
            row["left_class"],
            row["right_class"],
            row["left_property"],
            row["right_property"],
            row["operator"],
            row["register_side"],
            bool(row["numeric_compare"]),
            bool(row["self_join"]),
        )

    nodes: dict[int, AtomNode] = {}
    for row in db.query_all(
        "SELECT rule_id, kind, class, left_rule, right_rule, group_id "
        "FROM atomic_rules ORDER BY rule_id"
    ):
        rule_id = int(row["rule_id"])
        if row["kind"] == "triggering":
            ext = tuple(sorted(extensions.get(rule_id, (row["class"],))))
            predicate = predicates.get(rule_id)
            if predicate is None:
                nodes[rule_id] = TriggeringAtom(row["class"], ext)
            else:
                prop, operator, value, numeric = predicate
                nodes[rule_id] = TriggeringAtom(
                    row["class"], ext, prop, operator, value, numeric
                )
        else:
            attrs = groups[int(row["group_id"])]
            nodes[rule_id] = JoinAtom(
                left=nodes[int(row["left_rule"])],
                right=nodes[int(row["right_rule"])],
                left_class=attrs[0],
                right_class=attrs[1],
                left_prop=attrs[2],
                right_prop=attrs[3],
                operator=attrs[4],
                register_side=attrs[5],
                numeric=attrs[6],
                self_join=attrs[7],
            )
    return nodes


# ----------------------------------------------------------------------
# Scalable covering (shadowed rules)
# ----------------------------------------------------------------------
@dataclass(frozen=True, slots=True)
class CoveringEdge:
    """One covering-graph edge: ``covered``'s matches ⊆ ``covering``'s."""

    covered: int
    covering: int

    def to_dict(self) -> dict[str, int]:
        return {"covered": self.covered, "covering": self.covering}


def _leaves(node: AtomNode) -> list[TriggeringAtom]:
    if isinstance(node, TriggeringAtom):
        return [node]
    return [*_leaves(node.left), *_leaves(node.right)]


def _shape(node: AtomNode) -> str:
    if isinstance(node, TriggeringAtom):
        return "T"
    return f"J({_shape(node.left)},{_shape(node.right)}){node.group_signature}"


class _SlotIndex:
    """Covering witnesses among triggering atoms filling one leaf slot.

    Atoms are grouped by ``(extension set, property, numeric)`` and, per
    group, by operator family.  Ordered bounds sort into chains where
    the immediate predecessor is always a witness; pins and needles sit
    in hash maps probed per family (see the module docstring).
    """

    def __init__(self, items: list[tuple[int, TriggeringAtom]]):
        self._class_only: list[tuple[frozenset[str], int]] = []
        self._slots: dict[
            tuple[frozenset[str], str, bool], _FamilyMaps
        ] = {}
        extension_sets: set[frozenset[str]] = set()
        for item_id, atom in items:
            ext = frozenset(atom.extension_classes)
            extension_sets.add(ext)
            if atom.is_class_only:
                self._class_only.append((ext, item_id))
            else:
                assert atom.prop is not None
                slot_key = (ext, atom.prop, atom.numeric)
                self._slots.setdefault(slot_key, _FamilyMaps()).add(
                    item_id, atom
                )
        self._class_only.sort(key=lambda entry: (sorted(entry[0]), entry[1]))
        self._extension_sets = sorted(extension_sets, key=sorted)
        for maps in self._slots.values():
            maps.freeze()

    def witness(self, item_id: int, atom: TriggeringAtom) -> int | None:
        """An item covering ``atom`` (``None`` if no witness found)."""
        ext = frozenset(atom.extension_classes)
        for other_ext, other_id in self._class_only:
            if other_id == item_id:
                continue
            if atom.is_class_only and not (ext < other_ext):
                continue
            if not atom.is_class_only and not (ext <= other_ext):
                continue
            return other_id
        if atom.is_class_only:
            return None
        assert atom.prop is not None
        for other_ext in self._extension_sets:
            if not (ext <= other_ext):
                continue
            maps = self._slots.get((other_ext, atom.prop, atom.numeric))
            if maps is None:
                continue
            found = maps.witness(item_id, atom, strict_ext=other_ext != ext)
            if found is not None:
                return found
        return None


class _FamilyMaps:
    """Per-(extension, property, numeric) operator-family structures."""

    def __init__(self) -> None:
        self.eq: dict[str, int] = {}
        self.ne: dict[str, int] = {}
        self.contains: dict[str, int] = {}
        self.lowers: list[tuple[float, int, int, str, str]] = []
        self.uppers: list[tuple[float, int, int, str, str]] = []
        self._lower_pos: dict[int, int] = {}
        self._upper_pos: dict[int, int] = {}
        self._ne_scan: list[tuple[str, int]] = []
        self._contains_scan: list[tuple[str, int]] = []
        self._needle_lengths: tuple[int, ...] = ()

    def add(self, item_id: int, atom: TriggeringAtom) -> None:
        assert atom.operator is not None and atom.value is not None
        operator, value = atom.operator, atom.value
        if operator == "=":
            self.eq.setdefault(value, item_id)
        elif operator == "!=":
            self.ne.setdefault(value, item_id)
        elif operator == "contains":
            self.contains.setdefault(value, item_id)
        elif operator in _LOWER_OPS:
            rank = 0 if operator == ">=" else 1  # closed is more general
            self.lowers.append(
                (float(value), rank, item_id, operator, value)
            )
        elif operator in _UPPER_OPS:
            rank = 0 if operator == "<=" else 1
            self.uppers.append(
                (-float(value), rank, item_id, operator, value)
            )

    def freeze(self) -> None:
        self.lowers.sort(key=lambda entry: entry[:3])
        self.uppers.sort(key=lambda entry: entry[:3])
        self._lower_pos = {
            entry[2]: index for index, entry in enumerate(self.lowers)
        }
        self._upper_pos = {
            entry[2]: index for index, entry in enumerate(self.uppers)
        }
        self._ne_scan = sorted(self.ne.items())[:MAX_WITNESS_SCAN]
        self._contains_scan = sorted(self.contains.items())[:MAX_WITNESS_SCAN]
        self._needle_lengths = tuple(
            sorted({len(needle) for needle in self.contains})
        )

    def _chain_witness(
        self,
        chain: list[tuple[float, int, int, str, str]],
        positions: dict[int, int],
        item_id: int,
        atom: TriggeringAtom,
    ) -> int | None:
        """The immediate predecessor of ``atom`` in a sorted bound chain."""
        index = positions.get(item_id)
        if index is not None:
            return chain[index - 1][2] if index else None
        # atom is not part of this chain (foreign extension set): the
        # most general chain element is the only candidate worth trying.
        if chain:
            assert atom.operator is not None and atom.value is not None
            head = chain[0]
            if predicate_implies(
                atom.operator, atom.value, head[3], head[4], atom.numeric
            ):
                return head[2]
        return None

    def witness(
        self, item_id: int, atom: TriggeringAtom, strict_ext: bool
    ) -> int | None:
        assert atom.operator is not None and atom.value is not None
        operator, value, numeric = atom.operator, atom.value, atom.numeric
        if operator == "=":
            same = self.eq.get(value)
            if strict_ext and same is not None and same != item_id:
                return same
            for chain in (self.lowers, self.uppers):
                if chain:
                    head = chain[0]
                    if head[2] != item_id and predicate_implies(
                        "=", value, head[3], head[4], numeric
                    ):
                        return head[2]
            for other_value, other_id in self._ne_scan:
                if other_id != item_id and predicate_implies(
                    "=", value, "!=", other_value, numeric
                ):
                    return other_id
            if not numeric:
                found = self._needle_witness(value, item_id)
                if found is not None:
                    return found
            return None
        if operator in _LOWER_OPS:
            found = self._chain_witness(
                self.lowers, self._lower_pos, item_id, atom
            )
            if found is not None:
                return found
            return self._exclusion_witness(atom, item_id)
        if operator in _UPPER_OPS:
            found = self._chain_witness(
                self.uppers, self._upper_pos, item_id, atom
            )
            if found is not None:
                return found
            return self._exclusion_witness(atom, item_id)
        if operator == "!=":
            same = self.ne.get(value)
            if strict_ext and same is not None and same != item_id:
                return same
            if not numeric:
                for needle, other_id in self._contains_scan:
                    if other_id != item_id and needle not in value:
                        return other_id
            return None
        if operator == "contains":
            found = self._needle_witness(value, item_id)
            if found is not None:
                return found
            for other_value, other_id in self._ne_scan:
                if other_id != item_id and value not in other_value:
                    return other_id
            return None
        return None

    def _needle_witness(self, value: str, item_id: int) -> int | None:
        """A ``contains`` atom whose needle is a proper part of ``value``."""
        if not self.contains:
            return None
        if len(value) <= MAX_ENUMERATED_NEEDLE:
            # Only lengths that actually occur among the stored needles
            # can hit the map — a CON-style base of equal-length tokens
            # costs one probe per start offset, not one per substring.
            for length in self._needle_lengths:
                if length > len(value):
                    break
                for start in range(len(value) - length + 1):
                    found = self.contains.get(value[start : start + length])
                    if found is not None and found != item_id:
                        return found
            return None
        for needle, other_id in self._contains_scan:
            if other_id != item_id and needle != value and needle in value:
                return other_id
        return None

    def _exclusion_witness(
        self, atom: TriggeringAtom, item_id: int
    ) -> int | None:
        """A ``!=`` pin lying outside ``atom``'s half-open interval."""
        assert atom.operator is not None and atom.value is not None
        for other_value, other_id in self._ne_scan:
            if other_id != item_id and predicate_implies(
                atom.operator, atom.value, "!=", other_value, atom.numeric
            ):
                return other_id
        return None


def find_covering_edges(
    representatives: list[tuple[int, AtomNode]],
) -> list[CoveringEdge]:
    """Covering edges among canonical representatives, near-linearly.

    Every returned edge is verified with ``tree_direction``; incomplete
    (large mixed buckets fall back to per-slot probes) but sound.
    """
    edges: list[CoveringEdge] = []
    buckets: dict[str, list[tuple[int, AtomNode]]] = {}
    for item_id, node in representatives:
        buckets.setdefault(_shape(node), []).append((item_id, node))

    # Leaf keys are recomputed on every .key access, and stored atoms
    # are shared object-for-object across trees — memoize by identity.
    leaf_keys: dict[int, str] = {}

    def _leaf_key(leaf: TriggeringAtom) -> str:
        key = leaf_keys.get(id(leaf))
        if key is None:
            key = leaf.key
            leaf_keys[id(leaf)] = key
        return key

    for bucket in buckets.values():
        if len(bucket) < 2:
            continue
        nodes = {item_id: node for item_id, node in bucket}
        leaf_vectors = {
            item_id: _leaves(node) for item_id, node in bucket
        }
        # One pass serves both the varying-position scan and the
        # context grouping.
        key_vectors = {
            item_id: tuple(_leaf_key(leaf) for leaf in vector)
            for item_id, vector in leaf_vectors.items()
        }
        width = len(next(iter(leaf_vectors.values())))
        varying = [
            position
            for position in range(width)
            if len(
                {keys[position] for keys in key_vectors.values()}
            ) > 1
        ]
        candidates: dict[int, int] = {}
        if len(varying) <= 1 or len(bucket) > PAIRWISE_BUCKET_CAP:
            positions = varying or [0]
            for position in positions:
                grouped: dict[tuple[str, ...], list[tuple[int, TriggeringAtom]]] = {}
                for item_id, vector in leaf_vectors.items():
                    keys = key_vectors[item_id]
                    context = keys[:position] + keys[position + 1 :]
                    grouped.setdefault(context, []).append(
                        (item_id, vector[position])
                    )
                for items in grouped.values():
                    if len(items) < 2:
                        continue
                    index = _SlotIndex(items)
                    for item_id, atom in items:
                        if item_id in candidates:
                            continue
                        witness = index.witness(item_id, atom)
                        if witness is not None:
                            candidates[item_id] = witness
        else:
            ordered = sorted(nodes)
            for covered_id in ordered:
                for covering_id in ordered:
                    if covering_id == covered_id:
                        continue
                    forward, backward = tree_direction(
                        nodes[covered_id], nodes[covering_id]
                    )
                    if forward and not backward:
                        candidates[covered_id] = covering_id
                        break
        for covered_id, covering_id in sorted(candidates.items()):
            forward, __ = tree_direction(
                nodes[covered_id], nodes[covering_id]
            )
            if forward:
                edges.append(CoveringEdge(covered_id, covering_id))
    return edges


# ----------------------------------------------------------------------
# Index advisor
# ----------------------------------------------------------------------
@dataclass(frozen=True, slots=True)
class IndexAdvice:
    """Knob recommendations derived from registry/content statistics."""

    join_evaluation: str
    triggering: str = "sql"
    stats: dict[str, object] = field(default_factory=dict)

    def to_dict(self) -> dict[str, object]:
        return {
            "join_evaluation": self.join_evaluation,
            "triggering": self.triggering,
            "stats": self.stats,
        }


#: Advisor thresholds — deliberately simple and deterministic (no
#: ``cpu_count`` probing) so recommendations are reproducible in CI.
PROBE_GROUP_THRESHOLD = 4
#: Above this many triggering rules the in-memory counting matcher
#: (``triggering="counting"``) beats the relational triggering join —
#: the BENCH_matcher figure's crossover is far below this, the margin
#: keeps the default (the paper's sql path) for small rule bases.
COUNTING_RULE_THRESHOLD = 10_000


def advise_indexes(db: Database) -> IndexAdvice:
    """Recommend engine knobs from stored rule and content statistics."""
    triggering_rules = db.count("atomic_rules", "kind = 'triggering'")
    join_rules = db.count("atomic_rules", "kind = 'join'")
    contains_rules = int(
        db.scalar("SELECT COUNT(DISTINCT rule_id) FROM filter_rules_con")
        or 0
    )
    indexable_contains = int(
        db.scalar(
            "SELECT COUNT(DISTINCT rule_id) FROM filter_rules_con "
            "WHERE length(value) >= ?",
            (TRIGRAM_LENGTH,),
        )
        or 0
    )
    max_group = int(
        db.scalar(
            "SELECT COALESCE(MAX(members), 0) FROM ("
            "SELECT COUNT(*) AS members FROM atomic_rules "
            "WHERE kind = 'join' GROUP BY group_id)"
        )
        or 0
    )
    filter_rows = db.count("filter_data")
    # Semantic expansion (repro.semantics) multiplies index rows per
    # rule; the *expanded* row count is what the triggering stage
    # actually scans, so recommendations key on it, not on the rule
    # count.
    semantic_rows = 0
    expanded_rows = 0
    for table in ("filter_rules_class", *COMPARISON_TABLES.values()):
        semantic_rows += db.count(table, "semantic = 1")
        expanded_rows += db.count(table)
    path_rows = db.query_all(
        "SELECT class, property, COUNT(*) AS rows_total, "
        "COUNT(DISTINCT value) AS distinct_values FROM filter_data "
        "GROUP BY class, property ORDER BY rows_total DESC LIMIT 32"
    )
    paths = [
        {
            "class": row["class"],
            "property": row["property"],
            "rows": int(row["rows_total"]),
            "distinct_values": int(row["distinct_values"]),
            "eq_selectivity": (
                1.0 / int(row["distinct_values"])
                if int(row["distinct_values"])
                else 1.0
            ),
        }
        for row in path_rows
    ]
    stats: dict[str, object] = {
        "triggering_rules": triggering_rules,
        "join_rules": join_rules,
        "contains_rules": contains_rules,
        "indexable_contains_rules": indexable_contains,
        "short_needle_contains_rules": contains_rules - indexable_contains,
        "max_rule_group_population": max_group,
        "filter_data_rows": filter_rows,
        "trigram_length": TRIGRAM_LENGTH,
        "subscriptions": db.count("subscriptions"),
        "semantic_rows": semantic_rows,
        "expanded_triggering_rows": expanded_rows,
        "paths": paths,
    }
    join_evaluation = (
        "probe" if max_group >= PROBE_GROUP_THRESHOLD else "scan"
    )
    # Semantic fan-out can push a modest rule base past the counting
    # crossover even when the rule *count* stays small; only the
    # semantically expanded row count may widen the trigger, never the
    # plain multi-class fan-out of an unexpanded base.
    triggering = (
        "counting"
        if triggering_rules >= COUNTING_RULE_THRESHOLD
        or (semantic_rows > 0 and expanded_rows >= COUNTING_RULE_THRESHOLD)
        else "sql"
    )
    return IndexAdvice(join_evaluation, triggering, stats)


# ----------------------------------------------------------------------
# The whole-registry audit
# ----------------------------------------------------------------------
#: At most this many diagnostics are emitted per MDV05x code; the full
#: counts always appear in the JSON payload.
MAX_DIAGNOSTICS_PER_CODE = 100

#: At most this many covering edges are embedded in the JSON payload.
MAX_EDGES_IN_PAYLOAD = 10_000


@dataclass
class RegistryAudit:
    """The result of one whole-registry audit run."""

    report: AnalysisReport
    equivalence_classes: dict[str, list[int]]
    duplicate_subscription_groups: list[list[int]]
    dead_rules: list[int]
    covering_edges: list[CoveringEdge]
    advice: IndexAdvice
    end_rules: int
    atoms: int
    elapsed_seconds: float

    def to_dict(self) -> dict[str, object]:
        """The ``ANALYSIS.json`` payload."""
        multi = {
            key: members
            for key, members in sorted(self.equivalence_classes.items())
            if len(members) > 1
        }
        return {
            "generated_by": "repro.analysis.rulebase",
            "registry": {
                "end_rules": self.end_rules,
                "atoms": self.atoms,
                "audit_seconds": round(self.elapsed_seconds, 6),
            },
            "equivalence": {
                "classes": self.end_rules - sum(
                    len(members) - 1 for members in multi.values()
                ),
                "equivalent_groups": [
                    sorted(members) for members in multi.values()
                ],
                "duplicate_subscription_groups": [
                    sorted(group)
                    for group in self.duplicate_subscription_groups
                ],
                "dead_rules": sorted(self.dead_rules),
            },
            "subsumption": {
                "shadowed_rules": len(self.covering_edges),
                "covering_edges": [
                    edge.to_dict()
                    for edge in self.covering_edges[:MAX_EDGES_IN_PAYLOAD]
                ],
                "truncated": len(self.covering_edges) > MAX_EDGES_IN_PAYLOAD,
            },
            "advisor": self.advice.to_dict(),
            "diagnostics": [d.to_dict() for d in self.report.diagnostics],
        }


def _capped_add(
    report: AnalysisReport,
    counts: dict[str, int],
    severity: Severity,
    code: str,
    message: str,
    **kwargs: object,
) -> None:
    counts[code] = counts.get(code, 0) + 1
    if counts[code] <= MAX_DIAGNOSTICS_PER_CODE:
        report.add(severity, code, message, **kwargs)  # type: ignore[arg-type]


def audit_registry(
    db: Database,
    schema: Schema | None = None,
    metrics: MetricsRegistry | None = None,
) -> RegistryAudit:
    """Audit the whole registered rule base of one MDP store."""
    metrics = metrics if metrics is not None else default_registry()
    started = perf_counter()

    nodes = load_registry_atoms(db)
    subscription_rows = db.query_all(
        "SELECT sub_id, subscriber, rule_text, end_rule FROM subscriptions "
        "ORDER BY sub_id"
    )
    end_subscribers: dict[int, list[tuple[str, str]]] = {}
    for row in subscription_rows:
        end_subscribers.setdefault(int(row["end_rule"]), []).append(
            (row["subscriber"], row["rule_text"])
        )

    report = AnalysisReport()
    counts: dict[str, int] = {}

    # MDV050 — several subscriptions share one triggering entry.
    duplicate_groups: list[list[int]] = []
    for end_rule in sorted(end_subscribers):
        subs = end_subscribers[end_rule]
        if len(subs) < 2:
            continue
        duplicate_groups.append([end_rule])
        subscribers = [subscriber for subscriber, __ in subs]
        severity = (
            Severity.WARNING
            if len(set(subscribers)) < len(subscribers)
            else Severity.INFO
        )
        _capped_add(
            report,
            counts,
            severity,
            "MDV050",
            f"end rule {end_rule} is shared by {len(subs)} subscriptions "
            f"({', '.join(sorted(set(subscribers))[:4])})",
            source=f"rule {end_rule}",
        )

    # Canonicalization: equivalence classes and dead rules.
    canonical: dict[int, CanonicalRule] = {}
    classes: dict[str, list[int]] = {}
    dead: list[int] = []
    for end_rule in sorted(end_subscribers):
        node = nodes.get(end_rule)
        if node is None:
            continue
        form = canonicalize(node, schema)
        canonical[end_rule] = form
        classes.setdefault(form.key, []).append(end_rule)
        if not form.satisfiable:
            dead.append(end_rule)
            _capped_add(
                report,
                counts,
                Severity.WARNING,
                "MDV053",
                f"end rule {end_rule} is unsatisfiable — it pays "
                "triggering cost but can never match",
                hint="unsubscribe it or fix the contradictory predicates",
                source=_source_label(end_subscribers[end_rule]),
            )

    for key, members in sorted(classes.items()):
        if len(members) < 2:
            continue
        _capped_add(
            report,
            counts,
            Severity.WARNING,
            "MDV051",
            f"end rules {members} are semantically equivalent "
            "(identical canonical form, different spelling)",
            hint="enable the registry dedupe knob to share one "
            "triggering entry",
            source=f"canonical {key[:80]}",
        )

    # Covering among canonical representatives, lifted to class members.
    representatives = [
        (members[0], canonical[members[0]].node)
        for __, members in sorted(classes.items())
        if canonical[members[0]].satisfiable
    ]
    representative_edges = find_covering_edges(representatives)
    class_of: dict[int, list[int]] = {}
    for members in classes.values():
        class_of[members[0]] = members
    covering_edges: list[CoveringEdge] = []
    for edge in representative_edges:
        for member in class_of.get(edge.covered, [edge.covered]):
            covering_edges.append(CoveringEdge(member, edge.covering))
    for edge in covering_edges:
        covered_subs = {
            subscriber for subscriber, __ in end_subscribers.get(edge.covered, [])
        }
        covering_subs = {
            subscriber
            for member in class_of.get(edge.covering, [edge.covering])
            for subscriber, __ in end_subscribers.get(member, [])
        }
        severity = (
            Severity.WARNING
            if covered_subs & covering_subs
            else Severity.INFO
        )
        _capped_add(
            report,
            counts,
            severity,
            "MDV052",
            f"end rule {edge.covered} is shadowed by the more general "
            f"end rule {edge.covering}",
            source=_source_label(end_subscribers.get(edge.covered, [])),
        )

    advice = advise_indexes(db)
    for knob, value in (
        ("join_evaluation", advice.join_evaluation),
        ("triggering", advice.triggering),
    ):
        report.add(
            Severity.INFO,
            "MDV054",
            f"advisor recommends {knob}={value!r} for this workload",
            source="index advisor",
        )

    # MDV075 — semantic fan-out pushed the *expanded* trigger index past
    # the counting crossover even though the rule count alone would not.
    semantic_rows = _stat_int(advice.stats, "semantic_rows")
    expanded_rows = _stat_int(advice.stats, "expanded_triggering_rows")
    triggering_rules = _stat_int(advice.stats, "triggering_rules")
    if (
        semantic_rows > 0
        and expanded_rows >= COUNTING_RULE_THRESHOLD
        and triggering_rules < COUNTING_RULE_THRESHOLD
    ):
        report.add(
            Severity.WARNING,
            "MDV075",
            f"semantic expansion widened {triggering_rules} triggering "
            f"rules to {expanded_rows} index rows ({semantic_rows} "
            "semantic) — past the counting-matcher crossover",
            hint='construct the engine with triggering="counting"',
            source="index advisor",
        )

    elapsed = perf_counter() - started
    metrics.counter("analysis.audits").inc()
    metrics.counter("analysis.rules_audited").inc(len(canonical))
    metrics.counter("analysis.equivalent_rules").inc(
        sum(len(members) - 1 for members in classes.values())
    )
    metrics.counter("analysis.dead_rules").inc(len(dead))
    metrics.counter("analysis.shadowed_rules").inc(len(covering_edges))
    metrics.histogram("analysis.audit_ms").observe(elapsed * 1000.0)

    overflow = {
        code: total
        for code, total in sorted(counts.items())
        if total > MAX_DIAGNOSTICS_PER_CODE
    }
    for code, total in overflow.items():
        report.add(
            Severity.INFO,
            code,
            f"… and {total - MAX_DIAGNOSTICS_PER_CODE} more {code} "
            "findings (full counts in the JSON payload)",
            source="rule-base audit",
        )

    return RegistryAudit(
        report=report,
        equivalence_classes=classes,
        duplicate_subscription_groups=duplicate_groups,
        dead_rules=dead,
        covering_edges=covering_edges,
        advice=advice,
        end_rules=len(canonical),
        atoms=len(nodes),
        elapsed_seconds=elapsed,
    )


def _stat_int(stats: dict[str, object], key: str) -> int:
    value = stats.get(key, 0)
    return value if isinstance(value, int) else 0


def _source_label(subs: list[tuple[str, str]]) -> str | None:
    if not subs:
        return None
    subscriber, rule_text = subs[0]
    return f"{subscriber}: {rule_text}"
