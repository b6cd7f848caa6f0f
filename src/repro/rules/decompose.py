"""Decomposition of normalized rules into atomic rules (paper, §3.3.1).

The procedure follows the paper:

1. Every predicate with a constant is removed and becomes a *triggering
   rule*; search-clause classes without such a predicate get a
   predicate-free triggering rule.
2. Multiple triggering rules over the same variable are connected with
   identity joins (the paper's ``a = b`` rules), which restores
   same-resource semantics after normalization split the predicates.
3. The remaining join predicates are peeled off one at a time, each
   producing a *join rule* whose inputs are the current producers of the
   two variables, until the original rule is itself a join rule.

The result is a :class:`DecomposedRule`: a tree of
:class:`~repro.rules.atoms.AtomNode` objects rooted at the *end rule*
(the atomic rule producing the subscription's results), with triggering
rules as leaves — exactly the dependency tree of the paper's Figure 5.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field

from repro.errors import DecompositionError
from repro.rdf.schema import Schema
from repro.rules.atoms import AtomNode, JoinAtom, TriggeringAtom, iter_atoms, make_join
from repro.rules.normalize import JoinPredicate, NormalizedRule

__all__ = ["DecomposedRule", "decompose_rule"]


@dataclass
class DecomposedRule:
    """The atomic rules of one subscription rule.

    ``end`` is the root of the dependency tree; ``atoms`` lists every
    distinct atom children-first (the order the registry persists them
    in).  ``source`` keeps the normalized rule for diagnostics.
    """

    end: AtomNode
    source: NormalizedRule
    atoms: list[AtomNode] = field(default_factory=list)

    @property
    def rdf_class(self) -> str:
        """The rule's *type*: the class of the resources it registers."""
        return self.end.rdf_class

    def triggering_atoms(self) -> list[TriggeringAtom]:
        return [a for a in self.atoms if isinstance(a, TriggeringAtom)]

    def join_atoms(self) -> list[JoinAtom]:
        return [a for a in self.atoms if isinstance(a, JoinAtom)]

    def depth(self) -> int:
        """Length of the longest path from a leaf to the end rule.

        The paper uses this as the bound on the number of filter
        iterations (Section 3.4).
        """

        def node_depth(node: AtomNode) -> int:
            if isinstance(node, TriggeringAtom):
                return 0
            return 1 + max(node_depth(node.left), node_depth(node.right))

        return node_depth(self.end)

    def render_tree(self) -> str:
        """An indented rendering of the dependency tree (Figure 5 style)."""
        lines: list[str] = []

        def walk(node: AtomNode, indent: int) -> None:
            lines.append("  " * indent + node.key)
            if isinstance(node, JoinAtom):
                walk(node.left, indent + 1)
                walk(node.right, indent + 1)

        walk(self.end, 0)
        return "\n".join(lines)


def decompose_rule(
    normalized: NormalizedRule,
    schema: Schema,
    named_producers: Mapping[str, AtomNode] | None = None,
) -> DecomposedRule:
    """Decompose a normalized rule into its atomic rules.

    ``named_producers`` maps extension names of previously registered
    named rules to their end atoms; variables bound to such an extension
    use the named rule's end atom as their initial producer instead of a
    class triggering rule (paper, Section 2.3: an extension may be
    "another subscription rule").
    """
    named_producers = named_producers or {}
    producers = _initial_producers(normalized, schema, named_producers)
    end = _peel_join_predicates(normalized, producers)
    atoms = list(iter_atoms(end))
    return DecomposedRule(end=end, source=normalized, atoms=atoms)


def _initial_producers(
    normalized: NormalizedRule,
    schema: Schema,
    named_producers: Mapping[str, AtomNode],
) -> dict[str, AtomNode]:
    """Producer atom per variable: triggering rules plus identity joins."""
    triggering: dict[str, list[TriggeringAtom]] = {}
    for predicate in normalized.constants:
        class_name = normalized.variable_class(predicate.variable)
        atom = TriggeringAtom(
            rdf_class=class_name,
            extension_classes=tuple(sorted(schema.extension_classes(class_name)))
            if schema.has_class(class_name)
            else (class_name,),
            prop=predicate.prop,
            operator=predicate.operator,
            value=predicate.value.sql_value(),
            numeric=predicate.numeric,
        )
        triggering.setdefault(predicate.variable, []).append(atom)

    producers: dict[str, AtomNode] = {}
    for variable in normalized.variables:
        class_name = normalized.variable_class(variable)
        extension = normalized.extensions.get(variable, class_name)
        base: AtomNode | None = named_producers.get(extension)
        atoms = _dedup_by_key(triggering.get(variable, []))
        # Deterministic fold order maximizes sharing across subscriptions.
        atoms.sort(key=lambda atom: atom.key)
        if base is None and not atoms:
            base = TriggeringAtom(
                rdf_class=class_name,
                extension_classes=tuple(
                    sorted(schema.extension_classes(class_name))
                )
                if schema.has_class(class_name)
                else (class_name,),
            )
        for atom in atoms:
            if base is None:
                base = atom
            else:
                base = make_join(
                    base,
                    class_name,
                    None,
                    "=",
                    atom,
                    class_name,
                    None,
                    register_side="left",
                )
        assert base is not None
        producers[variable] = base
    return producers


def _dedup_by_key(atoms: list[TriggeringAtom]) -> list[TriggeringAtom]:
    unique: dict[str, TriggeringAtom] = {}
    for atom in atoms:
        unique.setdefault(atom.key, atom)
    return list(unique.values())


def _peel_join_predicates(
    normalized: NormalizedRule, producers: dict[str, AtomNode]
) -> AtomNode:
    """Peel join predicates until the rule is itself a join rule.

    At each step a predicate is chosen whose non-kept variable is
    *consumable*: it appears in no other remaining predicate and is not
    the register variable.  Tree-shaped predicate graphs (all the rules
    the paper's language produces) always admit such a choice; cyclic
    graphs do not and are rejected, because a join rule registers only
    one of its inputs and cannot carry both forward.
    """
    remaining = [p for p in normalized.joins if not p.is_self_join]
    for predicate in normalized.joins:
        if predicate.is_self_join:
            _apply_self_join(predicate, normalized, producers)

    register_var = normalized.register
    usage: dict[str, int] = {}
    for predicate in remaining:
        for variable in predicate.variables():
            usage[variable] = usage.get(variable, 0) + 1

    while remaining:
        chosen_index = _choose_predicate(remaining, usage, register_var)
        if chosen_index is None:
            raise DecompositionError(
                "cyclic join graph: the rule cannot be decomposed into "
                "atomic rules (each join rule registers a single input)"
            )
        predicate = remaining.pop(chosen_index)
        left_var, right_var = predicate.variables()
        keep = _kept_variable(predicate, usage, register_var)
        join = make_join(
            producers[left_var],
            normalized.variable_class(left_var),
            predicate.left_prop,
            predicate.operator,
            producers[right_var],
            normalized.variable_class(right_var),
            predicate.right_prop,
            register_side="left" if keep == left_var else "right",
            numeric=predicate.numeric,
        )
        producers[keep] = join
        usage[left_var] -= 1
        usage[right_var] -= 1
    return producers[register_var]


def _choose_predicate(
    remaining: list[JoinPredicate], usage: dict[str, int], register_var: str
) -> int | None:
    for index, predicate in enumerate(remaining):
        left_var, right_var = predicate.variables()
        left_leaf = usage[left_var] == 1 and left_var != register_var
        right_leaf = usage[right_var] == 1 and right_var != register_var
        if len(remaining) == 1:
            return index
        if left_leaf or right_leaf:
            return index
    return None


def _kept_variable(
    predicate: JoinPredicate, usage: dict[str, int], register_var: str
) -> str:
    left_var, right_var = predicate.variables()
    if left_var == register_var:
        return left_var
    if right_var == register_var:
        return right_var
    left_consumable = usage[left_var] == 1
    if left_consumable and usage[right_var] > 1:
        return right_var
    if usage[right_var] == 1 and usage[left_var] > 1:
        return left_var
    # Both consumable (final predicate of a disconnected component cannot
    # happen — connectivity was checked); default deterministically.
    return left_var


def _apply_self_join(
    predicate: JoinPredicate,
    normalized: NormalizedRule,
    producers: dict[str, AtomNode],
) -> None:
    """Fold a self predicate (``c.a = c.b``) into the variable's producer."""
    variable = predicate.left_var
    class_name = normalized.variable_class(variable)
    base = producers[variable]
    producers[variable] = JoinAtom(
        left=base,
        right=base,
        left_class=class_name,
        right_class=class_name,
        left_prop=predicate.left_prop,
        right_prop=predicate.right_prop,
        operator=predicate.operator,
        register_side="left",
        numeric=predicate.numeric,
        self_join=True,
    )
