"""In-memory query evaluation over a set of resources.

Local Metadata Repositories evaluate MDV queries against their cache
"using only locally available metadata" (paper, Section 2.2).  The cache
is a plain mapping of URI references to resources, so this evaluator
works directly on :class:`~repro.rdf.model.Resource` objects.

The query language shares the rule grammar; evaluation reuses the rule
normalizer, then runs a constraint-propagation + backtracking join over
the candidate sets:

1. per-variable candidates — instances of the variable's class extension
   filtered by the constant predicates;
2. semi-join reduction to a fixpoint (exact for the acyclic/tree-shaped
   join graphs the language produces, and a safe pre-filter otherwise);
3. backtracking enumeration that records which register-variable
   resources admit a full assignment.

Set-valued properties use ANY semantics throughout, matching the
``FilterData`` representation (one atom per value).
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping

from repro.rdf.model import Literal, Resource, URIRef, Value
from repro.rdf.namespaces import RDF_SUBJECT
from repro.rdf.schema import Schema
from repro.rules.ast import Query
from repro.rules.normalize import (
    ConstantPredicate,
    JoinPredicate,
    NormalizedRule,
    normalize_rule,
)
from repro.text.ngrams import contains_match

__all__ = ["evaluate_query", "evaluate_normalized", "compare_values"]


def compare_values(left: str, operator: str, right: str, numeric: bool) -> bool:
    """Compare two canonical (string) values under a rule operator.

    ``contains`` delegates to the canonical substring semantics of
    :mod:`repro.text.ngrams`, shared with the SQL paths —
    ``tests/query/test_contains_crosspath.py`` asserts the agreement.
    """
    if operator == "contains":
        return contains_match(left, right)
    if numeric:
        try:
            left_num = float(left)
            right_num = float(right)
        except ValueError:
            return False
        if operator == "=":
            return left_num == right_num
        if operator == "!=":
            return left_num != right_num
        if operator == "<":
            return left_num < right_num
        if operator == "<=":
            return left_num <= right_num
        if operator == ">":
            return left_num > right_num
        if operator == ">=":
            return left_num >= right_num
        raise ValueError(f"unknown operator {operator!r}")
    if operator == "=":
        return left == right
    if operator == "!=":
        return left != right
    if operator in ("<", "<=", ">", ">="):
        # Ordering operators are numeric-only in the language; string
        # comparison here would hide normalization bugs.
        raise ValueError(f"operator {operator!r} requires numeric operands")
    raise ValueError(f"unknown operator {operator!r}")


def _property_values(resource: Resource, prop: str | None) -> list[str]:
    """The canonical values a predicate side evaluates to (ANY semantics)."""
    if prop is None or prop == RDF_SUBJECT:
        return [str(resource.uri)]
    values: list[Value] = resource.get(prop)
    rendered: list[str] = []
    for value in values:
        if isinstance(value, Literal):
            rendered.append(value.sql_value())
        else:
            rendered.append(str(value))
    return rendered


def _satisfies_constant(resource: Resource, predicate: ConstantPredicate) -> bool:
    constant = predicate.value.sql_value()
    return any(
        compare_values(value, predicate.operator, constant, predicate.numeric)
        for value in _property_values(resource, predicate.prop)
    )


def _join_holds(
    left: Resource, right: Resource, predicate: JoinPredicate
) -> bool:
    left_values = _property_values(left, predicate.left_prop)
    right_values = _property_values(right, predicate.right_prop)
    return any(
        compare_values(lv, predicate.operator, rv, predicate.numeric)
        for lv in left_values
        for rv in right_values
    )


def _class_candidates(
    resources: Iterable[Resource], schema: Schema, class_name: str
) -> list[Resource]:
    if schema.has_class(class_name):
        extension = set(schema.extension_classes(class_name))
    else:
        extension = {class_name}
    return [r for r in resources if r.rdf_class in extension]


def evaluate_normalized(
    normalized: NormalizedRule,
    resources: Mapping[URIRef, Resource] | Iterable[Resource],
    schema: Schema,
) -> list[Resource]:
    """Evaluate one normalized conjunct; returns matching register resources.

    A list pool is read as given, not copied.
    """
    if isinstance(resources, list):
        pool: list[Resource] = resources
    elif isinstance(resources, Mapping):
        pool = list(resources.values())
    else:
        pool = list(resources)

    candidates: dict[str, list[Resource]] = {}
    for variable, class_name in normalized.variables.items():
        candidates[variable] = _class_candidates(pool, schema, class_name)
    for predicate in normalized.constants:
        candidates[predicate.variable] = [
            r
            for r in candidates[predicate.variable]
            if _satisfies_constant(r, predicate)
        ]

    joins = [j for j in normalized.joins if not j.is_self_join]
    for predicate in normalized.joins:
        if predicate.is_self_join:
            candidates[predicate.left_var] = [
                r
                for r in candidates[predicate.left_var]
                if _join_holds(r, r, predicate)
            ]

    _semi_join_reduce(candidates, joins)
    register = normalized.register
    if not joins:
        return sorted(candidates[register], key=lambda r: r.uri)
    matching = _enumerate_register(candidates, joins, register)
    return sorted(matching, key=lambda r: r.uri)


def _semi_join_reduce(
    candidates: dict[str, list[Resource]], joins: list[JoinPredicate]
) -> None:
    """Shrink candidate sets until every join is pairwise consistent."""
    changed = True
    while changed:
        changed = False
        for predicate in joins:
            left_var, right_var = predicate.variables()
            left_set = candidates[left_var]
            right_set = candidates[right_var]
            kept_left = [
                l
                for l in left_set
                if any(_join_holds(l, r, predicate) for r in right_set)
            ]
            if len(kept_left) != len(left_set):
                candidates[left_var] = kept_left
                changed = True
            kept_right = [
                r
                for r in right_set
                if any(_join_holds(l, r, predicate) for l in kept_left)
            ]
            if len(kept_right) != len(right_set):
                candidates[right_var] = kept_right
                changed = True


def _enumerate_register(
    candidates: dict[str, list[Resource]],
    joins: list[JoinPredicate],
    register: str,
) -> list[Resource]:
    """Backtracking join; collects register resources with full assignments."""
    variables = sorted(
        candidates, key=lambda v: (v != register, len(candidates[v]))
    )
    order = _connectivity_order(variables, joins, register)
    matching: list[Resource] = []

    def consistent(assignment: dict[str, Resource]) -> bool:
        for predicate in joins:
            left_var, right_var = predicate.variables()
            if left_var in assignment and right_var in assignment:
                if not _join_holds(
                    assignment[left_var], assignment[right_var], predicate
                ):
                    return False
        return True

    def search(index: int, assignment: dict[str, Resource]) -> bool:
        if index == len(order):
            return True
        variable = order[index]
        for resource in candidates[variable]:
            assignment[variable] = resource
            if consistent(assignment) and search(index + 1, assignment):
                del assignment[variable]
                return True
            del assignment[variable]
        return False

    for resource in candidates[register]:
        if search(1, {register: resource}):
            matching.append(resource)
    return matching


def _connectivity_order(
    variables: list[str], joins: list[JoinPredicate], register: str
) -> list[str]:
    """Variable order starting at the register variable, following joins."""
    order = [register]
    seen = {register}
    frontier = [register]
    while frontier:
        current = frontier.pop(0)
        for predicate in joins:
            left_var, right_var = predicate.variables()
            for neighbor in (left_var, right_var):
                if (
                    neighbor not in seen
                    and current in (left_var, right_var)
                ):
                    seen.add(neighbor)
                    order.append(neighbor)
                    frontier.append(neighbor)
    for variable in variables:
        if variable not in seen:
            seen.add(variable)
            order.append(variable)
    return order


def evaluate_query(
    query: Query,
    resources: Mapping[URIRef, Resource] | Iterable[Resource],
    schema: Schema,
) -> list[Resource]:
    """Evaluate a parsed query; ``or`` branches union their results.

    Queries referencing named rules as extensions must be expanded with
    :func:`repro.rules.inline.inline_named_query` first (the LMR does) —
    resolving only the extension's *class* would silently drop the named
    rule's predicates.  The MDP's browse needs no inlining: it runs the
    filter, where a named rule is its end atom's producer.
    """
    normalized = normalize_rule(query.as_rule(), schema)
    merged: dict[URIRef, Resource] = {}
    for conjunct in normalized:
        for resource in evaluate_normalized(conjunct, resources, schema):
            merged[resource.uri] = resource
    return sorted(merged.values(), key=lambda r: r.uri)
