"""Inlining of named-rule extensions into rules and queries.

The *filter* handles named extensions structurally: the named rule's
end atom becomes the producer of the variable, so its predicates apply
by construction — for subscriptions and for an MDP browse alike, which
runs through the filter's rule initialisation.  The LMR's in-memory
query evaluation has no atomic rules — for it a named extension must be
expanded textually: the named rule's search entries and where part are
merged into the referencing rule, with variables renamed apart and the
named rule's register variable unified with the referencing variable.

Expansion is recursive (named rules may reference named rules) with
cycle detection.
"""

from __future__ import annotations

from repro.errors import NormalizationError
from repro.rules.ast import (
    And,
    BoolExpr,
    Constant,
    ExtensionRef,
    Or,
    PathExpr,
    Predicate,
    Query,
    Rule,
)

__all__ = ["inline_named_rules", "inline_named_query"]


def _rename_operand(
    operand: PathExpr | Constant, mapping: dict[str, str]
) -> PathExpr | Constant:
    if isinstance(operand, Constant):
        return operand
    assert isinstance(operand, PathExpr)
    return PathExpr(mapping.get(operand.variable, operand.variable), operand.steps)


def _rename_expr(expr: BoolExpr, mapping: dict[str, str]) -> BoolExpr:
    if isinstance(expr, Predicate):
        return Predicate(
            _rename_operand(expr.left, mapping),
            expr.operator,
            _rename_operand(expr.right, mapping),
        )
    if isinstance(expr, And):
        return And(tuple(_rename_expr(op, mapping) for op in expr.operands))
    assert isinstance(expr, Or)
    return Or(tuple(_rename_expr(op, mapping) for op in expr.operands))


def inline_named_rules(
    rule: Rule,
    definitions: dict[str, Rule],
    _stack: tuple[str, ...] = (),
) -> Rule:
    """Expand every named-rule extension of ``rule``.

    ``definitions`` maps extension names to their defining rules; names
    absent from the map are assumed to be schema classes and left
    untouched.  The result references schema classes only.
    """
    extensions: list[ExtensionRef] = []
    conjuncts: list[BoolExpr] = []
    if rule.where is not None:
        conjuncts.append(rule.where)
    counter = 0
    for ext in rule.extensions:
        definition = definitions.get(ext.name)
        if definition is None:
            extensions.append(ext)
            continue
        if ext.name in _stack:
            raise NormalizationError(
                f"named rule {ext.name!r} references itself (via "
                f"{' -> '.join(_stack)})"
            )
        expanded = inline_named_rules(
            definition, definitions, _stack + (ext.name,)
        )
        counter += 1
        mapping = {}
        for inner in expanded.extensions:
            if inner.variable == expanded.register:
                mapping[inner.variable] = ext.variable
            else:
                mapping[inner.variable] = (
                    f"__{ext.name}{counter}_{inner.variable}"
                )
        for inner in expanded.extensions:
            extensions.append(
                ExtensionRef(inner.name, mapping[inner.variable])
            )
        if expanded.where is not None:
            conjuncts.append(_rename_expr(expanded.where, mapping))
    where: BoolExpr | None
    if not conjuncts:
        where = None
    elif len(conjuncts) == 1:
        where = conjuncts[0]
    else:
        where = And(tuple(conjuncts))
    return Rule(tuple(extensions), rule.register, where)


def inline_named_query(query: Query, definitions: dict[str, Rule]) -> Query:
    """Expand named extensions of a query (see :func:`inline_named_rules`)."""
    expanded = inline_named_rules(query.as_rule(), definitions)
    return Query(expanded.extensions, expanded.register, expanded.where)
