"""Translation of metadata queries into SQL join queries.

The paper (Section 2.2): *"Search requests are translated into SQL join
queries.  This translation is not one-to-one as MDV hides the details of
how the metadata is stored."*  This module performs that translation
against the ``filter_data`` atom store: the query's join tree is rooted
at the result variable and each child variable becomes a correlated
``EXISTS`` subquery over the child's identity atom plus the linking
property atoms.

Only tree-shaped join graphs are supported (the shape the language's
path expressions produce); cyclic graphs raise
:class:`~repro.errors.QuerySyntaxError`.

Constants are inlined as escaped SQL literals rather than bound
parameters: every inlined value has passed the rule tokenizer (property
names and class names are ``[A-Za-z0-9_]+`` identifiers) or is rendered
through :func:`sql_string_literal`, so the generated SQL is closed under
the language's value domain.

``contains`` predicates follow the canonical semantics of
:mod:`repro.text.ngrams` — exact, case-sensitive substring over the
stored text.  Their needles are therefore *always* rendered as quoted
string literals, even when the literal looks numeric: ``instr`` with a
bare numeric operand compares against SQLite's shortest decimal
rendering of the number, so ``contains 010`` would silently probe for
``'10'``.
"""

from __future__ import annotations

from repro.errors import QuerySyntaxError
from repro.rdf.model import URIRef
from repro.rdf.namespaces import RDF_SUBJECT
from repro.rdf.schema import Schema
from repro.rules.ast import Query, flip_operator
from repro.rules.normalize import (
    ConstantPredicate,
    JoinPredicate,
    NormalizedRule,
    normalize_rule,
)
from repro.storage.engine import Database
from repro.text.ngrams import contains_sql_condition

__all__ = ["translate_normalized", "run_query_sql", "sql_string_literal"]

_SQL_OPS = {"=", "!=", "<", "<=", ">", ">="}


def sql_string_literal(value: str) -> str:
    """Render ``value`` as a SQL string literal (quote doubling)."""
    return "'" + value.replace("'", "''") + "'"


def _compare(operator: str, numeric: bool, left: str, right: str) -> str:
    if operator == "contains":
        return contains_sql_condition(left, right)
    if operator not in _SQL_OPS:
        raise QuerySyntaxError(f"unknown operator {operator!r}")
    if numeric:
        left = f"CAST({left} AS REAL)"
        right = f"CAST({right} AS REAL)"
    return f"{left} {operator} {right}"


class _Translator:
    """Builds one SELECT per normalized conjunct."""

    def __init__(self, normalized: NormalizedRule, schema: Schema):
        self.normalized = normalized
        self.schema = schema
        self._alias_counter = 0

    def _alias(self, prefix: str) -> str:
        self._alias_counter += 1
        return f"{prefix}{self._alias_counter}"

    def translate(self) -> str:
        register = self.normalized.register
        tree = self._build_tree(register)
        subject = self._alias("s")
        conditions = self._variable_conditions(register, subject, tree)
        return (
            f"SELECT DISTINCT {subject}.uri_reference "
            f"FROM filter_data {subject} "
            f"WHERE {subject}.property = '{RDF_SUBJECT}'"
            + "".join(f" AND {c}" for c in conditions)
            + f" ORDER BY {subject}.uri_reference"
        )

    # -- join tree ---------------------------------------------------------
    def _build_tree(self, root: str) -> dict[str, list[JoinPredicate]]:
        """Orient the join graph away from the root variable."""
        tree: dict[str, list[JoinPredicate]] = {
            v: [] for v in self.normalized.variables
        }
        visited = {root}
        remaining = [j for j in self.normalized.joins if not j.is_self_join]
        frontier = [root]
        while frontier:
            current = frontier.pop(0)
            still_remaining = []
            for predicate in remaining:
                left_var, right_var = predicate.variables()
                if current == left_var and right_var not in visited:
                    tree[current].append(predicate)
                    visited.add(right_var)
                    frontier.append(right_var)
                elif current == right_var and left_var not in visited:
                    tree[current].append(predicate)
                    visited.add(left_var)
                    frontier.append(left_var)
                elif current in (left_var, right_var):
                    raise QuerySyntaxError(
                        "cyclic join graphs cannot be translated to SQL; "
                        "restructure the query"
                    )
                else:
                    still_remaining.append(predicate)
            remaining = still_remaining
        if remaining:
            raise QuerySyntaxError(
                "query contains joins not connected to the result variable"
            )
        return tree

    # -- conditions ----------------------------------------------------------
    def _variable_conditions(
        self,
        variable: str,
        subject_alias: str,
        tree: dict[str, list[JoinPredicate]],
    ) -> list[str]:
        conditions = [self._class_condition(variable, subject_alias)]
        for predicate in self.normalized.constants:
            if predicate.variable == variable:
                conditions.append(
                    self._constant_condition(predicate, subject_alias)
                )
        for predicate in self.normalized.joins:
            if predicate.is_self_join and predicate.left_var == variable:
                conditions.append(
                    self._self_join_condition(predicate, subject_alias)
                )
        for predicate in tree[variable]:
            conditions.append(
                self._child_condition(variable, subject_alias, predicate, tree)
            )
        return conditions

    def _class_condition(self, variable: str, alias: str) -> str:
        class_name = self.normalized.variable_class(variable)
        if self.schema.has_class(class_name):
            extension = sorted(self.schema.extension_classes(class_name))
        else:
            extension = [class_name]
        rendered = ",".join(sql_string_literal(c) for c in extension)
        return f"{alias}.class IN ({rendered})"

    def _constant_condition(
        self, predicate: ConstantPredicate, subject_alias: str
    ) -> str:
        # contains needles are always quoted, whatever the literal looks
        # like: values compare as text, and an unquoted numeric operand
        # would make instr() probe for the number's decimal re-rendering
        # instead of the written characters.
        if predicate.operator == "contains":
            constant = sql_string_literal(predicate.value.sql_value())
        elif predicate.numeric:
            constant = predicate.value.sql_value()
        else:
            constant = sql_string_literal(predicate.value.sql_value())
        if predicate.prop == RDF_SUBJECT:
            return _compare(
                predicate.operator,
                False,
                f"{subject_alias}.uri_reference",
                constant,
            )
        alias = self._alias("p")
        comparison = _compare(
            predicate.operator, predicate.numeric, f"{alias}.value", constant
        )
        return (
            f"EXISTS (SELECT 1 FROM filter_data {alias} "
            f"WHERE {alias}.uri_reference = {subject_alias}.uri_reference "
            f"AND {alias}.property = {sql_string_literal(predicate.prop)} "
            f"AND {comparison})"
        )

    def _self_join_condition(
        self, predicate: JoinPredicate, subject_alias: str
    ) -> str:
        left = self._alias("p")
        right = self._alias("p")
        comparison = _compare(
            predicate.operator,
            predicate.numeric,
            f"{left}.value",
            f"{right}.value",
        )
        return (
            f"EXISTS (SELECT 1 FROM filter_data {left}, filter_data {right} "
            f"WHERE {left}.uri_reference = {subject_alias}.uri_reference "
            f"AND {right}.uri_reference = {subject_alias}.uri_reference "
            f"AND {left}.property = {sql_string_literal(str(predicate.left_prop))} "
            f"AND {right}.property = {sql_string_literal(str(predicate.right_prop))} "
            f"AND {comparison})"
        )

    def _child_condition(
        self,
        parent: str,
        parent_alias: str,
        predicate: JoinPredicate,
        tree: dict[str, list[JoinPredicate]],
    ) -> str:
        left_var, right_var = predicate.variables()
        parent_is_left = parent == left_var
        child = right_var if parent_is_left else left_var
        parent_prop = (
            predicate.left_prop if parent_is_left else predicate.right_prop
        )
        child_prop = (
            predicate.right_prop if parent_is_left else predicate.left_prop
        )
        operator = (
            predicate.operator
            if parent_is_left
            else flip_operator(predicate.operator)
        )

        child_alias = self._alias("s")
        from_tables = [f"filter_data {child_alias}"]
        where = [f"{child_alias}.property = '{RDF_SUBJECT}'"]

        if parent_prop is None:
            parent_value = f"{parent_alias}.uri_reference"
        else:
            alias = self._alias("p")
            from_tables.append(f"filter_data {alias}")
            where.append(
                f"{alias}.uri_reference = {parent_alias}.uri_reference"
            )
            where.append(
                f"{alias}.property = {sql_string_literal(parent_prop)}"
            )
            parent_value = f"{alias}.value"

        if child_prop is None:
            child_value = f"{child_alias}.uri_reference"
        else:
            alias = self._alias("p")
            from_tables.append(f"filter_data {alias}")
            where.append(
                f"{alias}.uri_reference = {child_alias}.uri_reference"
            )
            where.append(
                f"{alias}.property = {sql_string_literal(child_prop)}"
            )
            child_value = f"{alias}.value"

        where.append(
            _compare(operator, predicate.numeric, parent_value, child_value)
        )
        where.extend(self._variable_conditions(child, child_alias, tree))
        return (
            "EXISTS (SELECT 1 FROM "
            + ", ".join(from_tables)
            + " WHERE "
            + " AND ".join(where)
            + ")"
        )


def translate_normalized(normalized: NormalizedRule, schema: Schema) -> str:
    """Translate one normalized conjunct into a SQL query string."""
    return _Translator(normalized, schema).translate()


def run_query_sql(db: Database, query: Query, schema: Schema) -> list[URIRef]:
    """Run a query against an MDP's ``filter_data`` store.

    Returns the URI references of matching result resources, merged over
    ``or`` branches and sorted.  Queries referencing named rules must be
    expanded with :func:`repro.rules.inline.inline_named_query` first.
    """
    conjuncts = normalize_rule(query.as_rule(), schema)
    uris: set[URIRef] = set()
    for conjunct in conjuncts:
        sql = translate_normalized(conjunct, schema)
        for row in db.query_all(sql):
            uris.add(URIRef(row["uri_reference"]))
    return sorted(uris)
