"""Rule normalization (paper, Section 3.3).

A rule is *normalized* when its search part contains all classes used in
its where part and path expressions are split into single property
accesses.  The paper's example::

    search   CycleProvider c
    register c
    where    c.serverHost contains 'uni-passau.de'
             and c.serverInformation.memory > 64

normalizes to::

    search   CycleProvider c, ServerInformation s
    register c
    where    c.serverHost contains 'uni-passau.de'
             and c.serverInformation = s
             and s.memory > 64

Shared path prefixes are deduplicated into a single fresh variable (the
paper's Section 3.3.1 example binds both ``…memory`` and ``…cpu`` paths
to the *same* variable ``s``), which later lets the decomposition restore
same-resource semantics through identity joins.

This module additionally implements the ``or`` split the paper mentions
(Section 2.3): a rule whose where part contains ``or`` is expanded into
disjunctive normal form and one normalized rule is produced per
conjunct.
"""

from __future__ import annotations

import itertools
from collections.abc import Mapping
from dataclasses import dataclass, field

from repro.errors import NormalizationError, UnknownClassError
from repro.rdf.model import Literal
from repro.rdf.namespaces import RDF_SUBJECT
from repro.rdf.schema import PropertyDef, PropertyKind, Schema
from repro.rules.ast import (
    And,
    BoolExpr,
    Constant,
    Or,
    PathExpr,
    PathStep,
    Predicate,
    Rule,
    flip_operator,
)

__all__ = [
    "ConstantPredicate",
    "JoinPredicate",
    "NormalizedRule",
    "normalize_rule",
    "to_dnf",
]

#: Operators that require numeric operands (paper, Section 3.3.4: the
#: implementation "supports comparisons with operators <, <=, >, and >=
#: only on numerical constants").
_ORDERING_OPERATORS = frozenset({"<", "<=", ">", ">="})

#: Upper bound on DNF conjuncts; protects against pathological rules.
_MAX_DNF_CONJUNCTS = 64


@dataclass(frozen=True, slots=True)
class ConstantPredicate:
    """A predicate comparing one property of one variable to a constant.

    Bare-variable comparisons (``c = URI``) are represented with the
    pseudo-property :data:`~repro.rdf.namespaces.RDF_SUBJECT`, matching
    the identity atoms the document decomposition emits (Section 3.2).
    """

    variable: str
    prop: str
    operator: str
    value: Literal
    numeric: bool = False

    def __str__(self) -> str:
        constant = Constant(self.value)
        if self.prop == RDF_SUBJECT:
            return f"{self.variable} {self.operator} {constant}"
        return f"{self.variable}.{self.prop} {self.operator} {constant}"


@dataclass(frozen=True, slots=True)
class JoinPredicate:
    """A predicate relating two variables.

    ``left_prop`` / ``right_prop`` are ``None`` for bare variables; the
    identity join ``a = b`` therefore has both properties ``None``.
    """

    left_var: str
    left_prop: str | None
    operator: str
    right_var: str
    right_prop: str | None
    numeric: bool = False

    def variables(self) -> tuple[str, str]:
        return self.left_var, self.right_var

    @property
    def is_identity(self) -> bool:
        return self.left_prop is None and self.right_prop is None

    @property
    def is_self_join(self) -> bool:
        return self.left_var == self.right_var

    def __str__(self) -> str:
        left = (
            self.left_var
            if self.left_prop is None
            else f"{self.left_var}.{self.left_prop}"
        )
        right = (
            self.right_var
            if self.right_prop is None
            else f"{self.right_var}.{self.right_prop}"
        )
        return f"{left} {self.operator} {right}"


@dataclass
class NormalizedRule:
    """A rule in normal form: flat variables, single-step predicates.

    ``variables`` maps each variable to its *class*; ``extensions`` keeps
    the original extension name from the search clause, which differs
    from the class when the extension is a named rule (Section 2.3).
    """

    variables: dict[str, str] = field(default_factory=dict)
    extensions: dict[str, str] = field(default_factory=dict)
    register: str = ""
    constants: list[ConstantPredicate] = field(default_factory=list)
    joins: list[JoinPredicate] = field(default_factory=list)
    #: The parsed rule this was normalized from.
    source: Rule | None = None

    @property
    def source_text(self) -> str:
        """The source rule as text (rendered on demand, for diagnostics)."""
        return "" if self.source is None else str(self.source)

    def variable_class(self, variable: str) -> str:
        try:
            return self.variables[variable]
        except KeyError:
            raise NormalizationError(
                f"unbound variable {variable!r} in rule"
            ) from None

    def __str__(self) -> str:
        search = ", ".join(
            f"{cls} {var}" for var, cls in self.variables.items()
        )
        parts = [str(p) for p in self.constants] + [str(p) for p in self.joins]
        text = f"search {search} register {self.register}"
        if parts:
            text += " where " + " and ".join(parts)
        return text


def to_dnf(expr: BoolExpr) -> list[list[Predicate]]:
    """Expand a boolean expression into disjunctive normal form.

    Returns a list of conjuncts, each a list of predicates.  The rule
    language has no negation, so the expansion is a plain distribution
    of ``and`` over ``or``.
    """
    if isinstance(expr, Predicate):
        return [[expr]]
    if isinstance(expr, Or):
        result: list[list[Predicate]] = []
        for operand in expr.operands:
            result.extend(to_dnf(operand))
        _check_dnf_size(result)
        return result
    if isinstance(expr, And):
        result = [[]]
        for operand in expr.operands:
            branches = to_dnf(operand)
            result = [
                existing + branch
                for existing, branch in itertools.product(result, branches)
            ]
            _check_dnf_size(result)
        return result
    raise NormalizationError(f"unexpected where-clause node: {expr!r}")


def _check_dnf_size(conjuncts: list[list[Predicate]]) -> None:
    if len(conjuncts) > _MAX_DNF_CONJUNCTS:
        raise NormalizationError(
            f"rule expands to more than {_MAX_DNF_CONJUNCTS} conjuncts; "
            f"simplify the or-structure"
        )


class _Normalizer:
    """Normalizes one conjunct of one rule."""

    def __init__(
        self,
        rule: Rule,
        schema: Schema,
        named_extension_types: Mapping[str, str],
    ):
        self.rule = rule
        self.schema = schema
        self.named = named_extension_types
        self.result = NormalizedRule(register=rule.register, source=rule)
        self._fresh_counter = 0
        #: Maps (variable, path-prefix) to the variable holding that prefix,
        #: deduplicating shared prefixes (paper, Section 3.3.1 example).
        self._prefix_vars: dict[tuple[str, tuple[PathStep, ...]], str] = {}

    # -- variable / class bookkeeping -----------------------------------
    def bind_search_variables(self) -> None:
        for ext in self.rule.extensions:
            if self.schema.has_class(ext.name):
                self.result.variables[ext.variable] = ext.name
            elif ext.name in self.named:
                self.result.variables[ext.variable] = self.named[ext.name]
            else:
                raise UnknownClassError(ext.name)
            self.result.extensions[ext.variable] = ext.name

    def _fresh_variable(self, class_name: str) -> str:
        self._fresh_counter += 1
        variable = f"_v{self._fresh_counter}"
        self.result.variables[variable] = class_name
        self.result.extensions[variable] = class_name
        return variable

    # -- path splitting ---------------------------------------------------
    def reduce_path(self, path: PathExpr) -> tuple[str, PathStep | None]:
        """Split a path down to ``(variable, final-step-or-None)``.

        Every non-final step must be a reference property; a fresh
        variable (shared across identical prefixes) is introduced for
        each intermediate resource, emitting the identity predicates
        ``parent.prop = fresh``.
        """
        variable = path.variable
        if variable not in self.result.variables:
            raise NormalizationError(
                f"unbound variable {variable!r} in path {path}"
            )
        steps = path.steps
        if not steps:
            return variable, None
        current_var = variable
        for index, step in enumerate(steps[:-1]):
            current_var = self._step_into(
                variable, current_var, steps[: index + 1], step
            )
        final = steps[-1]
        self._check_any_flag(current_var, final)
        return current_var, final

    def _step_into(
        self,
        root_var: str,
        current_var: str,
        prefix: tuple[PathStep, ...],
        step: PathStep,
    ) -> str:
        key = (root_var, prefix)
        existing = self._prefix_vars.get(key)
        if existing is not None:
            return existing
        class_name = self.result.variable_class(current_var)
        prop = self.schema.property_def(class_name, step.prop)
        if not prop.is_reference:
            raise NormalizationError(
                f"path step {step.prop!r} on class {class_name!r} is not a "
                f"reference property"
            )
        self._check_any_flag(current_var, step)
        fresh = self._fresh_variable(str(prop.target_class))
        self.result.joins.append(
            JoinPredicate(current_var, step.prop, "=", fresh, None)
        )
        self._prefix_vars[key] = fresh
        return fresh

    def _check_any_flag(self, variable: str, step: PathStep) -> None:
        if not step.any:
            return
        class_name = self.result.variable_class(variable)
        prop = self.schema.property_def(class_name, step.prop)
        if not prop.multivalued:
            raise NormalizationError(
                f"the any operator '?' applies only to set-valued "
                f"properties; {step.prop!r} on {class_name!r} is "
                f"single-valued"
            )

    # -- predicate classification ------------------------------------------
    def add_predicate(self, predicate: Predicate) -> None:
        left, operator, right = predicate.left, predicate.operator, predicate.right
        left_const = isinstance(left, Constant)
        right_const = isinstance(right, Constant)
        if left_const and right_const:
            raise NormalizationError(
                f"predicate {predicate} compares two constants"
            )
        if left_const:
            if operator == "contains":
                raise NormalizationError(
                    f"'contains' needs the path on the left: {predicate}"
                )
            left, right = right, left
            operator = flip_operator(operator)
            left_const, right_const = right_const, True
        assert isinstance(left, PathExpr)
        if right_const:
            assert isinstance(right, Constant)
            self._add_constant_predicate(left, operator, right.literal)
        else:
            assert isinstance(right, PathExpr)
            self._add_join_predicate(left, operator, right)

    def _add_constant_predicate(
        self, path: PathExpr, operator: str, value: Literal
    ) -> None:
        variable, final = self.reduce_path(path)
        class_name = self.result.variable_class(variable)
        if final is None:
            # Bare variable versus constant: an OID-style predicate on
            # the resource's own URI reference (Section 3.2).
            if operator not in ("=", "!="):
                raise NormalizationError(
                    f"a variable can only be compared with = or != to a "
                    f"URI constant, not {operator!r}"
                )
            if value.is_numeric:
                raise NormalizationError(
                    f"variable {variable!r} compared to a numeric constant"
                )
            self.result.constants.append(
                ConstantPredicate(variable, RDF_SUBJECT, operator, value)
            )
            return
        prop = self.schema.property_def(class_name, final.prop)
        numeric = self._check_constant_types(class_name, prop, operator, value)
        self.result.constants.append(
            ConstantPredicate(variable, final.prop, operator, value, numeric)
        )

    def _check_constant_types(
        self,
        class_name: str,
        prop: PropertyDef,
        operator: str,
        value: Literal,
    ) -> bool:
        """Validate operator/type compatibility; return the numeric flag."""
        if operator in _ORDERING_OPERATORS:
            if not prop.is_numeric or not value.is_numeric:
                raise NormalizationError(
                    f"operator {operator!r} requires a numeric property and "
                    f"a numeric constant ({class_name}.{prop.name})"
                )
            return True
        if operator == "contains":
            if prop.kind is not PropertyKind.STRING or value.is_numeric:
                raise NormalizationError(
                    f"'contains' requires a string property and a string "
                    f"constant ({class_name}.{prop.name})"
                )
            return False
        # = / != compare canonical strings, following the paper's storage
        # design (constants are stored as strings; only the ordering
        # operators reconvert).  Integral floats render like integers
        # (see Literal.sql_value), keeping int/float equality consistent.
        if prop.is_numeric:
            if not value.is_numeric:
                raise NormalizationError(
                    f"numeric property {class_name}.{prop.name} compared "
                    f"to string constant {value.value!r}"
                )
            return False
        if prop.is_reference or prop.kind is PropertyKind.STRING:
            if value.is_numeric:
                raise NormalizationError(
                    f"property {class_name}.{prop.name} compared to numeric "
                    f"constant {value.value!r}"
                )
            return False
        return False

    def _add_join_predicate(
        self, left: PathExpr, operator: str, right: PathExpr
    ) -> None:
        if operator == "contains":
            raise NormalizationError(
                "'contains' joins between two paths are not supported"
            )
        left_var, left_final = self.reduce_path(left)
        right_var, right_final = self.reduce_path(right)
        left_prop = left_final.prop if left_final else None
        right_prop = right_final.prop if right_final else None
        numeric = self._join_numeric(
            left_var, left_prop, right_var, right_prop, operator
        )
        self.result.joins.append(
            JoinPredicate(left_var, left_prop, operator, right_var, right_prop, numeric)
        )

    def _join_numeric(
        self,
        left_var: str,
        left_prop: str | None,
        right_var: str,
        right_prop: str | None,
        operator: str,
    ) -> bool:
        def kind_of(variable: str, prop: str | None) -> PropertyKind | None:
            if prop is None:
                return None  # the resource's URI reference (a string)
            class_name = self.result.variable_class(variable)
            definition = self.schema.property_def(class_name, prop)
            if definition.is_reference:
                return None
            return definition.kind

        left_kind = kind_of(left_var, left_prop)
        right_kind = kind_of(right_var, right_prop)
        numeric_kinds = (PropertyKind.INTEGER, PropertyKind.FLOAT)
        left_numeric = left_kind in numeric_kinds
        right_numeric = right_kind in numeric_kinds
        if operator in _ORDERING_OPERATORS:
            if not (left_numeric and right_numeric):
                raise NormalizationError(
                    f"operator {operator!r} requires numeric properties on "
                    f"both sides of a join predicate"
                )
            return True
        if left_numeric != right_numeric:
            raise NormalizationError(
                "join predicate compares a numeric property with a "
                "non-numeric one"
            )
        if left_prop is None and right_prop is not None:
            self._check_reference_target(right_var, right_prop, left_var)
        if right_prop is None and left_prop is not None:
            self._check_reference_target(left_var, left_prop, right_var)
        return left_numeric and right_numeric

    def _check_reference_target(
        self, prop_var: str, prop: str, bare_var: str
    ) -> None:
        """A ``x.prop = y`` join requires ``prop`` to reference ``y``'s class."""
        class_name = self.result.variable_class(prop_var)
        definition = self.schema.property_def(class_name, prop)
        if not definition.is_reference:
            raise NormalizationError(
                f"property {class_name}.{prop} is compared with a variable "
                f"but is not a reference property"
            )
        target = str(definition.target_class)
        bare_class = self.result.variable_class(bare_var)
        if target not in self.schema.superclass_chain(
            bare_class
        ) and bare_class not in self.schema.superclass_chain(target):
            raise NormalizationError(
                f"reference {class_name}.{prop} targets {target!r} but is "
                f"joined with a {bare_class!r} variable"
            )

    # -- connectivity -----------------------------------------------------
    def check_connected(self) -> None:
        """Every variable must be join-connected to the register variable.

        Disconnected variables would give the rule cartesian-product
        semantics, which the atomic-rule decomposition cannot express.
        """
        reachable = {self.result.register}
        changed = True
        while changed:
            changed = False
            for join in self.result.joins:
                left, right = join.variables()
                if left in reachable and right not in reachable:
                    reachable.add(right)
                    changed = True
                elif right in reachable and left not in reachable:
                    reachable.add(left)
                    changed = True
        unreachable = set(self.result.variables) - reachable
        if unreachable:
            raise NormalizationError(
                f"variable(s) not connected to the register variable "
                f"{self.result.register!r}: {', '.join(sorted(unreachable))}"
            )


def normalize_rule(
    rule: Rule,
    schema: Schema,
    named_extension_types: Mapping[str, str] | None = None,
) -> list[NormalizedRule]:
    """Normalize a parsed rule.

    Returns one :class:`NormalizedRule` per DNF conjunct — a single
    element for or-free rules.  ``named_extension_types`` maps extension
    names that refer to previously registered named rules to the class of
    resources those rules register.
    """
    named = named_extension_types or {}
    conjuncts: list[list[Predicate]]
    if rule.where is None:
        conjuncts = [[]]
    else:
        conjuncts = to_dnf(rule.where)
    normalized: list[NormalizedRule] = []
    for conjunct in conjuncts:
        normalizer = _Normalizer(rule, schema, named)
        normalizer.bind_search_variables()
        for predicate in conjunct:
            normalizer.add_predicate(predicate)
        normalizer.check_connected()
        normalized.append(normalizer.result)
    return normalized
