"""The subscription-rule linter (static analysis over the parsed AST).

Validates a rule *before* it is normalized, decomposed and merged into
the global dependency graph, reporting every finding instead of stopping
at the first (the normalizer raises on the first error; the linter is
the diagnostic front-end).  Three layers of checks:

1. **Schema checks** with precise spans: unknown classes/extensions,
   unknown properties, misuse of the any operator ``?``, set-valued
   properties compared without ``?``, operator/type mismatches.
2. **Satisfiability** per DNF conjunct: interval reasoning over
   ``= != < <= > >=`` and substring reasoning over ``contains`` flags
   conjuncts that can never fire (``e.cost < 5 and e.cost > 9``) and
   predicates that are implied by the rest of their conjunct and could
   be dropped before decomposition.
3. **Connectivity**: variables not join-connected to the register
   variable (the decomposition would reject the rule anyway; the linter
   points at the offending variable).

The entry points return an :class:`~repro.analysis.diagnostics.AnalysisReport`;
they never raise on bad rules.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import NormalizationError, RuleSyntaxError
from repro.rdf.schema import PropertyDef, PropertyKind, Schema
from repro.rules.ast import Constant, PathExpr, Predicate, Rule
from repro.rules.normalize import to_dnf
from repro.rules.parser import parse_rule

from repro.analysis.diagnostics import AnalysisReport, Severity
from repro.analysis.intervals import NumericConstraints, StringConstraints
from repro.text.ngrams import TRIGRAM_LENGTH, is_indexable

__all__ = ["lint_rule", "lint_rule_text"]

_ORDERING_OPERATORS = frozenset({"<", "<=", ">", ">="})


def lint_rule_text(
    rule_text: str,
    schema: Schema,
    named_extension_types: dict[str, str] | None = None,
) -> AnalysisReport:
    """Lint a rule given as text; parse failures become ``MDV001``."""
    report = AnalysisReport()
    try:
        rule = parse_rule(rule_text)
    except RuleSyntaxError as exc:
        span = None
        if exc.position is not None:
            span = (exc.position, exc.position + 1)
        report.add(
            Severity.ERROR,
            "MDV001",
            str(exc),
            span=span,
            source=rule_text,
        )
        return report
    return lint_rule(rule, schema, named_extension_types, source=rule_text)


def lint_rule(
    rule: Rule,
    schema: Schema,
    named_extension_types: dict[str, str] | None = None,
    source: str | None = None,
) -> AnalysisReport:
    """Lint a parsed rule against ``schema``.

    ``named_extension_types`` maps named-rule extension names to the
    class their results register (same contract as ``normalize_rule``).
    """
    linter = _RuleLinter(
        rule, schema, named_extension_types or {}, source or str(rule)
    )
    return linter.run()


@dataclass(frozen=True, slots=True)
class _SlotConstraint:
    """One constant predicate folded into a satisfiability slot."""

    operator: str
    value: str | float
    span: tuple[int, int] | None


class _RuleLinter:
    """Single-use linter for one rule."""

    def __init__(
        self,
        rule: Rule,
        schema: Schema,
        named: dict[str, str],
        source: str,
    ):
        self.rule = rule
        self.schema = schema
        self.named = named
        self.source = source
        self.report = AnalysisReport()
        #: variable → class, for variables that resolved.
        self.variables: dict[str, str] = {}

    # ------------------------------------------------------------------
    # Driver
    # ------------------------------------------------------------------
    def run(self) -> AnalysisReport:
        self._check_extensions()
        if self.rule.where is not None:
            try:
                conjuncts = to_dnf(self.rule.where)
            except NormalizationError as exc:
                self._add(Severity.ERROR, "MDV007", str(exc))
                return self.report
            for conjunct in conjuncts:
                self._check_conjunct(conjunct)
        self._check_connectivity()
        return self.report

    def _add(
        self,
        severity: Severity,
        code: str,
        message: str,
        span: tuple[int, int] | None = None,
        hint: str | None = None,
    ) -> None:
        self.report.add(
            severity, code, message, span=span, hint=hint, source=self.source
        )

    # ------------------------------------------------------------------
    # Search clause
    # ------------------------------------------------------------------
    def _check_extensions(self) -> None:
        for ext in self.rule.extensions:
            if self.schema.has_class(ext.name):
                self.variables[ext.variable] = ext.name
            elif ext.name in self.named:
                self.variables[ext.variable] = self.named[ext.name]
            else:
                self._add(
                    Severity.ERROR,
                    "MDV002",
                    f"unknown class or named rule {ext.name!r}",
                    span=ext.span,
                    hint="define the class in the schema or register the "
                    "named rule first",
                )

    # ------------------------------------------------------------------
    # Path resolution (non-throwing mirror of the normalizer)
    # ------------------------------------------------------------------
    def _resolve_path(
        self, path: PathExpr
    ) -> tuple[str, PropertyDef | None, bool] | None:
        """Resolve a path to ``(final_class, final_prop, existential)``.

        ``final_prop`` is ``None`` for a bare variable.  ``existential``
        is true when any step uses ``?`` or the final property is
        set-valued — constraint reasoning must not conjoin such slots.
        Emits diagnostics and returns ``None`` when resolution fails.
        """
        class_name = self.variables.get(path.variable)
        if class_name is None:
            if path.variable not in {e.variable for e in self.rule.extensions}:
                self._add(
                    Severity.ERROR,
                    "MDV007",
                    f"unbound variable {path.variable!r}",
                    span=path.span,
                    hint="bind the variable in the search clause",
                )
            return None  # unknown extension already reported via MDV002
        existential = False
        prop: PropertyDef | None = None
        for index, step in enumerate(path.steps):
            if not self.schema.has_property(class_name, step.prop):
                self._add(
                    Severity.ERROR,
                    "MDV003",
                    f"class {class_name!r} has no property {step.prop!r}",
                    span=path.span,
                )
                return None
            prop = self.schema.property_def(class_name, step.prop)
            if step.any and not prop.multivalued:
                self._add(
                    Severity.ERROR,
                    "MDV004",
                    f"the any operator '?' applies only to set-valued "
                    f"properties; {step.prop!r} on {class_name!r} is "
                    f"single-valued",
                    span=path.span,
                    hint=f"drop the '?' after {step.prop!r}",
                )
                return None
            existential = existential or step.any or prop.multivalued
            is_last = index == len(path.steps) - 1
            if not is_last:
                if not prop.is_reference:
                    self._add(
                        Severity.ERROR,
                        "MDV007",
                        f"path step {step.prop!r} on class {class_name!r} is "
                        f"not a reference property",
                        span=path.span,
                    )
                    return None
                class_name = str(prop.target_class)
        return class_name, prop, existential

    # ------------------------------------------------------------------
    # Conjunct checks
    # ------------------------------------------------------------------
    def _check_conjunct(self, conjunct: list[Predicate]) -> None:
        slots: dict[tuple[str, tuple[str, ...]], list[_SlotConstraint]] = {}
        slot_numeric: dict[tuple[str, tuple[str, ...]], bool] = {}
        for predicate in conjunct:
            self._check_predicate(predicate, slots, slot_numeric)
        for key, constraints in slots.items():
            if len(constraints) < 2:
                continue
            self._check_slot(key, constraints, slot_numeric[key])

    def _check_predicate(
        self,
        predicate: Predicate,
        slots: dict[tuple[str, tuple[str, ...]], list[_SlotConstraint]],
        slot_numeric: dict[tuple[str, tuple[str, ...]], bool],
    ) -> None:
        left, operator, right = predicate.left, predicate.operator, predicate.right
        left_const = isinstance(left, Constant)
        right_const = isinstance(right, Constant)
        if left_const and right_const:
            self._add(
                Severity.ERROR,
                "MDV007",
                f"predicate {predicate} compares two constants",
                span=predicate.span,
            )
            return
        if left_const:
            if operator == "contains":
                self._add(
                    Severity.ERROR,
                    "MDV007",
                    f"'contains' needs the path on the left: {predicate}",
                    span=predicate.span,
                )
                return
            # Mirror the predicate so the path is on the left.
            from repro.rules.ast import flip_operator

            left, right = right, left
            operator = flip_operator(operator)
            left_const, right_const = False, True
        assert isinstance(left, PathExpr)
        if right_const:
            assert isinstance(right, Constant)
            self._check_constant_predicate(
                predicate, left, operator, right, slots, slot_numeric
            )
        else:
            assert isinstance(right, PathExpr)
            self._check_join_predicate(predicate, left, operator, right)

    def _check_constant_predicate(
        self,
        predicate: Predicate,
        path: PathExpr,
        operator: str,
        constant: Constant,
        slots: dict[tuple[str, tuple[str, ...]], list[_SlotConstraint]],
        slot_numeric: dict[tuple[str, tuple[str, ...]], bool],
    ) -> None:
        resolved = self._resolve_path(path)
        if resolved is None:
            return
        class_name, prop, existential = resolved
        value = constant.literal
        if prop is None:
            # Bare variable versus constant (OID-style predicate).
            if operator not in ("=", "!="):
                self._add(
                    Severity.ERROR,
                    "MDV007",
                    f"a variable can only be compared with = or != to a URI "
                    f"constant, not {operator!r}",
                    span=predicate.span,
                )
                return
            if value.is_numeric:
                self._add(
                    Severity.ERROR,
                    "MDV006",
                    f"variable {path.variable!r} compared to a numeric "
                    f"constant",
                    span=predicate.span,
                )
                return
        else:
            if not self._check_constant_types(
                predicate, class_name, prop, operator, value
            ):
                return
            if operator == "contains" and not is_indexable(str(value.value)):
                self._add(
                    Severity.WARNING,
                    "MDV039",
                    f"contains needle {str(value.value)!r} is shorter than "
                    f"a trigram ({TRIGRAM_LENGTH} characters); it has no "
                    f"trigram postings, so triggering='counting' checks it "
                    f"against every value of its (class, property) — the "
                    f"scan triggering='sql' pays for every contains rule",
                    span=self._literal_span(predicate, constant),
                    hint="lengthen the needle to at least "
                    f"{TRIGRAM_LENGTH} characters if the match allows it",
                )
            final_step = path.steps[-1]
            if prop.multivalued and not final_step.any:
                self._add(
                    Severity.WARNING,
                    "MDV005",
                    f"property {prop.name!r} on {class_name!r} is set-valued; "
                    f"comparing it without '?' matches each value separately",
                    span=path.span,
                    hint=f"write {final_step.prop}? to make the intent "
                    f"explicit",
                )
        if existential:
            return  # per-element semantics: predicates do not conjoin
        key = (path.variable, tuple(step.prop for step in path.steps))
        numeric = prop is not None and prop.is_numeric
        stored: str | float
        stored = float(value.value) if numeric else str(value.sql_value())
        slots.setdefault(key, []).append(
            _SlotConstraint(operator, stored, predicate.span)
        )
        slot_numeric[key] = numeric

    def _literal_span(
        self, predicate: Predicate, constant: Constant
    ) -> tuple[int, int] | None:
        """The span of ``constant``'s literal inside the rule text.

        The AST records spans per predicate, not per operand, so the
        literal is located by searching its rendered form from the
        predicate's start; falls back to the predicate span.
        """
        if predicate.span is None:
            return None
        rendered = str(constant)
        index = self.source.find(rendered, predicate.span[0])
        if index < 0:
            return predicate.span
        return (index, index + len(rendered))

    def _check_constant_types(
        self,
        predicate: Predicate,
        class_name: str,
        prop: PropertyDef,
        operator: str,
        value: object,
    ) -> bool:
        """Type-compatibility of one property/constant pair."""
        from repro.rdf.model import Literal

        assert isinstance(value, Literal)
        if operator in _ORDERING_OPERATORS:
            if not prop.is_numeric or not value.is_numeric:
                self._add(
                    Severity.ERROR,
                    "MDV006",
                    f"operator {operator!r} requires a numeric property and "
                    f"a numeric constant ({class_name}.{prop.name})",
                    span=predicate.span,
                )
                return False
            return True
        if operator == "contains":
            if prop.kind is not PropertyKind.STRING or value.is_numeric:
                self._add(
                    Severity.ERROR,
                    "MDV006",
                    f"'contains' requires a string property and a string "
                    f"constant ({class_name}.{prop.name})",
                    span=predicate.span,
                )
                return False
            return True
        if prop.is_numeric and not value.is_numeric:
            self._add(
                Severity.ERROR,
                "MDV006",
                f"numeric property {class_name}.{prop.name} compared to "
                f"string constant {value.value!r}",
                span=predicate.span,
                hint="drop the quotes around the constant",
            )
            return False
        if (
            prop.is_reference or prop.kind is PropertyKind.STRING
        ) and value.is_numeric:
            self._add(
                Severity.ERROR,
                "MDV006",
                f"property {class_name}.{prop.name} compared to numeric "
                f"constant {value.value!r}",
                span=predicate.span,
                hint="quote the constant to compare as a string",
            )
            return False
        return True

    def _check_join_predicate(
        self, predicate: Predicate, left: PathExpr, operator: str, right: PathExpr
    ) -> None:
        if operator == "contains":
            self._add(
                Severity.ERROR,
                "MDV007",
                "'contains' joins between two paths are not supported",
                span=predicate.span,
            )
            return
        left_resolved = self._resolve_path(left)
        right_resolved = self._resolve_path(right)
        if left_resolved is None or right_resolved is None:
            return
        __, left_prop, left_existential = left_resolved
        __, right_prop, right_existential = right_resolved
        left_numeric = left_prop is not None and left_prop.is_numeric
        right_numeric = right_prop is not None and right_prop.is_numeric
        if operator in _ORDERING_OPERATORS and not (
            left_numeric and right_numeric
        ):
            self._add(
                Severity.ERROR,
                "MDV006",
                f"operator {operator!r} requires numeric properties on both "
                f"sides of a join predicate",
                span=predicate.span,
            )
            return
        if left_numeric != right_numeric:
            self._add(
                Severity.ERROR,
                "MDV006",
                "join predicate compares a numeric property with a "
                "non-numeric one",
                span=predicate.span,
            )
            return
        if left == right and not (left_existential or right_existential):
            # Both sides are the same single-valued slot: the predicate is
            # decided by the operator alone.
            if operator in ("=", "<=", ">="):
                self._add(
                    Severity.WARNING,
                    "MDV011",
                    f"predicate {predicate} compares a value with itself and "
                    f"is always true",
                    span=predicate.span,
                    hint="drop the predicate",
                )
            else:
                self._add(
                    Severity.ERROR,
                    "MDV010",
                    f"predicate {predicate} compares a value with itself and "
                    f"can never hold",
                    span=predicate.span,
                )

    # ------------------------------------------------------------------
    # Satisfiability per slot
    # ------------------------------------------------------------------
    def _check_slot(
        self,
        key: tuple[str, tuple[str, ...]],
        constraints: list[_SlotConstraint],
        numeric: bool,
    ) -> None:
        variable, props = key
        slot_name = ".".join([variable, *props]) if props else variable
        merged = self._build_constraints(constraints, numeric)
        span = self._union_span(constraints)
        if not merged.is_satisfiable():
            self._add(
                Severity.ERROR,
                "MDV010",
                f"contradictory predicates on {slot_name}: "
                + " and ".join(
                    f"{slot_name} {c.operator} {c.value!r}" for c in constraints
                ),
                span=span,
                hint="the conjunct can never match any resource",
            )
            return
        for index, constraint in enumerate(constraints):
            others = constraints[:index] + constraints[index + 1 :]
            if not others:
                continue
            remainder = self._build_constraints(others, numeric)
            if remainder.implies(constraint.operator, constraint.value):  # type: ignore[arg-type]
                self._add(
                    Severity.WARNING,
                    "MDV011",
                    f"predicate {slot_name} {constraint.operator} "
                    f"{constraint.value!r} is implied by the rest of the "
                    f"conjunct",
                    span=constraint.span,
                    hint="drop the redundant predicate",
                )

    @staticmethod
    def _build_constraints(
        constraints: list[_SlotConstraint], numeric: bool
    ) -> NumericConstraints | StringConstraints:
        if numeric:
            numeric_set = NumericConstraints()
            for constraint in constraints:
                numeric_set.add(constraint.operator, float(constraint.value))
            return numeric_set
        string_set = StringConstraints()
        for constraint in constraints:
            string_set.add(constraint.operator, str(constraint.value))
        return string_set

    @staticmethod
    def _union_span(
        constraints: list[_SlotConstraint],
    ) -> tuple[int, int] | None:
        spans = [c.span for c in constraints if c.span is not None]
        if not spans:
            return None
        return min(s[0] for s in spans), max(s[1] for s in spans)

    # ------------------------------------------------------------------
    # Connectivity
    # ------------------------------------------------------------------
    def _check_connectivity(self) -> None:
        """Flag search variables unreachable from the register variable.

        Connectivity is judged on the original rule: two variables are
        connected when one predicate's operands root in both.  (Fresh
        variables introduced by normalization are connected to their
        root by construction and need no check here.)
        """
        variables = [ext.variable for ext in self.rule.extensions]
        if len(variables) < 2:
            return
        conjunct_lists: list[list[Predicate]]
        if self.rule.where is None:
            conjunct_lists = [[]]
        else:
            try:
                conjunct_lists = to_dnf(self.rule.where)
            except NormalizationError:
                return  # already reported
        # Each DNF conjunct becomes its own normalized rule, so every
        # variable must be connected in every conjunct.
        disconnected: set[str] = set()
        for conjunct in conjunct_lists:
            edges: list[tuple[str, str]] = []
            for predicate in conjunct:
                roots = [
                    operand.variable
                    for operand in (predicate.left, predicate.right)
                    if isinstance(operand, PathExpr)
                ]
                if len(roots) == 2:
                    edges.append((roots[0], roots[1]))
            reachable = {self.rule.register}
            changed = True
            while changed:
                changed = False
                for left, right in edges:
                    if left in reachable and right not in reachable:
                        reachable.add(right)
                        changed = True
                    elif right in reachable and left not in reachable:
                        reachable.add(left)
                        changed = True
            disconnected.update(set(variables) - reachable)
        for ext in self.rule.extensions:
            if ext.variable in disconnected:
                self._add(
                    Severity.ERROR,
                    "MDV008",
                    f"variable {ext.variable!r} is not join-connected to the "
                    f"register variable {self.rule.register!r}",
                    span=ext.span,
                    hint="add a join predicate linking it to the registered "
                    "extension",
                )
