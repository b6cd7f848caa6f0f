"""Abstract syntax tree of the rule/query language.

The surface grammar (paper, Section 2.3)::

    rule        := 'search' extensions 'register' VAR ['where' disjunction]
    extensions  := IDENT VAR (',' IDENT VAR)*
    disjunction := conjunction ('or' conjunction)*
    conjunction := predicate ('and' predicate)*
    predicate   := operand OP operand | '(' disjunction ')'
    operand     := STRING | NUMBER | path
    path        := VAR ('.' PROP ['?'])*

Although the paper's implementation "does not support an or operator",
it notes rules containing it "can be split up easily" — this library
implements the split (see :mod:`repro.rules.normalize`), so the AST keeps
a boolean expression tree rather than a flat conjunction.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.rdf.model import Literal

__all__ = [
    "Span",
    "PathStep",
    "PathExpr",
    "Constant",
    "Operand",
    "Predicate",
    "And",
    "Or",
    "BoolExpr",
    "ExtensionRef",
    "Rule",
    "Query",
    "flip_operator",
]

#: Character range ``(start, end)`` of a node in the original rule text.
#: Spans are carried for diagnostics only and excluded from equality, so
#: structurally identical nodes from different source positions compare
#: equal (rule deduplication relies on that).
Span = tuple[int, int]

#: Maps an operator to its mirror image, used when predicate operands are
#: swapped during canonicalization (``10 < c.memory`` ⇒ ``c.memory > 10``).
_FLIPPED = {
    "=": "=",
    "!=": "!=",
    "<": ">",
    "<=": ">=",
    ">": "<",
    ">=": "<=",
}


def flip_operator(operator: str) -> str:
    """The operator with its operands swapped.

    ``contains`` has no mirror image — a rule like
    ``'constant' contains c.host`` is rejected during normalization.
    """
    try:
        return _FLIPPED[operator]
    except KeyError:
        raise ValueError(f"operator {operator!r} cannot be flipped")


@dataclass(frozen=True, slots=True)
class PathStep:
    """One step of a path expression: a property name, optionally with
    the set-valued *any* operator ``?`` (paper, Section 2.3)."""

    prop: str
    any: bool = False

    def __str__(self) -> str:
        return f"{self.prop}?" if self.any else self.prop


@dataclass(frozen=True, slots=True)
class PathExpr:
    """``variable`` or ``variable.step1.step2…``.

    An empty ``steps`` tuple denotes the bare variable (used in OID-style
    predicates like ``c = URI`` and identity joins like ``a = b``).
    """

    variable: str
    steps: tuple[PathStep, ...] = ()
    span: Span | None = field(default=None, compare=False)

    def __str__(self) -> str:
        return ".".join([self.variable, *map(str, self.steps)])


@dataclass(frozen=True, slots=True)
class Constant:
    """A literal constant operand."""

    literal: Literal

    def __str__(self) -> str:
        if self.literal.is_numeric:
            return self.literal.sql_value()
        escaped = str(self.literal.value).replace("'", "''")
        return f"'{escaped}'"


Operand = PathExpr | Constant


@dataclass(frozen=True, slots=True)
class Predicate:
    """An elementary predicate ``X o Y``."""

    left: Operand
    operator: str
    right: Operand
    span: Span | None = field(default=None, compare=False)

    def __str__(self) -> str:
        return f"{self.left} {self.operator} {self.right}"


@dataclass(frozen=True, slots=True)
class And:
    """Conjunction of boolean expressions."""

    operands: tuple["BoolExpr", ...]

    def __str__(self) -> str:
        return " and ".join(_parenthesize(op) for op in self.operands)


@dataclass(frozen=True, slots=True)
class Or:
    """Disjunction of boolean expressions."""

    operands: tuple["BoolExpr", ...]

    def __str__(self) -> str:
        return " or ".join(_parenthesize(op) for op in self.operands)


BoolExpr = Predicate | And | Or


def _parenthesize(expr: BoolExpr) -> str:
    if isinstance(expr, (And, Or)):
        return f"({expr})"
    return str(expr)


@dataclass(frozen=True, slots=True)
class ExtensionRef:
    """One ``Extension var`` entry of the search clause.

    ``name`` is either a schema class or the name of another registered
    subscription rule (paper, Section 2.3: an extension "is either some
    class defined in the schema or another subscription rule").
    """

    name: str
    variable: str
    span: Span | None = field(default=None, compare=False)

    def __str__(self) -> str:
        return f"{self.name} {self.variable}"


@dataclass(frozen=True, slots=True)
class Rule:
    """A parsed subscription rule."""

    extensions: tuple[ExtensionRef, ...]
    register: str
    where: BoolExpr | None = None

    def __str__(self) -> str:
        text = (
            f"search {', '.join(map(str, self.extensions))} "
            f"register {self.register}"
        )
        if self.where is not None:
            text += f" where {self.where}"
        return text

    def variables(self) -> dict[str, str]:
        """Mapping of variable name to extension name, in search order."""
        return {ext.variable: ext.name for ext in self.extensions}


@dataclass(frozen=True, slots=True)
class Query:
    """A parsed metadata query.

    MDV's query language "is quite similar to the rule language" (paper,
    Section 2.2); here it is the rule grammar without the ``register``
    clause — the first search variable's resources are the result.
    """

    extensions: tuple[ExtensionRef, ...]
    result: str
    where: BoolExpr | None = None

    def as_rule(self) -> Rule:
        """View this query as a rule registering its result variable.

        Lets the query evaluator reuse the rule normalization machinery.
        """
        return Rule(self.extensions, self.result, self.where)

    def __str__(self) -> str:
        text = f"search {', '.join(map(str, self.extensions))}"
        if self.where is not None:
            text += f" where {self.where}"
        return text
