"""Recursive-descent parser for the rule and query languages.

See :mod:`repro.rules.ast` for the grammar.  ``and`` binds tighter than
``or``; parentheses group.  The parser performs no schema checks — those
happen during normalization, which needs the schema anyway to resolve
path expressions.
"""

from __future__ import annotations

from repro.errors import QuerySyntaxError, RuleSyntaxError
from repro.rdf.model import Literal
from repro.rules.ast import (
    And,
    BoolExpr,
    Constant,
    ExtensionRef,
    Or,
    PathExpr,
    PathStep,
    Predicate,
    Query,
    Rule,
)
from repro.rules.tokens import OPERATORS, Token, TokenType, tokenize

__all__ = ["parse_rule", "parse_query"]


class _Parser:
    """Shared cursor machinery for rules and queries."""

    def __init__(
        self, text: str, error_class: type[RuleSyntaxError] = RuleSyntaxError
    ):
        self.text = text
        #: Raised for every syntax error, lexical ones included.
        self.error_class = error_class
        try:
            self.tokens = tokenize(text)
        except RuleSyntaxError as exc:
            error = error_class(str(exc))
            error.position = exc.position
            raise error from None
        self.index = 0
        #: ``tokens[index]``; the token list always ends in ``END``,
        #: which no production consumes.
        self.current: Token = self.tokens[0]

    # -- cursor helpers -------------------------------------------------
    def advance(self) -> Token:
        token = self.current
        self.index += 1
        self.current = self.tokens[self.index]
        return token

    def fail(self, message: str) -> RuleSyntaxError:
        return self.error_class(
            f"{message}, found {self.current}", self.current.position
        )

    def expect_keyword(self, word: str) -> None:
        if not self.accept_keyword(word):
            raise self.fail(f"expected {word!r}")

    def accept_keyword(self, word: str) -> bool:
        if self.current.is_keyword(word):
            self.advance()
            return True
        return False

    def expect_ident(self, what: str) -> str:
        if self.current.type is not TokenType.IDENT:
            raise self.fail(f"expected {what}")
        return self.advance().text

    def expect_end(self) -> None:
        if self.current.type is not TokenType.END:
            raise self.fail("unexpected trailing input")

    def _end_of_previous(self) -> int:
        """End position of the most recently consumed token."""
        token = self.tokens[self.index - 1]
        if token.type is TokenType.STRING:
            # token.text is unescaped: add the quotes and escape doubles.
            return token.position + len(token.text) + 2 + token.text.count("'")
        return token.position + max(len(token.text), 1)

    # -- grammar productions --------------------------------------------
    def extensions(self) -> tuple[ExtensionRef, ...]:
        refs = [self.extension()]
        while self.current.type is TokenType.COMMA:
            self.advance()
            refs.append(self.extension())
        variables = [ref.variable for ref in refs]
        duplicates = {var for var in variables if variables.count(var) > 1}
        if duplicates:
            raise self.error_class(
                f"duplicate search variable(s): {', '.join(sorted(duplicates))}"
            )
        return tuple(refs)

    def extension(self) -> ExtensionRef:
        start = self.current.position
        name = self.expect_ident("an extension (class or rule) name")
        variable = self.expect_ident("a variable name")
        return ExtensionRef(name, variable, span=(start, self._end_of_previous()))

    def disjunction(self) -> BoolExpr:
        operands = [self.conjunction()]
        while self.accept_keyword("or"):
            operands.append(self.conjunction())
        if len(operands) == 1:
            return operands[0]
        return Or(tuple(operands))

    def conjunction(self) -> BoolExpr:
        operands = [self.primary()]
        while self.accept_keyword("and"):
            operands.append(self.primary())
        if len(operands) == 1:
            return operands[0]
        return And(tuple(operands))

    def primary(self) -> BoolExpr:
        if self.current.type is TokenType.LPAREN:
            self.advance()
            inner = self.disjunction()
            if self.current.type is not TokenType.RPAREN:
                raise self.fail("expected ')'")
            self.advance()
            return inner
        return self.predicate()

    def predicate(self) -> Predicate:
        start = self.current.position
        left = self.operand()
        operator = self.comparison_operator()
        right = self.operand()
        return Predicate(left, operator, right, span=(start, self._end_of_previous()))

    def comparison_operator(self) -> str:
        token = self.current
        if token.type is TokenType.OPERATOR and token.text in OPERATORS:
            self.advance()
            return token.text
        if token.is_keyword("contains"):
            self.advance()
            return "contains"
        raise self.fail("expected a comparison operator")

    def operand(self) -> Constant | PathExpr:
        token = self.current
        if token.type is TokenType.STRING:
            self.advance()
            return Constant(Literal(token.text))
        if token.type is TokenType.NUMBER:
            self.advance()
            text = token.text
            value: int | float = float(text) if "." in text else int(text)
            return Constant(Literal(value))
        if token.type is TokenType.IDENT:
            return self.path()
        raise self.fail("expected a constant or a path expression")

    def path(self) -> PathExpr:
        start = self.current.position
        variable = self.expect_ident("a variable")
        steps: list[PathStep] = []
        while self.current.type is TokenType.DOT:
            self.advance()
            prop = self.expect_ident("a property name")
            any_flag = False
            if self.current.type is TokenType.QUESTION:
                self.advance()
                any_flag = True
            steps.append(PathStep(prop, any_flag))
        return PathExpr(variable, tuple(steps), span=(start, self._end_of_previous()))


def parse_rule(text: str) -> Rule:
    """Parse a subscription rule.

    >>> rule = parse_rule(
    ...     "search CycleProvider c register c "
    ...     "where c.serverHost contains 'uni-passau.de'"
    ... )
    >>> rule.register
    'c'
    """
    parser = _Parser(text)
    parser.expect_keyword("search")
    extensions = parser.extensions()
    parser.expect_keyword("register")
    register = parser.expect_ident("the register variable")
    where: BoolExpr | None = None
    if parser.accept_keyword("where"):
        where = parser.disjunction()
    parser.expect_end()
    if register not in {ext.variable for ext in extensions}:
        raise RuleSyntaxError(
            f"register variable {register!r} is not bound in the search clause"
        )
    return Rule(extensions, register, where)


def parse_query(text: str) -> Query:
    """Parse a metadata query (the rule grammar without ``register``).

    The first search variable is the query result.
    """
    parser = _Parser(text, QuerySyntaxError)
    parser.expect_keyword("search")
    extensions = parser.extensions()
    where: BoolExpr | None = None
    if parser.accept_keyword("where"):
        where = parser.disjunction()
    parser.expect_end()
    return Query(extensions, extensions[0].variable, where)
