"""Tokenizer for MDV's subscription rule language.

The rule language (paper, Section 2.3) is SQL-like::

    search Extension e register e where Predicates(e)

with predicates of the form ``X o Y`` where ``X`` and ``Y`` are constants
or path expressions and ``o`` is one of ``= != < <= > >= contains``.
Keywords are matched case-insensitively.  String constants use single
quotes (``'uni-passau.de'``), doubling the quote to escape it.

Character sets: an identifier starts with a Unicode letter or ``_`` and
goes on with Unicode letters, digits and ``_`` (``str.isalnum``); a
number is ``-?[0-9]+(\\.[0-9]+)?`` in ASCII digits only.  Whitespace is
any Unicode whitespace.
"""

from __future__ import annotations

import re
from enum import Enum
from typing import NamedTuple

from repro.errors import RuleSyntaxError

__all__ = ["TokenType", "Token", "tokenize", "KEYWORDS", "OPERATORS"]


class TokenType(Enum):
    KEYWORD = "keyword"
    IDENT = "ident"
    NUMBER = "number"
    STRING = "string"
    OPERATOR = "operator"
    DOT = "dot"
    COMMA = "comma"
    QUESTION = "question"
    LPAREN = "lparen"
    RPAREN = "rparen"
    END = "end"


#: Reserved words of the rule/query language.
KEYWORDS = frozenset({"search", "register", "where", "and", "or", "contains"})

#: Comparison operators.  ``contains`` is tokenized as a keyword and
#: promoted to an operator by the parser.
OPERATORS = frozenset({"=", "!=", "<", "<=", ">", ">="})


class Token(NamedTuple):
    type: TokenType
    text: str
    position: int

    def is_keyword(self, word: str) -> bool:
        return self.type is TokenType.KEYWORD and self.text == word

    def __str__(self) -> str:  # pragma: no cover - error messages
        if self.type is TokenType.END:
            return "end of input"
        return repr(self.text)


#: One token after optional whitespace.  Every non-space character
#: starts some alternative, so a scan never skips input: what no token
#: accepts lands in ``bad``.  A string is closed by a quote that is not
#: the first of an escape pair.  ``word`` starts at any ``\w`` but a
#: decimal digit; a start that is not a letter or ``_`` (``²``, ``½``)
#: is rejected after the match.
_TOKEN = re.compile(
    r"\s*(?:"
    r"(?P<word>[^\W\d]\w*)"
    r"|(?P<number>-?[0-9]+(?:\.[0-9]+)?)"
    r"|'(?P<string>[^']*(?:''[^']*)*)'(?!')"
    r"|(?P<operator>[!<>]=|[<>=])"
    r"|(?P<punct>[.,?()])"
    r"|(?P<bad>\S)"
    r")"
)

_PUNCTUATION = {
    ".": TokenType.DOT,
    ",": TokenType.COMMA,
    "?": TokenType.QUESTION,
    "(": TokenType.LPAREN,
    ")": TokenType.RPAREN,
}


def tokenize(text: str) -> list[Token]:
    """Tokenize a rule or query string.

    Returns the token list terminated by a single ``END`` token.  Raises
    :class:`~repro.errors.RuleSyntaxError` on unterminated strings or
    unexpected characters.
    """
    tokens: list[Token] = []
    append = tokens.append
    # Trailing whitespace is cut off, so every match ends in a token.
    for match in _TOKEN.finditer(text, 0, len(text.rstrip())):
        kind = match.lastgroup
        assert kind is not None  # every alternative is a named group
        value = match[kind]
        start = match.start(kind)
        if kind == "word":
            lowered = value.lower()
            if lowered in KEYWORDS:
                append(Token(TokenType.KEYWORD, lowered, start))
            elif value[0].isalpha() or value[0] == "_":
                append(Token(TokenType.IDENT, value, start))
            else:
                raise RuleSyntaxError(
                    f"unexpected character {value[0]!r}", start
                )
        elif kind == "number":
            append(Token(TokenType.NUMBER, value, start))
        elif kind == "string":
            append(Token(TokenType.STRING, value.replace("''", "'"),
                         start - 1))
        elif kind == "operator":
            append(Token(TokenType.OPERATOR, value, start))
        elif kind == "punct":
            append(Token(_PUNCTUATION[value], value, start))
        elif value == "'":
            raise RuleSyntaxError("unterminated string constant", start)
        elif value == "!":
            raise RuleSyntaxError("expected '!=' after '!'", start)
        else:
            raise RuleSyntaxError(f"unexpected character {value!r}", start)
    append(Token(TokenType.END, "", len(text)))
    return tokens
