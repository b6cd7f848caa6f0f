"""The character-loop tokenizer the regex scan replaced, kept as the
oracle of ``test_tokens.py``.

It returns ``(type, text, position)`` triples instead of tokens, and
the error that stopped it instead of raising it.  It differs from :func:`repro.rules.tokens.tokenize` on one class of input
only: it reads any Unicode digit (``str.isdigit``) into a number token,
so ``²`` and ``1²`` reach ``int()`` and crash the parser, and ``٣``
parses as 3.  The tokenizer accepts ASCII ``[0-9]`` only.
"""

from __future__ import annotations

from repro.errors import RuleSyntaxError
from repro.rules.tokens import KEYWORDS, TokenType

Triple = tuple[TokenType, str, int]

_SIMPLE = {
    ".": TokenType.DOT,
    ",": TokenType.COMMA,
    "?": TokenType.QUESTION,
    "(": TokenType.LPAREN,
    ")": TokenType.RPAREN,
}


def reference_tokenize(
    text: str,
) -> tuple[list[Triple], RuleSyntaxError | None]:
    """The tokens read and the error that stopped the loop, if any."""
    tokens: list[Triple] = []
    try:
        _scan(text, tokens)
    except RuleSyntaxError as error:
        return tokens, error
    return tokens, None


def _scan(text: str, tokens: list[Triple]) -> None:
    index = 0
    length = len(text)
    while index < length:
        char = text[index]
        if char.isspace():
            index += 1
            continue
        if char == "'":
            token = _read_string(text, index)
            tokens.append(token)
            index += len(token[1]) + 2 + token[1].count("'")
            continue
        if char.isdigit() or (
            char == "-" and index + 1 < length and text[index + 1].isdigit()
        ):
            token = _read_number(text, index)
            tokens.append(token)
            index = token[2] + len(token[1])
            continue
        if char.isalpha() or char == "_":
            token = _read_word(text, index)
            tokens.append(token)
            index = token[2] + len(token[1])
            continue
        if char in "!<>=":
            if char == "!" and text[index : index + 2] != "!=":
                raise RuleSyntaxError("expected '!=' after '!'", index)
            two = text[index : index + 2]
            if two in ("!=", "<=", ">="):
                tokens.append((TokenType.OPERATOR, two, index))
                index += 2
            else:
                tokens.append((TokenType.OPERATOR, char, index))
                index += 1
            continue
        simple = _SIMPLE.get(char)
        if simple is not None:
            tokens.append((simple, char, index))
            index += 1
            continue
        raise RuleSyntaxError(f"unexpected character {char!r}", index)
    tokens.append((TokenType.END, "", length))


def _read_string(text: str, start: int) -> Triple:
    parts: list[str] = []
    index = start + 1
    length = len(text)
    while index < length:
        char = text[index]
        if char == "'":
            if index + 1 < length and text[index + 1] == "'":
                parts.append("'")
                index += 2
                continue
            return (TokenType.STRING, "".join(parts), start)
        parts.append(char)
        index += 1
    raise RuleSyntaxError("unterminated string constant", start)


def _read_number(text: str, start: int) -> Triple:
    index = start
    if text[index] == "-":
        index += 1
    while index < len(text) and text[index].isdigit():
        index += 1
    if index < len(text) and text[index] == "." and (
        index + 1 < len(text) and text[index + 1].isdigit()
    ):
        index += 1
        while index < len(text) and text[index].isdigit():
            index += 1
    return (TokenType.NUMBER, text[start:index], start)


def _read_word(text: str, start: int) -> Triple:
    index = start
    while index < len(text) and (text[index].isalnum() or text[index] == "_"):
        index += 1
    word = text[start:index]
    if word.lower() in KEYWORDS:
        return (TokenType.KEYWORD, word.lower(), start)
    return (TokenType.IDENT, word, start)
