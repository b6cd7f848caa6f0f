"""Fuzz tests: parsers must fail *predictably* on arbitrary input.

Whatever bytes arrive, the tokenizer, rule parser, query parser and the
document parsers must either succeed or raise the documented
:class:`~repro.errors.MDVError` subclass — never an arbitrary internal
exception.
"""

from tests.conftest import prop_settings
from hypothesis import given, settings, strategies as st

from repro.errors import DocumentParseError, RuleSyntaxError
from repro.rdf.parser import parse_document
from repro.rules.parser import parse_query, parse_rule
from repro.rules.tokens import tokenize

arbitrary_text = st.text(max_size=200)
rule_like_text = st.lists(
    st.sampled_from(
        list("abcdefgh0123456789.,?()'=<>!_ ")
        + ["search ", "register ", "where ", " and ", " or "]
    ),
    max_size=25,
).map("".join)


@prop_settings(200)
@given(text=arbitrary_text)
def test_tokenizer_total(text):
    try:
        tokens = tokenize(text)
    except RuleSyntaxError:
        return
    assert tokens[-1].type.name == "END"


@prop_settings(200)
@given(text=rule_like_text)
def test_rule_parser_total(text):
    try:
        parse_rule(text)
    except RuleSyntaxError:
        pass


@prop_settings(200)
@given(text=rule_like_text)
def test_query_parser_total(text):
    try:
        parse_query(text)
    except RuleSyntaxError:
        pass


@prop_settings(150)
@given(text=arbitrary_text)
def test_document_parser_total(text):
    try:
        parse_document(text, "fuzz.rdf")
    except DocumentParseError:
        pass

