"""Unit tests for the rule-language tokenizer."""

import pytest
from hypothesis import example, given, strategies as st

from repro.errors import QuerySyntaxError, RuleSyntaxError
from repro.rules.parser import parse_query, parse_rule
from repro.rules.tokens import Token, TokenType, tokenize

from tests.conftest import prop_settings
from tests.rules.tokenizer_reference import reference_tokenize


def kinds(text):
    return [t.type for t in tokenize(text)]


def texts(text):
    return [t.text for t in tokenize(text)[:-1]]


def test_keywords_case_insensitive():
    tokens = tokenize("SEARCH Register WHERE and OR Contains")
    assert all(t.type is TokenType.KEYWORD for t in tokens[:-1])
    assert texts("SEARCH Register WHERE") == ["search", "register", "where"]


def test_identifiers():
    tokens = tokenize("CycleProvider c_1 _x")
    assert [t.type for t in tokens[:-1]] == [TokenType.IDENT] * 3


def test_numbers():
    assert texts("42 -7 3.25") == ["42", "-7", "3.25"]
    token_types = kinds("42 -7 3.25")[:-1]
    assert token_types == [TokenType.NUMBER] * 3


def test_number_then_dot_not_confused_with_path():
    # "5." followed by a non-digit must not swallow the dot.
    tokens = tokenize("5.x")
    assert tokens[0].text == "5"
    assert tokens[1].type is TokenType.DOT
    assert tokens[2].text == "x"


def test_operators():
    assert texts("= != < <= > >=") == ["=", "!=", "<", "<=", ">", ">="]
    assert all(
        t.type is TokenType.OPERATOR for t in tokenize("= != < <= > >=")[:-1]
    )


def test_bang_without_equals_rejected():
    with pytest.raises(RuleSyntaxError):
        tokenize("a ! b")


def test_string_constant():
    (token, __) = tokenize("'uni-passau.de'")
    assert token.type is TokenType.STRING
    assert token.text == "uni-passau.de"


def test_string_with_escaped_quote():
    (token, __) = tokenize("'it''s'")
    assert token.text == "it's"


def test_string_escape_followed_by_more_text():
    tokens = tokenize("'a''b' x")
    assert tokens[0].text == "a'b"
    assert tokens[1].text == "x"


def test_unterminated_string():
    with pytest.raises(RuleSyntaxError):
        tokenize("'oops")


def test_punctuation():
    assert kinds(". , ? ( )")[:-1] == [
        TokenType.DOT,
        TokenType.COMMA,
        TokenType.QUESTION,
        TokenType.LPAREN,
        TokenType.RPAREN,
    ]


def test_unexpected_character():
    with pytest.raises(RuleSyntaxError) as err:
        tokenize("a @ b")
    assert err.value.position == 2


def test_end_token_always_present():
    assert tokenize("")[-1].type is TokenType.END
    assert tokenize("x")[-1].type is TokenType.END


def test_positions_recorded():
    tokens = tokenize("ab cd")
    assert tokens[0].position == 0
    assert tokens[1].position == 3


def test_is_keyword_helper():
    token = Token(TokenType.KEYWORD, "search", 0)
    assert token.is_keyword("search")
    assert not token.is_keyword("where")


def test_full_rule_tokenizes():
    text = (
        "search CycleProvider c register c "
        "where c.serverHost contains 'uni-passau.de' "
        "and c.serverInformation.memory > 64"
    )
    tokens = tokenize(text)
    assert tokens[-1].type is TokenType.END
    assert sum(1 for t in tokens if t.type is TokenType.DOT) == 3


def test_unicode_letters_form_identifiers():
    assert texts("c.sérverPort x٣ _ß") == ["c", ".", "sérverPort", "x٣", "_ß"]


RULE = "search CycleProvider c register c where c.serverPort = "


@pytest.mark.parametrize(
    "constant, offset",
    [
        ("²", 0),   # a digit (str.isdigit) that int() refuses
        ("1²", 1),  # the same after an ASCII digit
        ("٣", 0),   # a decimal digit int() would read as 3
        ("-٣", 0),  # '-' before a non-ASCII digit starts no number
        ("5.٣", 2),
        ("§", 0),   # never a digit: the same error as ever
    ],
)
def test_number_tokens_take_ascii_digits_only(constant, offset):
    with pytest.raises(RuleSyntaxError) as err:
        parse_rule(RULE + constant)
    assert err.value.position == len(RULE) + offset
    assert "unexpected character" in str(err.value)


QUERY = "search CycleProvider c where c.serverPort = "


@pytest.mark.parametrize("constant", ["²", "§", "= 1"])
def test_query_syntax_errors_are_query_errors(constant):
    """A query's lexical errors raise the same class as its grammar errors."""
    with pytest.raises(QuerySyntaxError) as err:
        parse_query(QUERY + constant)
    assert err.value.position == len(QUERY)


#: Fragments of the rule alphabet, the tricky ones included: quotes and
#: ``''`` escapes, ``!`` without ``=``, ``-`` before a digit and before a
#: space, ``5.x``, Unicode letters, digits and spaces.
FRAGMENTS = [
    "search", "REGISTER", "Where", "and", "or", "contains", "c", "_x",
    "serverPort", "sérver", "ß", "Ω", "x1", "0", "7", "42", "-", "-1",
    "- 1", "5.x", "3.25", "5.", ".", ",", "?", "(", ")", "'", "''",
    "'it''s'", "'a'", "!", "!=", "=", "<", "<=", ">", ">=", "<>", " ",
    "  ", "\t", " ", "٣", "²", "½", "§", "@",
]

rule_alphabet_text = st.lists(
    st.sampled_from(FRAGMENTS), max_size=14
).map("".join) | st.text(
    alphabet=st.sampled_from(list("ab_1-.'!=< ٣²é")), max_size=12
)


def _non_ascii_number(triples):
    """The first number token the reference read non-ASCII digits into."""
    for kind, text, position in triples:
        if kind is TokenType.NUMBER and not text.isascii():
            return text, position
    return None


@prop_settings(400)
@given(text=rule_alphabet_text)
@example(text="'a''")
@example(text="'''")
@example(text="a ! b")
@example(text="5.x - 1")
@example(text="c = 1²")
@example(text="  x  ")
def test_tokenizer_agrees_with_the_character_loop(text):
    """Same ``(type, text, position)`` list or the same error position as
    the loop the scan replaced — except where that loop read non-ASCII
    digits into a number (it crashed the parser or parsed ``٣`` as 3):
    there the scan raises inside that number."""
    expected, reference_error = reference_tokenize(text)
    bad_number = _non_ascii_number(expected)
    if bad_number is not None:
        number, position = bad_number
        with pytest.raises(RuleSyntaxError) as err:
            tokenize(text)
        assert position <= err.value.position < position + len(number)
    elif reference_error is not None:
        with pytest.raises(RuleSyntaxError) as err:
            tokenize(text)
        assert err.value.position == reference_error.position
    else:
        assert [tuple(token) for token in tokenize(text)] == expected
