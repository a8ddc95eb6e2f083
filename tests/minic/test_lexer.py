"""Lexer unit tests."""

import pytest

from repro.errors import LexError
from repro.minic.lexer import Token, tokenize


def kinds(source):
    return [(t.kind, t.value) for t in tokenize(source)[:-1]]


def test_empty_source_yields_only_eof():
    toks = tokenize("")
    assert len(toks) == 1
    assert toks[0].kind == "eof"


def test_integer_literal():
    assert kinds("42") == [("int", 42)]


def test_identifier_and_keyword():
    assert kinds("int foo") == [("kw", "int"), ("id", "foo")]


def test_identifier_with_underscore_and_digits():
    assert kinds("_x9 y_2") == [("id", "_x9"), ("id", "y_2")]


def test_all_keywords_recognized():
    for kw in ("int", "void", "if", "else", "while", "for", "break",
               "continue", "return", "spawn"):
        assert kinds(kw) == [("kw", kw)]


def test_keyword_prefix_is_identifier():
    assert kinds("iff whiler") == [("id", "iff"), ("id", "whiler")]


def test_two_char_operators_longest_match():
    assert kinds("a<=b") == [("id", "a"), ("op", "<="), ("id", "b")]
    assert kinds("a==b") == [("id", "a"), ("op", "=="), ("id", "b")]
    assert kinds("a&&b") == [("id", "a"), ("op", "&&"), ("id", "b")]
    assert kinds("a||b") == [("id", "a"), ("op", "||"), ("id", "b")]
    assert kinds("a!=b") == [("id", "a"), ("op", "!="), ("id", "b")]


def test_single_ampersand_is_address_of():
    assert kinds("&x") == [("op", "&"), ("id", "x")]


def test_line_comment_skipped():
    assert kinds("a // comment here\nb") == [("id", "a"), ("id", "b")]


def test_block_comment_skipped():
    assert kinds("a /* x\ny\nz */ b") == [("id", "a"), ("id", "b")]


def test_unterminated_block_comment_raises():
    with pytest.raises(LexError):
        tokenize("a /* never closed")


def test_line_and_column_tracking():
    toks = tokenize("ab\n  cd")
    assert (toks[0].line, toks[0].col) == (1, 1)
    assert (toks[1].line, toks[1].col) == (2, 3)


def test_line_tracking_after_block_comment():
    toks = tokenize("/* a\nb */ x")
    assert toks[0].line == 2


def test_unexpected_character_raises_with_position():
    with pytest.raises(LexError) as exc:
        tokenize("a\n  $")
    assert exc.value.line == 2


def test_token_equality_ignores_position():
    a = Token("id", "x", 1, 1)
    b = Token("id", "x", 5, 9)
    assert a == b
    assert hash(a) == hash(b)


def test_full_statement():
    assert kinds("x = a[3] * 2;") == [
        ("id", "x"), ("op", "="), ("id", "a"), ("op", "["), ("int", 3),
        ("op", "]"), ("op", "*"), ("int", 2), ("op", ";"),
    ]


@pytest.mark.parametrize("source, col", [
    ("int x = ²;", 9),      # superscript two: str.isdigit accepts it
    ("int x = ٣;", 9),      # Arabic-Indic three: int() reads it as 3
    ("int é = 1;", 5),      # e-acute: str.isalpha accepts it
    ("int xé = 1;", 6),     # not even in the middle of a name
])
def test_non_ascii_digits_and_letters_raise_lex_error(source, col):
    with pytest.raises(LexError) as exc:
        tokenize(source)
    assert (exc.value.line, exc.value.col) == (1, col)


def test_ascii_digits_after_non_ascii_line_keep_position():
    with pytest.raises(LexError) as exc:
        tokenize("x = 1;\n  y = ²;")
    assert (exc.value.line, exc.value.col) == (2, 7)


def test_eof_position_after_trailing_line_comment():
    assert tokenize("a // tail")[-1].col == 10
