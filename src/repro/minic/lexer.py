"""Regex lexer for mini-C."""

import re

from repro.errors import LexError

KEYWORDS = {
    "int",
    "void",
    "if",
    "else",
    "while",
    "for",
    "break",
    "continue",
    "return",
    "spawn",
}

# Longest-match-first operator table.
OPERATORS = [
    "&&",
    "||",
    "==",
    "!=",
    "<=",
    ">=",
    "+",
    "-",
    "*",
    "/",
    "%",
    "<",
    ">",
    "=",
    "!",
    "&",
    "(",
    ")",
    "{",
    "}",
    "[",
    "]",
    ";",
    ",",
]


class Token:
    """A lexical token.

    ``kind`` is one of ``"int"`` (integer literal), ``"id"``, ``"kw"``,
    ``"op"`` or ``"eof"``. ``value`` is the literal integer, the identifier
    text, the keyword text, or the operator text respectively.
    """

    __slots__ = ("kind", "value", "line", "col")

    def __init__(self, kind, value, line, col):
        self.kind = kind
        self.value = value
        self.line = line
        self.col = col

    def __repr__(self):
        return "Token(%r, %r, %d:%d)" % (self.kind, self.value, self.line, self.col)

    def __eq__(self, other):
        return (
            isinstance(other, Token)
            and self.kind == other.kind
            and self.value == other.value
        )

    def __hash__(self):
        return hash((self.kind, self.value))


# One master pattern, tried once per token; blanks before a token are
# part of its match (the token starts at its group).  Integer literals
# and identifiers are ASCII only; any other character no alternative
# takes falls to ``bad`` and is reported where it stands.  ``open``
# catches a ``/*`` whose ``*/`` never comes.
_TOKEN_RE = re.compile(
    r"[ \t\r]*(?:(?P<newline>\n)"
    r"|(?P<comment>//[^\n]*|/\*.*?\*/)"
    r"|(?P<open>/\*)"
    r"|(?P<int>[0-9]+)"
    r"|(?P<name>[A-Za-z_][A-Za-z0-9_]*)"
    r"|(?P<op>" + "|".join(re.escape(op) for op in OPERATORS) + r")"
    r"|(?P<bad>[^ \t\r]))",
    re.DOTALL,
)


def tokenize(source):
    """Tokenize mini-C ``source`` into a list of Tokens ending with eof.

    Supports ``//`` line comments and ``/* ... */`` block comments.
    """
    tokens = []
    append = tokens.append
    line = 1
    line_start = 0   # offset of the current line's first character
    for match in _TOKEN_RE.finditer(source):
        kind = match.lastgroup
        start = match.start(kind)
        if kind == "newline":
            line += 1
            line_start = start + 1
            continue
        text = match.group(kind)
        col = start - line_start + 1
        if kind == "op":
            append(Token("op", text, line, col))
        elif kind == "name":
            append(Token("kw" if text in KEYWORDS else "id", text, line, col))
        elif kind == "int":
            append(Token("int", int(text), line, col))
        elif kind == "comment":
            newlines = text.count("\n")
            if newlines:
                line += newlines
                line_start = start + text.rfind("\n") + 1
        elif kind == "open":
            raise LexError("unterminated block comment", line, col)
        else:
            raise LexError("unexpected character %r" % text, line, col)
    append(Token("eof", None, line, len(source) - line_start + 1))
    return tokens
