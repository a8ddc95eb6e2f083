"""Property: ``parse`` builds expressions exactly like a plain
recursive-descent grammar with one level per precedence class.

The reference grammar below is the textbook shape (``or → and → eq →
rel → add → mul → unary → postfix → primary``) and lives here, apart
from ``src/``, so any rewrite of the real parser is checked against it.
Each node is compared with its type, fields, source position and the
rank of its ``uid`` within the tree, so the two must also create the
nodes in the same order.  A table of malformed expressions pins the
``ParseError`` message and position of each.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ParseError
from repro.minic import ast
from repro.minic.lexer import tokenize
from repro.minic.parser import parse

LEVELS = (("||",), ("&&",), ("==", "!="), ("<", "<=", ">", ">="),
          ("+", "-"), ("*", "/", "%"))
BINARY_OPS = tuple(op for level in LEVELS for op in level)


class _Reference:
    """One method per precedence level, as the grammar is written."""

    def __init__(self, text):
        self.tokens = tokenize(text)
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos]

    def take(self, value):
        tok = self.peek()
        assert tok.kind == "op" and tok.value == value, (tok, value)
        self.pos += 1
        return tok

    def is_op(self, *values):
        tok = self.peek()
        return tok.kind == "op" and tok.value in values

    def expr(self, level=0):
        if level == len(LEVELS):
            return self.unary()
        left = self.expr(level + 1)
        while self.is_op(*LEVELS[level]):
            op = self.take(self.peek().value).value
            right = self.expr(level + 1)
            left = ast.Binary(op, left, right, left.line, left.col)
        return left

    def unary(self):
        tok = self.peek()
        if self.is_op("-", "!"):
            self.pos += 1
            return ast.Unary(tok.value, self.unary(), tok.line, tok.col)
        if self.is_op("*"):
            self.pos += 1
            return ast.Deref(self.unary(), tok.line, tok.col)
        if self.is_op("&"):
            self.pos += 1
            return ast.AddrOf(self.unary(), tok.line, tok.col)
        expr = self.primary()
        while self.is_op("["):
            self.pos += 1
            index = self.expr()
            self.take("]")
            expr = ast.Index(expr, index, expr.line, expr.col)
        return expr

    def primary(self):
        tok = self.peek()
        self.pos += 1
        if tok.kind == "int":
            return ast.IntLit(tok.value, tok.line, tok.col)
        if tok.kind == "id":
            if not self.is_op("("):
                return ast.Var(tok.value, tok.line, tok.col)
            self.pos += 1
            args = []
            while not self.is_op(")"):
                args.append(self.expr())
                if self.is_op(","):
                    self.pos += 1
            self.take(")")
            return ast.Call(tok.value, args, tok.line, tok.col)
        assert tok.kind == "op" and tok.value == "(", tok
        expr = self.expr()
        self.take(")")
        return expr


def _dump(root):
    """Nested tuples of (type, fields, line, col, uid rank)."""
    nodes = []

    def visit(node):
        nodes.append(node)
        for child in node.children():
            visit(child)

    visit(root)
    rank = {uid: i for i, uid in enumerate(sorted(n.uid for n in nodes))}

    def dump(node):
        fields = []
        for slot in type(node).__slots__:
            value = getattr(node, slot)
            if isinstance(value, ast.Node):
                fields.append(dump(value))
            elif isinstance(value, list):
                fields.append(tuple(dump(v) for v in value))
            else:
                fields.append(value)
        return (type(node).__name__, tuple(fields), node.line, node.col,
                rank[node.uid])

    return dump(root)


PREFIX = "void main() {\n  output("
SUFFIX = ");\n}\n"


def _parsed_expr(text):
    program = parse(PREFIX + text + SUFFIX)
    return program.funcs[0].body.stmts[0].expr.args[0]


def _reference_expr(text):
    ref = _Reference(PREFIX + text + SUFFIX)
    ref.pos = 7                  # past `void main ( ) { output (`
    expr = ref.expr()
    ref.take(")")
    return expr


NAMES = st.sampled_from(["x", "y", "a", "p", "count"])


@st.composite
def _lvalue(draw):
    """Operands ``&`` accepts: a name or an indexed name."""
    name = draw(NAMES)
    if draw(st.booleans()):
        return "%s[%s]" % (name, draw(_expr(depth=2)))
    return name


@st.composite
def _expr(draw, depth=0):
    """Mini-C expression text; every subterm may be parenthesized."""
    leaf = depth >= 4 or draw(st.integers(0, 3)) == 0
    if leaf:
        text = (str(draw(st.integers(0, 99))) if draw(st.booleans())
                else draw(NAMES))
    else:
        kind = draw(st.sampled_from(
            ["binary", "binary", "binary", "binary", "unary", "deref",
             "addr", "index", "call"]))
        if kind == "binary":
            text = "%s %s %s" % (draw(_expr(depth=depth + 1)),
                                 draw(st.sampled_from(BINARY_OPS)),
                                 draw(_expr(depth=depth + 1)))
        elif kind == "unary":
            text = draw(st.sampled_from(["-", "!"])) + draw(
                _expr(depth=depth + 1))
        elif kind == "deref":
            text = "*" + draw(_expr(depth=depth + 1))
        elif kind == "addr":
            text = "&" + draw(_lvalue())
        elif kind == "index":
            text = "%s[%s]" % (draw(NAMES), draw(_expr(depth=depth + 1)))
        else:
            args = draw(st.lists(_expr(depth=depth + 1), max_size=3))
            text = "%s(%s)" % (draw(NAMES), ", ".join(args))
    if draw(st.booleans()):
        text = "(%s)" % text
    return text


@given(_expr())
@settings(max_examples=400, deadline=None)
def test_parse_matches_reference_grammar(text):
    assert _dump(_parsed_expr(text)) == _dump(_reference_expr(text))


@given(_expr(), _expr(), st.sampled_from(BINARY_OPS),
       st.sampled_from(BINARY_OPS))
@settings(max_examples=200, deadline=None)
def test_unparenthesized_chains_match_reference(a, b, op1, op2):
    text = "%s %s %s %s (%s)" % (a, op1, b, op2, a)
    assert _dump(_parsed_expr(text)) == _dump(_reference_expr(text))


def test_every_binary_operator_has_its_precedence():
    for level, ops in enumerate(LEVELS):
        for op in ops:
            tree = _parsed_expr("1 %s 2 * 3" % op)
            if op in ("*", "/", "%"):
                assert tree.op == "*" and tree.left.op == op
            else:
                assert tree.op == op and tree.right.op == "*"
            if level + 1 < len(LEVELS):
                tighter = LEVELS[level + 1][0]
                tree = _parsed_expr("1 %s 2 %s 3" % (tighter, op))
                assert tree.op == op and tree.left.op == tighter


#: (expression text, message, line, column) as the parser reports them
MALFORMED = [
    ("1 +", "expected expression", 2, 13),
    ("a[]", "expected expression", 2, 12),
    ("(", "expected expression", 2, 11),
    ("(1 + 2", "expected ')', found ';'", 2, 17),
    ("1 + * ", "expected expression", 2, 16),
    ("a[1", "expected ']', found ')'", 2, 13),
    ("&1", "can only take the address of a variable or array element", 2, 10),
    ("&-x", "can only take the address of a variable or array element", 2, 10),
    ("&f(x)", "can only take the address of a variable or array element",
     2, 10),
    ("f(1)[2]", "only named arrays may be indexed", 2, 14),
    ("(a + b)[0]", "only named arrays may be indexed", 2, 17),
    ("a[0][1]", "only named arrays may be indexed", 2, 14),
    ("f(1,)", "expected expression", 2, 14),
    ("f(1 2)", "expected ')', found 2", 2, 14),
    ("1 2", "expected ')', found 2", 2, 12),
    ("x == == y", "expected expression", 2, 15),
    ("!", "expected expression", 2, 11),
    ("-(", "expected expression", 2, 12),
    ("a || (b && )", "expected expression", 2, 21),
]


@pytest.mark.parametrize("text,message,line,col", MALFORMED)
def test_malformed_expression_errors_are_pinned(text, message, line, col):
    with pytest.raises(ParseError) as info:
        parse(PREFIX + text + SUFFIX)
    err = info.value
    assert (str(err), err.line, err.col) == (
        "line %d:%d: %s" % (line, col, message), line, col)
