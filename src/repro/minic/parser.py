"""Recursive-descent parser for mini-C.

Grammar (informal)::

    program   := (global | func)*
    global    := 'int' '*'? ID ('[' INT ']')? ('=' ('-')? INT)? ';'
    func      := ('void'|'int') ID '(' params? ')' block
    param     := 'int' '*'? ID
    stmt      := decl | 'if' ... | 'while' ... | 'for' ... | 'return' ...
               | 'break' ';' | 'continue' ';' | 'spawn' ID '(' args ')' ';'
               | block | lvalue '=' expr ';' | expr ';'

``for (init; cond; step) body`` is desugared to
``{ init; while (cond) { body; step; } }``. Consequently ``continue``
inside a ``for`` loop skips the step expression; workloads avoid that
combination.
"""

from repro.errors import ParseError
from repro.minic import ast
from repro.minic.lexer import tokenize


#: binary operator -> precedence, loosest first; all left-associative
_PRECEDENCE = {op: prec for prec, ops in enumerate(
    (("||",), ("&&",), ("==", "!="), ("<", "<=", ">", ">="), ("+", "-"),
     ("*", "/", "%")), 1) for op in ops}


class _Parser:
    def __init__(self, tokens):
        self.tokens = tokens
        self.pos = 0
        self.last = len(tokens) - 1   # the eof token

    # -- token helpers ------------------------------------------------------

    def peek(self, ahead=0):
        if ahead:
            return self.tokens[min(self.pos + ahead, self.last)]
        return self.tokens[self.pos]

    def next(self):
        tok = self.tokens[self.pos]
        if self.pos < self.last:
            self.pos += 1
        return tok

    def at(self, kind, value=None):
        tok = self.tokens[self.pos]
        return tok.kind == kind and (value is None or tok.value == value)

    def accept(self, kind, value=None):
        if self.at(kind, value):
            return self.next()
        return None

    def expect(self, kind, value=None):
        tok = self.tokens[self.pos]
        if not (tok.kind == kind and (value is None or tok.value == value)):
            want = value if value is not None else kind
            raise ParseError(
                "expected %r, found %r" % (want, tok.value), tok.line, tok.col
            )
        return self.next()

    def error(self, msg):
        tok = self.tokens[self.pos]
        raise ParseError(msg, tok.line, tok.col)

    # -- top level -----------------------------------------------------------

    def parse_program(self):
        globals_ = []
        funcs = []
        while not self.at("eof"):
            if self.at("kw", "void"):
                funcs.append(self.parse_func())
            elif self.at("kw", "int"):
                # 'int' ID '(' -> function returning int; otherwise global.
                offset = 1
                if self.peek(1).kind == "op" and self.peek(1).value == "*":
                    offset = 2
                if (
                    self.peek(offset).kind == "id"
                    and self.peek(offset + 1).kind == "op"
                    and self.peek(offset + 1).value == "("
                ):
                    funcs.append(self.parse_func())
                else:
                    globals_.append(self.parse_global())
            else:
                self.error("expected declaration or function")
        return ast.Program(globals_, funcs)

    def _declarator(self):
        """``'int' '*'? ID ('[' INT ']')?`` -> (tok, is_ptr, name, size,
        is_array)."""
        tok = self.expect("kw", "int")
        is_ptr = bool(self.accept("op", "*"))
        name = self.expect("id").value
        if not self.accept("op", "["):
            return tok, is_ptr, name, 1, False
        size = self.expect("int").value
        self.expect("op", "]")
        if size <= 0:
            self.error("array size must be positive")
        return tok, is_ptr, name, size, True

    def parse_global(self):
        tok, is_ptr, name, size, is_array = self._declarator()
        init = None
        if self.accept("op", "="):
            neg = bool(self.accept("op", "-"))
            value = self.expect("int").value
            init = -value if neg else value
        self.expect("op", ";")
        return ast.GlobalVar(name, is_ptr, size, init, tok.line, tok.col,
                             is_array=is_array)

    def parse_func(self):
        tok = self.next()  # 'void' or 'int'
        self.accept("op", "*")
        name = self.expect("id").value
        self.expect("op", "(")
        params = []
        if not self.at("op", ")"):
            while True:
                self.expect("kw", "int")
                is_ptr = bool(self.accept("op", "*"))
                pname = self.expect("id").value
                params.append((pname, is_ptr))
                if not self.accept("op", ","):
                    break
        self.expect("op", ")")
        body = self.parse_block()
        return ast.FuncDef(name, params, body, tok.line, tok.col)

    # -- statements ----------------------------------------------------------

    def parse_block(self):
        tok = self.expect("op", "{")
        stmts = []
        while not self.at("op", "}"):
            if self.at("eof"):
                self.error("unterminated block")
            stmts.append(self.parse_stmt())
        self.expect("op", "}")
        return ast.Block(stmts, tok.line, tok.col)

    def parse_stmt(self):
        tok = self.tokens[self.pos]
        if tok.kind == "kw" and tok.value in _STMT_KEYWORDS:
            return _STMT_KEYWORDS[tok.value](self)
        if tok.kind == "op" and tok.value == "{":
            return self.parse_block()
        return self.parse_assign_or_expr()

    def parse_return(self):
        tok = self.next()
        value = None
        if not self.at("op", ";"):
            value = self.parse_expr()
        self.expect("op", ";")
        return ast.Return(value, tok.line, tok.col)

    def parse_jump(self):
        """``break;`` or ``continue;``."""
        tok = self.next()
        self.expect("op", ";")
        node = ast.Break if tok.value == "break" else ast.Continue
        return node(tok.line, tok.col)

    def parse_decl(self):
        tok, is_ptr, name, size, is_array = self._declarator()
        init = None
        if self.accept("op", "="):
            init = self.parse_expr()
        self.expect("op", ";")
        return ast.Decl(name, is_ptr, size, init, tok.line, tok.col,
                        is_array=is_array)

    def parse_if(self):
        tok = self.expect("kw", "if")
        self.expect("op", "(")
        cond = self.parse_expr()
        self.expect("op", ")")
        then = self.parse_stmt()
        els = None
        if self.accept("kw", "else"):
            els = self.parse_stmt()
        return ast.If(cond, then, els, tok.line, tok.col)

    def parse_while(self):
        tok = self.expect("kw", "while")
        self.expect("op", "(")
        cond = self.parse_expr()
        self.expect("op", ")")
        body = self.parse_stmt()
        return ast.While(cond, body, tok.line, tok.col)

    def parse_for(self):
        tok = self.expect("kw", "for")
        self.expect("op", "(")
        init = None
        if not self.at("op", ";"):
            init = self.parse_simple_stmt()
        self.expect("op", ";")
        cond = ast.IntLit(1, tok.line, tok.col)
        if not self.at("op", ";"):
            cond = self.parse_expr()
        self.expect("op", ";")
        step = None
        if not self.at("op", ")"):
            step = self.parse_simple_stmt()
        self.expect("op", ")")
        body = self.parse_stmt()
        loop_body = [body]
        if step is not None:
            loop_body.append(step)
        loop = ast.While(cond, ast.Block(loop_body, tok.line, tok.col), tok.line, tok.col)
        outer = [init] if init is not None else []
        outer.append(loop)
        return ast.Block(outer, tok.line, tok.col)

    def parse_simple_stmt(self):
        """Assignment or expression without the trailing semicolon
        (used for `for` headers)."""
        if self.at("kw", "int"):
            self.error("declarations are not allowed in for headers")
        expr = self.parse_expr()
        if self.accept("op", "="):
            self._require_lvalue(expr)
            value = self.parse_expr()
            return ast.Assign(expr, value, expr.line, expr.col)
        return ast.ExprStmt(expr, expr.line, expr.col)

    def parse_spawn(self):
        tok = self.expect("kw", "spawn")
        name = self.expect("id").value
        self.expect("op", "(")
        args = []
        if not self.at("op", ")"):
            while True:
                args.append(self.parse_expr())
                if not self.accept("op", ","):
                    break
        self.expect("op", ")")
        self.expect("op", ";")
        return ast.Spawn(name, args, tok.line, tok.col)

    def parse_assign_or_expr(self):
        stmt = self.parse_simple_stmt()
        self.expect("op", ";")
        return stmt

    def _require_lvalue(self, expr):
        if not isinstance(expr, (ast.Var, ast.Deref, ast.Index)):
            raise ParseError(
                "assignment target must be a variable, *pointer or array element",
                expr.line,
                expr.col,
            )

    # -- expressions ---------------------------------------------------------

    def parse_expr(self):
        return self._binary(1)

    def _binary(self, min_prec):
        """Precedence climbing over :data:`_PRECEDENCE`."""
        left = self.parse_unary()
        tokens = self.tokens
        while True:
            tok = tokens[self.pos]
            prec = _PRECEDENCE.get(tok.value) if tok.kind == "op" else None
            if prec is None or prec < min_prec:
                return left
            self.next()
            right = self._binary(prec + 1)
            left = ast.Binary(tok.value, left, right, left.line, left.col)

    def parse_unary(self):
        tok = self.peek()
        if tok.kind == "op" and tok.value in ("-", "!"):
            self.next()
            return ast.Unary(tok.value, self.parse_unary(), tok.line, tok.col)
        if tok.kind == "op" and tok.value == "*":
            self.next()
            return ast.Deref(self.parse_unary(), tok.line, tok.col)
        if tok.kind == "op" and tok.value == "&":
            self.next()
            operand = self.parse_unary()
            if not isinstance(operand, (ast.Var, ast.Index)):
                raise ParseError(
                    "can only take the address of a variable or array element",
                    tok.line,
                    tok.col,
                )
            return ast.AddrOf(operand, tok.line, tok.col)
        return self.parse_postfix()

    def parse_postfix(self):
        expr = self.parse_primary()
        while self.at("op", "["):
            if not isinstance(expr, ast.Var):
                self.error("only named arrays may be indexed")
            self.next()
            index = self.parse_expr()
            self.expect("op", "]")
            expr = ast.Index(expr, index, expr.line, expr.col)
        return expr

    def parse_primary(self):
        tok = self.peek()
        if tok.kind == "int":
            self.next()
            return ast.IntLit(tok.value, tok.line, tok.col)
        if tok.kind == "id":
            self.next()
            if self.at("op", "("):
                self.next()
                args = []
                if not self.at("op", ")"):
                    while True:
                        args.append(self.parse_expr())
                        if not self.accept("op", ","):
                            break
                self.expect("op", ")")
                return ast.Call(tok.value, args, tok.line, tok.col)
            return ast.Var(tok.value, tok.line, tok.col)
        if tok.kind == "op" and tok.value == "(":
            self.next()
            expr = self.parse_expr()
            self.expect("op", ")")
            return expr
        self.error("expected expression")


_STMT_KEYWORDS = {
    "int": _Parser.parse_decl,
    "if": _Parser.parse_if,
    "while": _Parser.parse_while,
    "for": _Parser.parse_for,
    "return": _Parser.parse_return,
    "break": _Parser.parse_jump,
    "continue": _Parser.parse_jump,
    "spawn": _Parser.parse_spawn,
}


def parse(source):
    """Parse mini-C ``source`` text into a :class:`repro.minic.ast.Program`."""
    return _Parser(tokenize(source)).parse_program()
