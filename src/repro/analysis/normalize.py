"""CIL-style normalization.

CIL lowers C into a form where conditions are side-effect-free and every
memory access sits in a simple statement. The annotator relies on the same
property so that ``begin_atomic``/``end_atomic`` can always be inserted
immediately before/after the statement containing an access:

- ``while (cond) body`` becomes::

      while (1) { int __cN = cond; if (!__cN) break; body }

  (so ``continue`` still re-evaluates the condition), and

- ``if (cond) ...`` with a non-trivial condition becomes::

      int __cN = cond; if (__cN) ...

Temporaries ``__cN`` are compiler-generated, never address-taken and never
escape, so the LSV pass excludes them by name prefix.

Normalization is idempotent: a condition that already is a temporary
(``__cN``, or ``!__cN`` in a loop guard) reads no memory the annotator
watches, so it counts as trivial and is not hoisted again.  Normalizing
a normalized program yields the same statements and compiles to the
same instructions.
"""

import itertools

from repro.minic import ast

TEMP_PREFIX = "__c"

_temp_counter = itertools.count()


def _fresh_temp():
    return "%s%d" % (TEMP_PREFIX, next(_temp_counter))


def _is_temp(name):
    return name.startswith(TEMP_PREFIX) and name[len(TEMP_PREFIX):].isdigit()


def _is_trivial(expr):
    """Conditions that contain no memory access (or only read a
    temporary) need no hoisting."""
    if isinstance(expr, ast.IntLit):
        return True
    if isinstance(expr, ast.Var):
        return _is_temp(expr.name)
    if isinstance(expr, ast.Unary):
        return _is_trivial(expr.operand)
    return False


def normalize_program(program):
    """Normalize all functions in place; returns the same Program node."""
    for func in program.funcs:
        func.body = _norm_block(func.body)
    return program


def _norm_block(block):
    out = []
    for stmt in block.stmts:
        out.extend(_norm_stmt(stmt))
    return ast.Block(out, block.line, block.col)


def _norm_stmt(stmt):
    """Return a list of statements replacing ``stmt``."""
    if isinstance(stmt, ast.Block):
        return [_norm_block(stmt)]
    if isinstance(stmt, ast.If):
        then = _as_block(stmt.then)
        els = _as_block(stmt.els) if stmt.els is not None else None
        if _is_trivial(stmt.cond):
            return [ast.If(stmt.cond, then, els, stmt.line, stmt.col)]
        temp = _fresh_temp()
        decl = ast.Decl(temp, False, 1, stmt.cond, stmt.line, stmt.col)
        cond = ast.Var(temp, stmt.line, stmt.col)
        return [decl, ast.If(cond, then, els, stmt.line, stmt.col)]
    if isinstance(stmt, ast.Return):
        # hoist non-trivial return values so a second access inside the
        # return expression gets its end_atomic before clear_ar runs
        if stmt.value is None or _is_trivial(stmt.value) or isinstance(
                stmt.value, ast.Var):
            return [stmt]
        temp = _fresh_temp()
        decl = ast.Decl(temp, False, 1, stmt.value, stmt.line, stmt.col)
        ret = ast.Return(ast.Var(temp, stmt.line, stmt.col), stmt.line, stmt.col)
        return [decl, ret]
    if isinstance(stmt, ast.While):
        body = _as_block(stmt.body)
        if _is_trivial(stmt.cond):
            return [ast.While(stmt.cond, body, stmt.line, stmt.col)]
        temp = _fresh_temp()
        line, col = stmt.line, stmt.col
        assign_ok = ast.Decl(temp, False, 1, stmt.cond, line, col)
        guard = ast.If(
            ast.Unary("!", ast.Var(temp, line, col), line, col),
            ast.Block([ast.Break(line, col)], line, col),
            None,
            line,
            col,
        )
        new_body = ast.Block([assign_ok, guard] + list(body.stmts), line, col)
        return [ast.While(ast.IntLit(1, line, col), new_body, line, col)]
    return [stmt]


def _as_block(stmt):
    if isinstance(stmt, ast.Block):
        return _norm_block(stmt)
    return ast.Block(
        [s for sub in [stmt] for s in _norm_stmt(sub)], stmt.line, stmt.col
    )
