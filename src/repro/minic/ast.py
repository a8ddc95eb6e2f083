"""AST node definitions for mini-C.

Every node carries a source position and a unique integer ``uid`` assigned
at parse time. The static annotator identifies memory accesses by the uid
of the statement that contains them, so uids must be stable across the
annotation pass (inserted annotation statements receive fresh uids).
"""

import enum
import itertools

_uid_counter = itertools.count(1)


def fresh_uid():
    """Return a new globally unique node id."""
    return next(_uid_counter)


class AccessKind(enum.Enum):
    """Kind of a memory access, as tracked by the annotator and kernel."""

    READ = "R"
    WRITE = "W"

    def __str__(self):
        return self.value


class Node:
    """Base class for all AST nodes."""

    __slots__ = ("line", "col", "uid")

    def __init__(self, line=0, col=0):
        self.line = line
        self.col = col
        self.uid = fresh_uid()

    def children(self):
        """Child nodes in source order (used by :func:`walk`)."""
        return ()

    def __repr__(self):
        fields = []
        for slot in self.__slots__:
            if slot in ("line", "col", "uid"):
                continue
            fields.append("%s=%r" % (slot, getattr(self, slot)))
        return "%s(%s)" % (type(self).__name__, ", ".join(fields))


# ---------------------------------------------------------------------------
# Expressions
# ---------------------------------------------------------------------------


class Expr(Node):
    __slots__ = ()


class IntLit(Expr):
    """Integer literal."""

    __slots__ = ("value",)

    def __init__(self, value, line=0, col=0):
        super().__init__(line, col)
        self.value = int(value)


class Var(Expr):
    """Reference to a named variable (global, parameter or local)."""

    __slots__ = ("name",)

    def __init__(self, name, line=0, col=0):
        super().__init__(line, col)
        self.name = name


class Unary(Expr):
    """Unary operation: ``-``, ``!``."""

    __slots__ = ("op", "operand")

    def __init__(self, op, operand, line=0, col=0):
        super().__init__(line, col)
        self.op = op
        self.operand = operand

    def children(self):
        return (self.operand,)


class Deref(Expr):
    """Pointer dereference ``*e``."""

    __slots__ = ("operand",)

    def __init__(self, operand, line=0, col=0):
        super().__init__(line, col)
        self.operand = operand

    def children(self):
        return (self.operand,)


class AddrOf(Expr):
    """Address-of an lvalue: ``&x`` or ``&a[i]``."""

    __slots__ = ("operand",)

    def __init__(self, operand, line=0, col=0):
        super().__init__(line, col)
        self.operand = operand

    def children(self):
        return (self.operand,)


class Index(Expr):
    """Array indexing ``base[idx]`` where ``base`` is a Var."""

    __slots__ = ("base", "index")

    def __init__(self, base, index, line=0, col=0):
        super().__init__(line, col)
        self.base = base
        self.index = index

    def children(self):
        return (self.base, self.index)


class Binary(Expr):
    """Binary operation."""

    __slots__ = ("op", "left", "right")

    OPS = ("+", "-", "*", "/", "%", "==", "!=", "<", "<=", ">", ">=", "&&", "||")

    def __init__(self, op, left, right, line=0, col=0):
        super().__init__(line, col)
        self.op = op
        self.left = left
        self.right = right

    def children(self):
        return (self.left, self.right)


class Call(Expr):
    """Function call; ``name`` may be a user function or a builtin."""

    __slots__ = ("name", "args")

    def __init__(self, name, args, line=0, col=0):
        super().__init__(line, col)
        self.name = name
        self.args = list(args)

    def children(self):
        return self.args


# ---------------------------------------------------------------------------
# Statements
# ---------------------------------------------------------------------------


class Stmt(Node):
    __slots__ = ()


class Decl(Stmt):
    """Local declaration: ``int x;`` / ``int x = e;`` / ``int a[n];`` /
    ``int *p;``."""

    __slots__ = ("name", "is_ptr", "size", "init", "is_array")

    def __init__(self, name, is_ptr=False, size=1, init=None, line=0, col=0,
                 is_array=None):
        super().__init__(line, col)
        self.name = name
        self.is_ptr = is_ptr
        self.size = size
        self.init = init
        self.is_array = is_array if is_array is not None else size != 1

    def children(self):
        return () if self.init is None else (self.init,)


class Assign(Stmt):
    """Assignment ``lvalue = expr;`` where lvalue is Var, Deref or Index."""

    __slots__ = ("target", "value")

    def __init__(self, target, value, line=0, col=0):
        super().__init__(line, col)
        self.target = target
        self.value = value

    def children(self):
        return (self.target, self.value)


class ExprStmt(Stmt):
    """Expression evaluated for side effects (calls)."""

    __slots__ = ("expr",)

    def __init__(self, expr, line=0, col=0):
        super().__init__(line, col)
        self.expr = expr

    def children(self):
        return (self.expr,)


class Block(Stmt):
    """Sequence of statements."""

    __slots__ = ("stmts",)

    def __init__(self, stmts=None, line=0, col=0):
        super().__init__(line, col)
        self.stmts = list(stmts or [])

    def children(self):
        return self.stmts


class If(Stmt):
    __slots__ = ("cond", "then", "els")

    def __init__(self, cond, then, els=None, line=0, col=0):
        super().__init__(line, col)
        self.cond = cond
        self.then = then
        self.els = els

    def children(self):
        if self.els is None:
            return (self.cond, self.then)
        return (self.cond, self.then, self.els)


class While(Stmt):
    __slots__ = ("cond", "body")

    def __init__(self, cond, body, line=0, col=0):
        super().__init__(line, col)
        self.cond = cond
        self.body = body

    def children(self):
        return (self.cond, self.body)


class Break(Stmt):
    __slots__ = ()


class Continue(Stmt):
    __slots__ = ()


class Return(Stmt):
    __slots__ = ("value",)

    def __init__(self, value=None, line=0, col=0):
        super().__init__(line, col)
        self.value = value

    def children(self):
        return () if self.value is None else (self.value,)


class Spawn(Stmt):
    """Create a new thread running ``func(args)``."""

    __slots__ = ("func", "args")

    def __init__(self, func, args, line=0, col=0):
        super().__init__(line, col)
        self.func = func
        self.args = list(args)

    def children(self):
        return self.args


# ---------------------------------------------------------------------------
# Annotation statements (inserted by the static annotator, not parsed)
# ---------------------------------------------------------------------------


class BeginAtomic(Stmt):
    """``begin_atomic(ar_id, &var, size, watch_kinds, first_kind)``.

    ``addr`` is the lvalue expression whose address is monitored; the
    remaining begin_atomic arguments from the paper (size, remote access
    type to watch for, first local access type) live in the AR registry
    keyed by ``ar_id`` (see :mod:`repro.analysis.arinfo`).
    """

    __slots__ = ("ar_id", "addr")

    def __init__(self, ar_id, addr, line=0, col=0):
        super().__init__(line, col)
        self.ar_id = ar_id
        self.addr = addr

    def children(self):
        return (self.addr,)


class EndAtomic(Stmt):
    """``end_atomic(second_kind, ar_id)`` — carries the type of the second
    local access at this site, as in the paper."""

    __slots__ = ("ar_id", "second_kind")

    def __init__(self, ar_id, second_kind=None, line=0, col=0):
        super().__init__(line, col)
        self.ar_id = ar_id
        self.second_kind = second_kind if second_kind is not None else AccessKind.READ


class ClearAr(Stmt):
    """``clear_ar()`` — terminate all ARs opened in the current subroutine.

    Inserted at every subroutine exit by the annotator (Section 3.1).
    """

    __slots__ = ()


class ShadowStore(Stmt):
    """Replicate a first local write's value to the Kivati shared page.

    Third optimization of Section 3.4: with local watchpoint delivery
    disabled, the value after the first local write of a W-* AR must still
    be captured for undo, so the annotation pass replicates the write.
    """

    __slots__ = ("ar_id", "addr")

    def __init__(self, ar_id, addr, line=0, col=0):
        super().__init__(line, col)
        self.ar_id = ar_id
        self.addr = addr

    def children(self):
        return (self.addr,)


# ---------------------------------------------------------------------------
# Top level
# ---------------------------------------------------------------------------


class GlobalVar(Node):
    """Global variable: scalar, array or pointer."""

    __slots__ = ("name", "is_ptr", "size", "init", "is_array")

    def __init__(self, name, is_ptr=False, size=1, init=None, line=0, col=0,
                 is_array=None):
        super().__init__(line, col)
        self.name = name
        self.is_ptr = is_ptr
        self.size = size
        self.init = init
        self.is_array = is_array if is_array is not None else size != 1


class FuncDef(Node):
    """Function definition. Params are (name, is_ptr) pairs."""

    __slots__ = ("name", "params", "body")

    def __init__(self, name, params, body, line=0, col=0):
        super().__init__(line, col)
        self.name = name
        self.params = list(params)
        self.body = body

    def children(self):
        return (self.body,)

    @property
    def param_names(self):
        return [name for name, _ in self.params]


class Program(Node):
    """A complete mini-C translation unit."""

    __slots__ = ("globals", "funcs")

    def __init__(self, globals_, funcs, line=0, col=0):
        super().__init__(line, col)
        self.globals = list(globals_)
        self.funcs = list(funcs)

    def children(self):
        return self.globals + self.funcs

    def func(self, name):
        """Return the FuncDef with the given name, or raise KeyError."""
        for f in self.funcs:
            if f.name == name:
                return f
        raise KeyError(name)

    def global_var(self, name):
        """Return the GlobalVar with the given name, or raise KeyError."""
        for g in self.globals:
            if g.name == name:
                return g
        raise KeyError(name)


def walk(node):
    """Yield ``node`` and all descendants in pre-order, children in
    source order: one explicit stack, no generator per node."""
    stack = [node]
    pop = stack.pop
    push = stack.extend
    while stack:
        node = pop()
        yield node
        children = node.children()
        if children:
            push(reversed(children))


def statements(block):
    """Yield every statement nested anywhere inside ``block`` (pre-order)."""
    for node in walk(block):
        if isinstance(node, Stmt):
            yield node
