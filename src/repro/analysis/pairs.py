"""Atomic-region pairing: the reaching-latest-access DFA (Section 3.1).

"Kivati performs a path-insensitive DFA on the CFG, tracking the program
statement and type of each access to variables in the LSV. ... it forms
intra-procedural local access pairs by matching each shared variable
access with another access to the same variable that precedes it in the
DFA. The operation is conceptually similar to a reaching-definition
analysis except that Kivati considers all preceding accesses, not just
definitions."

Accordingly, the dataflow fact at each point maps each shared variable to
the set of accesses that are the *latest* access to it along some path;
every access pairs with every reaching latest access and then replaces
them.
"""

from repro.minic import ast
from repro.minic.ast import AccessKind
from repro.minic.builtins import SYNC_BUILTINS
from repro.analysis.cfg import build_cfg
from repro.analysis.dataflow import solve_cfg


class Access:
    """One static access to a shared variable."""

    __slots__ = ("aid", "var", "kind", "stmt_uid", "line", "lvalue", "order")

    def __init__(self, aid, var, kind, stmt_uid, line, lvalue, order):
        self.aid = aid
        self.var = var
        self.kind = kind
        self.stmt_uid = stmt_uid
        self.line = line
        self.lvalue = lvalue
        self.order = order

    def __repr__(self):
        return "Access(%d, %s %s @uid%d)" % (self.aid, self.kind, self.var,
                                             self.stmt_uid)


class PairResult:
    """Pairs and accesses of one function."""

    __slots__ = ("func_name", "accesses", "pairs")

    def __init__(self, func_name, accesses, pairs):
        self.func_name = func_name
        self.accesses = accesses  # aid -> Access
        self.pairs = pairs        # set of (first_aid, second_aid)


class _Extractor:
    """Collects ordered shared-variable accesses of one statement.

    With ``summaries`` (inter-procedural mode), a call to a user function
    contributes synthetic accesses to the globals the callee transitively
    touches, so pairs — and therefore atomic regions — can span
    subroutines (Section 3.5 future work).
    """

    def __init__(self, lsv, array_names, summaries=None, points_to=None,
                 element_granularity=False):
        self.lsv = lsv
        self.array_names = array_names
        self.summaries = summaries
        self.points_to = points_to
        self.element_granularity = element_granularity
        self.out = []

    def _emit(self, var, kind, lvalue):
        base = var.split("[")[0].lstrip("*")
        if var in self.lsv.shared or base in self.lsv.shared:
            self.out.append((var, kind, lvalue))

    def _deref_var(self, pointer_name):
        """Name under which a ``*pointer`` access is tracked: the aliased
        variable when pointer analysis resolves it uniquely, else the
        name-based pseudo-variable of the base prototype."""
        if self.points_to is not None:
            resolved = self.points_to.resolve_deref(pointer_name)
            if resolved is not None:
                return resolved
        return "*" + pointer_name

    def _index_var(self, base, index_expr):
        """Array accesses with constant indices get per-element names
        under the pointer-analysis extension."""
        if self.element_granularity and isinstance(index_expr, ast.IntLit):
            return "%s[%d]" % (base, index_expr.value)
        return base

    def reads(self, expr):
        if isinstance(expr, ast.Var):
            if expr.name not in self.array_names:
                self._emit(expr.name, AccessKind.READ, expr)
        elif isinstance(expr, ast.Deref):
            if isinstance(expr.operand, ast.Var):
                self._emit(expr.operand.name, AccessKind.READ, expr.operand)
                self._emit(self._deref_var(expr.operand.name),
                           AccessKind.READ, expr)
            else:
                self.reads(expr.operand)
        elif isinstance(expr, ast.AddrOf):
            if isinstance(expr.operand, ast.Index):
                self.reads(expr.operand.index)
        elif isinstance(expr, ast.Index):
            self.reads(expr.index)
            base = expr.base.name
            if base in self.array_names:
                self._emit(self._index_var(base, expr.index),
                           AccessKind.READ, expr)
            else:
                self._emit(base, AccessKind.READ, expr.base)
                self._emit(self._deref_var(base), AccessKind.READ, expr)
        elif isinstance(expr, ast.Unary):
            self.reads(expr.operand)
        elif isinstance(expr, ast.Binary):
            self.reads(expr.left)
            self.reads(expr.right)
        elif isinstance(expr, ast.Call):
            if expr.name in SYNC_BUILTINS and expr.args:
                arg = expr.args[0]
                for other in expr.args[1:]:
                    self.reads(other)
                if isinstance(arg, ast.AddrOf) and isinstance(arg.operand,
                                                              ast.Var):
                    name = arg.operand.name
                    if expr.name != "unlock":
                        self._emit(name, AccessKind.READ, arg.operand)
                    self._emit(name, AccessKind.WRITE, arg.operand)
                else:
                    self.reads(arg)
            else:
                for a in expr.args:
                    self.reads(a)
                self._emit_call_summary(expr.name)

    def _emit_call_summary(self, callee):
        if self.summaries is None:
            return
        summary = self.summaries.get(callee)
        if summary is None:
            return
        for var in sorted(summary.touched()):
            if var.startswith("*"):
                lvalue = ast.Deref(ast.Var(var[1:]))
            else:
                lvalue = ast.Var(var)
            for kind in summary.kinds_for(var):
                self._emit(var, kind, lvalue)

    def write_target(self, target):
        if isinstance(target, ast.Var):
            self._emit(target.name, AccessKind.WRITE, target)
        elif isinstance(target, ast.Deref):
            if isinstance(target.operand, ast.Var):
                self._emit(target.operand.name, AccessKind.READ, target.operand)
                self._emit(self._deref_var(target.operand.name),
                           AccessKind.WRITE, target)
            else:
                self.reads(target.operand)
        elif isinstance(target, ast.Index):
            self.reads(target.index)
            base = target.base.name
            if base in self.array_names:
                self._emit(self._index_var(base, target.index),
                           AccessKind.WRITE, target)
            else:
                self._emit(base, AccessKind.READ, target.base)
                self._emit(self._deref_var(base), AccessKind.WRITE, target)


def stmt_accesses(stmt, lsv, array_names, summaries=None, points_to=None,
                  element_granularity=False):
    """Return ordered (var, kind, lvalue) tuples for a simple statement."""
    ex = _Extractor(lsv, array_names, summaries, points_to,
                    element_granularity)
    if isinstance(stmt, ast.Decl):
        if stmt.init is not None:
            ex.reads(stmt.init)
            ex._emit(stmt.name, AccessKind.WRITE, ast.Var(stmt.name, stmt.line,
                                                          stmt.col))
    elif isinstance(stmt, ast.Assign):
        ex.reads(stmt.value)
        ex.write_target(stmt.target)
    elif isinstance(stmt, ast.ExprStmt):
        ex.reads(stmt.expr)
    elif isinstance(stmt, ast.Spawn):
        for a in stmt.args:
            ex.reads(a)
    elif isinstance(stmt, ast.Return):
        if stmt.value is not None:
            ex.reads(stmt.value)
    return ex.out


def expr_accesses(expr, lsv, array_names, summaries=None, points_to=None,
                  element_granularity=False):
    """Accesses performed by evaluating a bare expression (conditions)."""
    ex = _Extractor(lsv, array_names, summaries, points_to,
                    element_granularity)
    ex.reads(expr)
    return ex.out


def find_pairs(func, lsv, pinfo, cfg=None, summaries=None, points_to=None,
               element_granularity=False):
    """Run the pairing DFA on ``func``; returns a PairResult.

    ``summaries`` enables the inter-procedural extension (call statements
    contribute the callee's transitive global accesses); ``points_to``
    and ``element_granularity`` enable the pointer-analysis extension."""
    if cfg is None:
        cfg = build_cfg(func)
    finfo = pinfo.funcs[func.name]
    array_names = set(pinfo.global_arrays) | set(finfo.array_names)

    accesses = {}
    node_accesses = {}
    next_aid = [0]

    def register(node, tuples):
        regs = []
        for order, (var, kind, lvalue) in enumerate(tuples):
            aid = next_aid[0]
            next_aid[0] += 1
            stmt = node.stmt
            acc = Access(aid, var, kind, stmt.uid if stmt is not None else 0,
                         stmt.line if stmt is not None else 0, lvalue, order)
            accesses[aid] = acc
            regs.append(acc)
        node_accesses[node.nid] = regs

    for node in cfg.nodes:
        if node.kind == "stmt":
            register(node, stmt_accesses(node.stmt, lsv, array_names,
                                         summaries, points_to,
                                         element_granularity))
        elif node.kind == "cond":
            register(node, expr_accesses(node.expr, lsv, array_names,
                                         summaries, points_to,
                                         element_granularity))
        else:
            node_accesses[node.nid] = []

    # fixpoint: the state maps each var to the aids of its latest accesses
    def transfer(node, state):
        regs = node_accesses[node.nid]
        if not regs:
            return state
        state = dict(state)
        for acc in regs:
            state[acc.var] = frozenset((acc.aid,))
        return state

    def meet(states):
        if len(states) == 1:
            return states[0]
        merged = dict(states[0])
        for other in states[1:]:
            for var, aids in other.items():
                if var in merged:
                    merged[var] = merged[var] | aids
                else:
                    merged[var] = aids
        return merged

    ins, _ = solve_cfg(cfg, transfer, meet, {}, {})

    # final pass: collect pairs
    pairs = set()
    for node in cfg.nodes:
        state = dict(ins[node.nid])
        for acc in node_accesses[node.nid]:
            # sorted so pair discovery order (and everything derived from
            # it) is independent of set iteration order
            for prev_aid in sorted(state.get(acc.var, ())):
                pairs.add((prev_aid, acc.aid))
            state[acc.var] = frozenset((acc.aid,))
    return PairResult(func.name, accesses, pairs)
