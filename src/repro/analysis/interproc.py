"""Inter-procedural extension (Section 3.5 future work).

"Kivati could be enhanced to perform inter-procedural analysis to detect
ARs that span subroutines, allowing it to detect atomicity violations on
such ARs as well."

The extension is context-insensitive call summaries: for every function,
compute the set of *global* shared variables it (transitively) accesses
and with which kinds. During pairing, a call statement then contributes
synthetic accesses to those globals at the call site, so a caller access
can pair with "the callee touches it" — producing an atomic region whose
begin_atomic precedes the caller's access and whose end_atomic follows
the call statement, i.e. an AR spanning the subroutine.

Summaries cover globals only (a callee's locals are meaningless at the
call site, and by-reference parameters would require the pointer analysis
the paper also defers); dereference pseudo-variables of global pointers
are included since their address is caller-computable.
"""

from repro.minic import ast
from repro.minic.ast import AccessKind
from repro.minic.builtins import SYNC_BUILTINS, is_builtin
from repro.analysis.dataflow import solve_call_graph


class CallSummary:
    """Per-function transitive global-access summary."""

    __slots__ = ("func_name", "reads", "writes")

    def __init__(self, func_name):
        self.func_name = func_name
        self.reads = set()
        self.writes = set()

    def touched(self):
        return self.reads | self.writes

    def kinds_for(self, var):
        kinds = []
        if var in self.reads:
            kinds.append(AccessKind.READ)
        if var in self.writes:
            kinds.append(AccessKind.WRITE)
        return kinds

    def __repr__(self):
        return "CallSummary(%s, R=%s, W=%s)" % (
            self.func_name, sorted(self.reads), sorted(self.writes))


def _direct_global_accesses(func, pinfo):
    """(reads, writes, callees) of one function over global names and
    global-pointer deref pseudo-names."""
    global_names = set(pinfo.global_sizes)
    reads = set()
    writes = set()
    callees = set()

    def is_global(name):
        return name in global_names

    def read_expr(expr):
        if isinstance(expr, ast.Var):
            if is_global(expr.name):
                reads.add(expr.name)
        elif isinstance(expr, ast.Deref):
            if isinstance(expr.operand, ast.Var):
                if is_global(expr.operand.name):
                    reads.add(expr.operand.name)
                    reads.add("*" + expr.operand.name)
            else:
                read_expr(expr.operand)
        elif isinstance(expr, ast.AddrOf):
            if isinstance(expr.operand, ast.Index):
                read_expr(expr.operand.index)
        elif isinstance(expr, ast.Index):
            read_expr(expr.index)
            if is_global(expr.base.name):
                reads.add(expr.base.name)
        elif isinstance(expr, ast.Unary):
            read_expr(expr.operand)
        elif isinstance(expr, ast.Binary):
            read_expr(expr.left)
            read_expr(expr.right)
        elif isinstance(expr, ast.Call):
            if not is_builtin(expr.name):
                callees.add(expr.name)
            elif expr.name in SYNC_BUILTINS and expr.args:
                arg = expr.args[0]
                if isinstance(arg, ast.AddrOf) and isinstance(arg.operand,
                                                              ast.Var):
                    name = arg.operand.name
                    if is_global(name):
                        if expr.name != "unlock":
                            reads.add(name)
                        writes.add(name)
            for a in expr.args:
                read_expr(a)

    def write_target(target):
        if isinstance(target, ast.Var):
            if is_global(target.name):
                writes.add(target.name)
        elif isinstance(target, ast.Deref):
            if isinstance(target.operand, ast.Var):
                if is_global(target.operand.name):
                    reads.add(target.operand.name)
                    writes.add("*" + target.operand.name)
            else:
                read_expr(target.operand)
        elif isinstance(target, ast.Index):
            read_expr(target.index)
            if is_global(target.base.name):
                writes.add(target.base.name)

    for stmt in ast.statements(func.body):
        if isinstance(stmt, ast.Decl) and stmt.init is not None:
            read_expr(stmt.init)
        elif isinstance(stmt, ast.Assign):
            read_expr(stmt.value)
            write_target(stmt.target)
        elif isinstance(stmt, ast.ExprStmt):
            read_expr(stmt.expr)
        elif isinstance(stmt, ast.Return) and stmt.value is not None:
            read_expr(stmt.value)
        elif isinstance(stmt, ast.Spawn):
            for a in stmt.args:
                read_expr(a)
        elif isinstance(stmt, (ast.If, ast.While)):
            read_expr(stmt.cond)
    return reads, writes, callees


def compute_call_summaries(program, pinfo):
    """Fixpoint transitive summaries for every function.

    Returns {func_name: CallSummary}. Spawned functions are *not* folded
    into the spawner (they run in another thread; their accesses are not
    part of the caller's sequential execution).
    """
    direct = {}
    callee_map = {}
    for func in program.funcs:
        reads, writes, callees = _direct_global_accesses(func, pinfo)
        summary = CallSummary(func.name)
        summary.reads = reads
        summary.writes = writes
        direct[func.name] = summary
        callee_map[func.name] = sorted(callees)

    def close(name):
        summary = direct[name]
        before = len(summary.reads), len(summary.writes)
        for callee in callee_map[name]:
            other = direct.get(callee)
            if other is not None:
                summary.reads |= other.reads
                summary.writes |= other.writes
        return before != (len(summary.reads), len(summary.writes))

    solve_call_graph(list(direct), callee_map, close)
    return direct
