"""AST → bytecode lowering.

Calling convention (register windows):

- The caller evaluates each argument into a temporary, then MOVs them into
  ``r0..r(n-1)`` and issues ``CALL func_index, nargs, rd``.
- The VM snapshots the caller's register file on CALL and restores it on
  RET; the callee's ``r0`` at RET time becomes the caller's ``rd``.
- The callee's prologue is ``ENTER frame_words`` followed by one
  ``STPARAM slot, r<i>`` per parameter, which stores incoming arguments to
  addressable stack slots.

All named variables live in memory. Expression temporaries use registers
with stack-discipline allocation; register windows mean temporaries stay
live across calls without spilling.
"""

from repro.errors import CompileError
from repro.minic import ast
from repro.minic.ast import AccessKind
from repro.minic.builtins import is_builtin
from repro.minic.typecheck import check
from repro.compiler.bytecode import Instr, NUM_REGS, Op
from repro.compiler.memmap import build_memory_map
from repro.compiler.program import FuncImage, Program

_BINOPS = {
    "+": Op.ADD,
    "-": Op.SUB,
    "*": Op.MUL,
    "/": Op.DIV,
    "%": Op.MOD,
    "==": Op.EQ,
    "!=": Op.NE,
    "<": Op.LT,
    "<=": Op.LE,
    ">": Op.GT,
    ">=": Op.GE,
}

_BUILTIN_SIMPLE = {
    "lock": (Op.LOCK, False),
    "unlock": (Op.UNLOCK, False),
    "sleep": (Op.SLEEP, False),
    "output": (Op.OUT, False),
    "alloc": (Op.ALLOC, True),
    "rand": (Op.RAND, True),
}


class _FuncCompiler:
    def __init__(self, program, prog_ast, func, finfo, pinfo):
        self.program = program
        self.prog_ast = prog_ast
        self.func = func
        self.finfo = finfo
        self.pinfo = pinfo
        self.next_temp = 0
        self.loop_stack = []  # (continue_target, [break_patch_sites])
        self.cur_stmt = None

        # frame layout: params first, then locals in declaration order
        self.var_offsets = {}
        offset = 0
        for name, _ in func.params:
            self.var_offsets[name] = offset
            offset += 1
        for name in finfo.locals:
            self.var_offsets[name] = offset
            offset += finfo.local_sizes[name]
        self.frame_words = offset

    # -- emission helpers ----------------------------------------------------

    def emit(self, op, a=0, b=0, c=0, d=0):
        uid = self.cur_stmt.uid if self.cur_stmt is not None else 0
        line = self.cur_stmt.line if self.cur_stmt is not None else 0
        self.program.instrs.append(Instr(op, a, b, c, d, uid, line))
        return len(self.program.instrs) - 1

    def here(self):
        return len(self.program.instrs)

    def patch(self, at, target):
        instr = self.program.instrs[at]
        if instr.op == Op.JMP:
            instr.a = target
        else:
            instr.b = target

    def temp(self):
        if self.next_temp >= NUM_REGS:
            raise CompileError(
                "expression too deep in %s (out of registers)" % self.func.name
            )
        reg = self.next_temp
        self.next_temp += 1
        return reg

    def release(self, *regs):
        # stack discipline: released temps must be the most recent ones
        self.next_temp -= len(regs)

    # -- variables -----------------------------------------------------------

    def is_local(self, name):
        return name in self.var_offsets

    def is_array(self, name):
        if name in self.finfo.array_names:
            return True
        if not self.is_local(name):
            return name in self.pinfo.global_arrays
        return False

    def gen_var_addr(self, name, rd):
        """Emit code leaving the address of variable ``name`` in rd."""
        if self.is_local(name):
            self.emit(Op.LADDR, rd, self.var_offsets[name])
        else:
            self.emit(Op.LI, rd, self.program.global_addr(name))

    # -- expressions -----------------------------------------------------------

    def gen_addr(self, lvalue, rd):
        """Emit code leaving the address of ``lvalue`` in rd.

        Loads never reuse their address register as the destination: a
        rolled-back remote load must be re-executable, which requires its
        input register to survive the first (undone) execution.
        """
        if isinstance(lvalue, ast.Var):
            self.gen_var_addr(lvalue.name, rd)
        elif isinstance(lvalue, ast.Deref):
            self.gen_expr(lvalue.operand, rd)
        elif isinstance(lvalue, ast.Index):
            name = lvalue.base.name
            if self.is_array(name):
                self.gen_var_addr(name, rd)
            else:
                # pointer indexing: base address is the pointer's value
                ra = self.temp()
                self.gen_var_addr(name, ra)
                self.emit(Op.LD, rd, ra)
                self.release(ra)
            ri = self.temp()
            self.gen_expr(lvalue.index, ri)
            self.emit(Op.ADD, rd, rd, ri)
            self.release(ri)
        else:
            raise CompileError("not an lvalue: %r" % lvalue)

    def gen_expr(self, expr, rd):
        """Emit code leaving the value of ``expr`` in rd."""
        gen = _EXPR_GEN.get(type(expr))
        if gen is None:
            raise CompileError("cannot compile expression %r" % expr)
        gen(self, expr, rd)

    def _gen_intlit(self, expr, rd):
        self.emit(Op.LI, rd, expr.value)

    def _gen_var(self, expr, rd):
        if self.is_array(expr.name):
            # array name decays to its address
            self.gen_var_addr(expr.name, rd)
        else:
            ra = self.temp()
            self.gen_var_addr(expr.name, ra)
            self.emit(Op.LD, rd, ra)
            self.release(ra)

    def _gen_unary(self, expr, rd):
        self.gen_expr(expr.operand, rd)
        self.emit(Op.NEG if expr.op == "-" else Op.NOT, rd, rd)

    def _gen_deref(self, expr, rd):
        ra = self.temp()
        self.gen_expr(expr.operand, ra)
        self.emit(Op.LD, rd, ra)
        self.release(ra)

    def _gen_addrof(self, expr, rd):
        self.gen_addr(expr.operand, rd)

    def _gen_index(self, expr, rd):
        ra = self.temp()
        self.gen_addr(expr, ra)
        self.emit(Op.LD, rd, ra)
        self.release(ra)

    def gen_binary(self, expr, rd):
        if expr.op in ("&&", "||"):
            # short-circuit evaluation producing 0/1
            self.gen_expr(expr.left, rd)
            if expr.op == "&&":
                skip = self.emit(Op.JZ, rd, 0)
            else:
                skip = self.emit(Op.JNZ, rd, 0)
            self.gen_expr(expr.right, rd)
            # normalize to 0/1
            zero = self.temp()
            self.emit(Op.LI, zero, 0)
            self.emit(Op.NE, rd, rd, zero)
            self.release(zero)
            done = self.emit(Op.JMP, 0)
            self.patch(skip, self.here())
            self.emit(Op.LI, rd, 0 if expr.op == "&&" else 1)
            self.patch(done, self.here())
            return
        self.gen_expr(expr.left, rd)
        rr = self.temp()
        self.gen_expr(expr.right, rr)
        self.emit(_BINOPS[expr.op], rd, rd, rr)
        self.release(rr)

    def gen_call(self, expr, rd):
        name = expr.name
        if name == "funcref":
            self.emit(Op.LI, rd, self.program.func_index(expr.args[0].name))
            return
        if is_builtin(name):
            self.gen_builtin(expr, rd)
            return
        # user function: evaluate args, marshal into r0..r(n-1)
        arg_regs = []
        for arg in expr.args:
            r = self.temp()
            self.gen_expr(arg, r)
            arg_regs.append(r)
        for i, r in enumerate(arg_regs):
            if r != i:
                self.emit(Op.MOV, i, r)
        self.emit(Op.CALL, self.program.func_index(name), len(expr.args), rd)
        if arg_regs:
            self.release(*arg_regs)

    def gen_builtin(self, expr, rd):
        name = expr.name
        if name in _BUILTIN_SIMPLE:
            op, has_result = _BUILTIN_SIMPLE[name]
            regs = []
            for arg in expr.args:
                r = self.temp()
                self.gen_expr(arg, r)
                regs.append(r)
            if has_result:
                self.emit(op, rd, *regs)
            else:
                self.emit(op, *regs)
            if regs:
                self.release(*regs)
            return
        if name == "yield":
            self.emit(Op.YIELD)
            return
        if name == "join":
            self.emit(Op.JOIN)
            return
        if name == "tid":
            self.emit(Op.TID, rd)
            return
        if name == "cas":
            ra, ro, rn = self.temp(), self.temp(), self.temp()
            self.gen_expr(expr.args[0], ra)
            self.gen_expr(expr.args[1], ro)
            self.gen_expr(expr.args[2], rn)
            self.emit(Op.CAS, rd, ra, ro, rn)
            self.release(ra, ro, rn)
            return
        if name == "atomic_add":
            ra, rv = self.temp(), self.temp()
            self.gen_expr(expr.args[0], ra)
            self.gen_expr(expr.args[1], rv)
            self.emit(Op.AADD, rd, ra, rv)
            self.release(ra, rv)
            return
        if name == "copyword":
            rdst, rsrc = self.temp(), self.temp()
            self.gen_expr(expr.args[0], rdst)
            self.gen_expr(expr.args[1], rsrc)
            self.emit(Op.CPY, rdst, rsrc)
            self.release(rdst, rsrc)
            return
        if name == "invoke":
            ra = self.temp()
            self.gen_expr(expr.args[0], ra)
            self.emit(Op.CALLIND, ra)
            self.release(ra)
            return
        raise CompileError("unimplemented builtin %r" % name)

    # -- statements -------------------------------------------------------------

    def gen_stmt(self, stmt):
        self.cur_stmt = stmt
        gen = _STMT_GEN.get(type(stmt))
        if gen is None:
            raise CompileError("cannot compile statement %r" % stmt)
        gen(self, stmt)

    def _gen_decl(self, stmt):
        if stmt.init is not None:
            rv = self.temp()
            self.gen_expr(stmt.init, rv)
            ra = self.temp()
            self.gen_var_addr(stmt.name, ra)
            self.emit(Op.ST, ra, rv)
            self.release(rv, ra)

    def _gen_assign(self, stmt):
        rv = self.temp()
        self.gen_expr(stmt.value, rv)
        ra = self.temp()
        self.gen_addr(stmt.target, ra)
        self.emit(Op.ST, ra, rv)
        self.release(rv, ra)

    def _gen_exprstmt(self, stmt):
        rd = self.temp()
        self.gen_expr(stmt.expr, rd)
        self.release(rd)

    def _gen_block(self, stmt):
        for s in stmt.stmts:
            self.gen_stmt(s)

    def _gen_if(self, stmt):
        rc = self.temp()
        self.gen_expr(stmt.cond, rc)
        jfalse = self.emit(Op.JZ, rc, 0)
        self.release(rc)
        self.gen_stmt(stmt.then)
        if stmt.els is not None:
            jend = self.emit(Op.JMP, 0)
            self.patch(jfalse, self.here())
            self.gen_stmt(stmt.els)
            self.patch(jend, self.here())
        else:
            self.patch(jfalse, self.here())

    def _gen_while(self, stmt):
        top = self.here()
        rc = self.temp()
        self.gen_expr(stmt.cond, rc)
        jexit = self.emit(Op.JZ, rc, 0)
        self.release(rc)
        self.loop_stack.append((top, []))
        self.gen_stmt(stmt.body)
        self.cur_stmt = stmt
        self.emit(Op.JMP, top)
        _, breaks = self.loop_stack.pop()
        end = self.here()
        self.patch(jexit, end)
        for site in breaks:
            self.patch(site, end)

    def _gen_break(self, stmt):
        if not self.loop_stack:
            raise CompileError("break outside loop")
        self.loop_stack[-1][1].append(self.emit(Op.JMP, 0))

    def _gen_continue(self, stmt):
        if not self.loop_stack:
            raise CompileError("continue outside loop")
        self.emit(Op.JMP, self.loop_stack[-1][0])

    def _gen_return(self, stmt):
        if stmt.value is not None:
            rv = self.temp()
            self.gen_expr(stmt.value, rv)
            if rv != 0:
                self.emit(Op.MOV, 0, rv)
            self.release(rv)
        self.emit(Op.RET)

    def _gen_spawn(self, stmt):
        arg_regs = []
        for arg in stmt.args:
            r = self.temp()
            self.gen_expr(arg, r)
            arg_regs.append(r)
        for i, r in enumerate(arg_regs):
            if r != i:
                self.emit(Op.MOV, i, r)
        self.emit(Op.SPAWN, self.program.func_index(stmt.func), len(stmt.args))
        if arg_regs:
            self.release(*arg_regs)

    def _gen_begin_atomic(self, stmt):
        ra = self.temp()
        self.gen_addr(stmt.addr, ra)
        self.emit(Op.BEGINAT, stmt.ar_id, ra)
        self.release(ra)

    def _gen_end_atomic(self, stmt):
        kind_code = 1 if stmt.second_kind == AccessKind.WRITE else 0
        self.emit(Op.ENDAT, stmt.ar_id, kind_code)

    def _gen_clear_ar(self, stmt):
        self.emit(Op.CLEARAR)

    def _gen_shadow_store(self, stmt):
        ra = self.temp()
        self.gen_addr(stmt.addr, ra)
        self.emit(Op.SHADOWST, stmt.ar_id, ra)
        self.release(ra)

    def compile(self):
        image = self.program.funcs[self.func.name]
        image.entry = self.here()
        image.frame_words = self.frame_words
        image.var_offsets = dict(self.var_offsets)
        self.cur_stmt = self.func.body
        self.emit(Op.ENTER, self.frame_words)
        for i, (name, _) in enumerate(self.func.params):
            self.emit(Op.STPARAM, self.var_offsets[name], i)
        self.gen_stmt(self.func.body)
        # implicit return (annotator guarantees a trailing ClearAr in the
        # body, so falling off the end is safe)
        self.cur_stmt = self.func.body
        self.emit(Op.RET)
        image.end = self.here()


_EXPR_GEN = {
    ast.IntLit: _FuncCompiler._gen_intlit,
    ast.Var: _FuncCompiler._gen_var,
    ast.Unary: _FuncCompiler._gen_unary,
    ast.Deref: _FuncCompiler._gen_deref,
    ast.AddrOf: _FuncCompiler._gen_addrof,
    ast.Index: _FuncCompiler._gen_index,
    ast.Binary: _FuncCompiler.gen_binary,
    ast.Call: _FuncCompiler.gen_call,
}

_STMT_GEN = {
    ast.Decl: _FuncCompiler._gen_decl,
    ast.Assign: _FuncCompiler._gen_assign,
    ast.ExprStmt: _FuncCompiler._gen_exprstmt,
    ast.Block: _FuncCompiler._gen_block,
    ast.If: _FuncCompiler._gen_if,
    ast.While: _FuncCompiler._gen_while,
    ast.Break: _FuncCompiler._gen_break,
    ast.Continue: _FuncCompiler._gen_continue,
    ast.Return: _FuncCompiler._gen_return,
    ast.Spawn: _FuncCompiler._gen_spawn,
    ast.BeginAtomic: _FuncCompiler._gen_begin_atomic,
    ast.EndAtomic: _FuncCompiler._gen_end_atomic,
    ast.ClearAr: _FuncCompiler._gen_clear_ar,
    ast.ShadowStore: _FuncCompiler._gen_shadow_store,
}


def compile_program(prog_ast, pinfo=None, ar_table=None):
    """Compile a (possibly annotated) mini-C AST into a Program image."""
    if pinfo is None:
        pinfo = check(prog_ast)
    program = Program()
    if ar_table:
        program.ar_table = dict(ar_table)

    for g in prog_ast.globals:
        program.add_global(g.name, g.size, g.init)

    for index, func in enumerate(prog_ast.funcs):
        image = FuncImage(func.name, index, 0, len(func.params), 0, {})
        program.funcs[func.name] = image
        program.func_by_index.append(image)

    for func in prog_ast.funcs:
        _FuncCompiler(program, prog_ast, func, pinfo.funcs[func.name], pinfo).compile()

    program.memory_map = build_memory_map(program)
    return program
