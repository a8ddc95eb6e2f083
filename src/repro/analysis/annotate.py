"""Annotation insertion — the output stage of the static annotator.

Produces an annotated AST with:

- ``begin_atomic(ar_id, &var)`` immediately before the statement that
  contains an AR's first access,
- ``end_atomic(ar_id)`` immediately after each statement containing one
  of its second accesses,
- a shadow-store after first-write statements (used only when the third
  optimization is enabled at run time),
- ``clear_ar()`` at every subroutine exit.
"""

import copy as _copy

from repro.minic import ast
from repro.minic.parser import parse
from repro.minic.typecheck import check
from repro.analysis.arinfo import build_ar_infos
from repro.analysis.cfg import build_cfg
from repro.analysis.lsv import compute_lsv
from repro.analysis.normalize import TEMP_PREFIX, normalize_program
from repro.analysis.pairs import find_pairs
from repro.minic.ast import AccessKind


class _ShadowSite:
    __slots__ = ("var", "lvalue")

    def __init__(self, var, lvalue):
        self.var = var
        self.lvalue = lvalue


class AnnotationResult:
    """Everything the annotator produced for one program."""

    __slots__ = ("ast", "pinfo", "ar_table", "lsvs", "sync_ar_ids",
                 "ar_ids_by_func", "locks", "guards", "prune",
                 "footprints", "func_footprints", "_conflicts")

    def __init__(self, ast_, pinfo, ar_table, lsvs, sync_ar_ids,
                 ar_ids_by_func, locks=None, guards=None, prune=None,
                 footprints=None, func_footprints=None):
        self.ast = ast_
        self.pinfo = pinfo
        self.ar_table = ar_table          # ar_id -> ARInfo
        self.lsvs = lsvs                  # func name -> LSVResult
        self.sync_ar_ids = sync_ar_ids    # frozenset of AR ids on sync vars
        self.ar_ids_by_func = ar_ids_by_func
        self.locks = locks                # locks.LockAnalysis
        self.guards = guards              # guarded.GuardReport
        self.prune = prune                # prune.PruneResult
        self.footprints = footprints or {}        # ar_id -> Footprint
        self.func_footprints = func_footprints or {}  # name -> Footprint
        self._conflicts = None

    @property
    def conflicts(self):
        """The inter-AR :class:`~repro.analysis.conflict.ConflictGraph`.

        Built on first read: it is O(ARs²), and only lint, the
        diagnostics and fleet binning read it, never a run.
        """
        if self._conflicts is None:
            from repro.analysis.conflict import build_conflict_graph

            self._conflicts = build_conflict_graph(
                self.ar_table, self.footprints,
                sync_names=self.guards.sync_names)
        return self._conflicts

    @property
    def num_ars(self):
        return len(self.ar_table)

    @property
    def static_safe_ar_ids(self):
        """AR ids the lock-discipline analysis proved safe to skip."""
        if self.prune is None:
            return frozenset()
        return self.prune.static_safe_ids


def _copy_lvalue(expr):
    """Deep-copy an lvalue expression, giving fresh uids."""
    if isinstance(expr, ast.Var):
        return ast.Var(expr.name, expr.line, expr.col)
    if isinstance(expr, ast.Deref):
        return ast.Deref(_copy_lvalue(expr.operand), expr.line, expr.col)
    if isinstance(expr, ast.Index):
        return ast.Index(
            _copy_lvalue(expr.base), _copy_expr(expr.index), expr.line, expr.col
        )
    raise TypeError("not an lvalue: %r" % expr)


def _copy_expr(expr):
    new = _copy.deepcopy(expr)
    for node in ast.walk(new):
        node.uid = ast.fresh_uid()
    return new


def _insert_annotations(block, begins, ends, shadows):
    """Rewrite a block, inserting annotation statements around the
    statements named in the maps (stmt uid -> list of ARInfo)."""
    out = []
    for stmt in block.stmts:
        if isinstance(stmt, ast.Block):
            out.append(_insert_annotations(stmt, begins, ends, shadows))
            continue
        if isinstance(stmt, ast.If):
            stmt.then = _insert_annotations(_ensure_block(stmt.then), begins,
                                            ends, shadows)
            if stmt.els is not None:
                stmt.els = _insert_annotations(_ensure_block(stmt.els), begins,
                                               ends, shadows)
        elif isinstance(stmt, ast.While):
            stmt.body = _insert_annotations(_ensure_block(stmt.body), begins,
                                            ends, shadows)
        for info in begins.get(stmt.uid, ()):
            out.append(ast.BeginAtomic(info.ar_id, _copy_lvalue(info.lvalue),
                                       stmt.line, stmt.col))
        out.append(stmt)
        for site in shadows.get(stmt.uid, ()):
            out.append(ast.ShadowStore(0, _copy_lvalue(site.lvalue),
                                       stmt.line, stmt.col))
        for info in ends.get(stmt.uid, ()):
            out.append(ast.EndAtomic(info.ar_id, info.second_kind_at(stmt.uid),
                                     stmt.line, stmt.col))
    return ast.Block(out, block.line, block.col)


def _ensure_block(stmt):
    if isinstance(stmt, ast.Block):
        return stmt
    return ast.Block([stmt], stmt.line, stmt.col)


def _insert_clear_ars(block):
    """Insert clear_ar() before every return and at the end of the body."""
    def rewrite(blk):
        out = []
        for stmt in blk.stmts:
            if isinstance(stmt, ast.Return):
                out.append(ast.ClearAr(stmt.line, stmt.col))
                out.append(stmt)
                continue
            if isinstance(stmt, ast.Block):
                out.append(rewrite(stmt))
                continue
            if isinstance(stmt, ast.If):
                stmt.then = rewrite(_ensure_block(stmt.then))
                if stmt.els is not None:
                    stmt.els = rewrite(_ensure_block(stmt.els))
            elif isinstance(stmt, ast.While):
                stmt.body = rewrite(_ensure_block(stmt.body))
            out.append(stmt)
        return ast.Block(out, blk.line, blk.col)

    new = rewrite(block)
    new.stmts.append(ast.ClearAr(block.line, block.col))
    return new


def spin_flag_vars(func):
    """Identify flag variables: shared words a thread spin-waits on.

    The paper's fourth optimization whitelists all synchronization
    variables, explicitly including flags. A flag is recognized as a
    variable read in the exit condition of a loop whose body yields or
    sleeps (the canonical spin-wait shape after normalization).
    """
    flags = set()

    def scan(stmt, loop_conds):
        if isinstance(stmt, ast.Block):
            for s in stmt.stmts:
                scan(s, loop_conds)
        elif isinstance(stmt, ast.While):
            cond_reads = set()
            waits = [False]
            _collect_spin(stmt.body, cond_reads, waits)
            if waits[0]:
                flags.update(cond_reads)
            scan(stmt.body, loop_conds)
        elif isinstance(stmt, ast.If):
            scan(stmt.then, loop_conds)
            if stmt.els is not None:
                scan(stmt.els, loop_conds)

    def _collect_spin(body, cond_reads, waits):
        for s in (body.stmts if isinstance(body, ast.Block) else [body]):
            if isinstance(s, ast.Decl) and s.name.startswith("__c") and \
                    s.init is not None:
                for node in ast.walk(s.init):
                    if isinstance(node, ast.Var):
                        cond_reads.add(node.name)
            elif isinstance(s, ast.ExprStmt) and isinstance(s.expr, ast.Call) \
                    and s.expr.name in ("yield", "sleep"):
                waits[0] = True
            elif isinstance(s, ast.If):
                # condition reads inside guards count as spin reads too
                for node in ast.walk(s.cond):
                    if isinstance(node, ast.Var):
                        cond_reads.add(node.name)
                _collect_spin(s.then, cond_reads, waits)
                if s.els is not None:
                    _collect_spin(s.els, cond_reads, waits)
            elif isinstance(s, ast.Block):
                _collect_spin(s, cond_reads, waits)

    scan(func.body, [])
    return {f for f in flags if not f.startswith(TEMP_PREFIX)}


def annotate(source_or_ast, emit_shadow_stores=True,
             interprocedural=False, pointer_analysis=False):
    """Run the full static annotator.

    Accepts mini-C source text or a parsed Program AST, which is
    normalized (a no-op on an already normalized one) and rewritten in
    place. Returns an :class:`AnnotationResult` whose ``ast`` can be fed
    to :func:`repro.compiler.compile_program` together with ``pinfo``
    and ``ar_table``.

    ``interprocedural=True`` enables the Section 3.5 extension: call
    statements contribute their callee's transitive global accesses, so
    atomic regions can span subroutines. ``pointer_analysis=True``
    enables the other Section 3.5 extension: points-to-resolved aliases
    pair with direct accesses, and constant-index array accesses are
    tracked per element.
    """
    if isinstance(source_or_ast, str):
        program = parse(source_or_ast)
    else:
        program = source_or_ast
    program = normalize_program(program)
    pinfo = check(program)

    ar_table = {}
    lsvs = {}
    sync_ar_ids = set()
    ar_ids_by_func = {}
    next_id = 1

    # flags are program-wide: a variable spin-waited on anywhere is a
    # synchronization variable everywhere
    flag_vars = set()
    for func in program.funcs:
        flag_vars |= spin_flag_vars(func)

    summaries = None
    if interprocedural:
        from repro.analysis.interproc import compute_call_summaries

        summaries = compute_call_summaries(program, pinfo)

    # points-to sets always feed the guarded-by inference; they change
    # pairing behavior only under the pointer_analysis extension
    from repro.analysis.pointers import compute_points_to

    points_to = compute_points_to(program, pinfo)

    # ---- phase 1: per-function analyses on the pristine bodies -----------
    func_data = {}   # func name -> (lsv, pair_result)
    cfgs = {}
    per_func_infos = {}
    for func in program.funcs:
        lsv = compute_lsv(func, pinfo)
        lsvs[func.name] = lsv
        cfg = build_cfg(func)
        cfgs[func.name] = cfg
        pair_result = find_pairs(
            func, lsv, pinfo, cfg, summaries=summaries,
            points_to=points_to.get(func.name) if pointer_analysis else None,
            element_granularity=pointer_analysis,
        )
        func_data[func.name] = (lsv, pair_result)
        infos, next_id = build_ar_infos(func.name, pair_result, lsv, next_id,
                                        extra_sync_vars=flag_vars)
        per_func_infos[func.name] = infos
        ids = []
        for info in infos:
            ar_table[info.ar_id] = info
            ids.append(info.ar_id)
            if info.is_sync:
                sync_ar_ids.add(info.ar_id)
        ar_ids_by_func[func.name] = ids

    # ---- lock discipline, guarded-by inference and AR pruning ------------
    from repro.analysis.guarded import infer_guards
    from repro.analysis.locks import compute_lock_analysis
    from repro.analysis.prune import classify_ars

    lock_analysis = compute_lock_analysis(program, pinfo, cfgs=cfgs)
    guards = infer_guards(program, pinfo, lock_analysis, func_data,
                          points_to=points_to, extra_sync_vars=flag_vars)
    prune_result = classify_ars(ar_table, guards, lock_analysis)

    # ---- per-AR and per-function footprints ------------------------------
    # (on the pristine bodies/CFGs: the span uids predate the rewrite; the
    # conflict graph over them is built when first read)
    from repro.analysis.footprint import (address_escapes,
                                          compute_ar_footprints,
                                          compute_function_footprints)

    addr_escapes = address_escapes(program)
    func_footprints = compute_function_footprints(program, pinfo, points_to,
                                                  addr_escapes)
    footprints = compute_ar_footprints(pinfo, ar_table, cfgs, points_to,
                                       func_footprints, addr_escapes)

    # ---- phase 2: rewrite bodies with the annotation statements ----------
    for func in program.funcs:
        _, pair_result = func_data[func.name]
        begins = {}
        ends = {}
        for info in per_func_infos[func.name]:
            begins.setdefault(info.begin_uid, []).append(info)
            for uid in info.second_kinds:
                ends.setdefault(uid, []).append(info)

        # Third-optimization support: replicate every local write to a
        # shared variable so the kernel's undo value stays current even
        # with local watchpoint delivery suppressed. One shadow store per
        # (statement, written variable).
        shadows = {}
        if emit_shadow_stores:
            for acc in pair_result.accesses.values():
                if acc.kind != AccessKind.WRITE:
                    continue
                entries = shadows.setdefault(acc.stmt_uid, [])
                if any(e.var == acc.var for e in entries):
                    continue
                entries.append(_ShadowSite(acc.var, acc.lvalue))

        func.body = _insert_annotations(func.body, begins, ends, shadows)
        func.body = _insert_clear_ars(func.body)

    # the annotation statements declare nothing, so ``pinfo`` (locals,
    # frame sizes) still describes the rewritten program for codegen
    return AnnotationResult(program, pinfo, ar_table, lsvs,
                            frozenset(sync_ar_ids), ar_ids_by_func,
                            locks=lock_analysis, guards=guards,
                            prune=prune_result, footprints=footprints,
                            func_footprints=func_footprints)
