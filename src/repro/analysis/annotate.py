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

from functools import cached_property

from repro.minic import ast
from repro.minic.parser import parse
from repro.minic.typecheck import check
from repro.analysis.arinfo import build_ar_infos
from repro.analysis.cfg import build_cfg
from repro.analysis.lsv import compute_lsv
from repro.analysis.normalize import TEMP_PREFIX, normalize_program
from repro.analysis.pairs import find_pairs
from repro.minic.ast import AccessKind


class AnnotationResult:
    """Everything the annotator produced for one program.

    ``ast`` is the annotated program; ``pristine_ast`` is the normalized
    input, left as it was.  The footprints and the conflict graph are
    built on first read from the pristine bodies, the AR spans and the
    points-to sets: only the conflict-aware scheduler, lint, fleet
    binning and ``fuzz fix`` read them, never a bug-finding run."""

    def __init__(self, ast_, pristine_ast, pinfo, ar_table, lsvs,
                 sync_ar_ids, ar_ids_by_func, locks, guards, prune,
                 points_to):
        self.ast = ast_
        self.pristine_ast = pristine_ast
        self.pinfo = pinfo
        self.ar_table = ar_table          # ar_id -> ARInfo
        self.lsvs = lsvs                  # func name -> LSVResult
        self.sync_ar_ids = sync_ar_ids    # frozenset of AR ids on sync vars
        self.ar_ids_by_func = ar_ids_by_func
        self.locks = locks                # locks.LockAnalysis
        self.guards = guards              # guarded.GuardReport
        self.prune = prune                # prune.PruneResult
        self.points_to = points_to        # func name -> PointsTo

    @cached_property
    def _address_escapes(self):
        from repro.analysis.footprint import address_escapes

        return address_escapes(self.pristine_ast)

    @cached_property
    def func_footprints(self):
        """Transitive per-function footprints, by function name."""
        from repro.analysis.footprint import compute_function_footprints

        return compute_function_footprints(
            self.pristine_ast, self.pinfo, self.points_to,
            self._address_escapes)

    @cached_property
    def footprints(self):
        """Per-AR :class:`~repro.analysis.footprint.Footprint`, by id."""
        from repro.analysis.footprint import compute_ar_footprints

        return compute_ar_footprints(
            self.pinfo, self.ar_table, self.prune, self.points_to,
            self.func_footprints, self._address_escapes)

    @cached_property
    def conflicts(self):
        """The inter-AR :class:`~repro.analysis.conflict.ConflictGraph`,
        O(ARs²); only lint, the diagnostics and fleet binning read it."""
        from repro.analysis.conflict import build_conflict_graph

        return build_conflict_graph(self.ar_table, self.footprints,
                                    sync_names=self.guards.sync_names)

    @property
    def num_ars(self):
        return len(self.ar_table)

    @property
    def static_safe_ar_ids(self):
        """AR ids the lock-discipline analysis proved safe to skip."""
        return self.prune.static_safe_ids


def _like(new, old):
    """``new`` in the place of ``old``: same uid and source position."""
    new.uid = old.uid
    return new


def _rewrite_block(block, begins, ends, shadows):
    """A copy of ``block`` with the annotation statements inserted
    around the statements named in the maps (stmt uid -> list), and
    ``clear_ar()`` before every return.  Rewritten ``If``/``While``/
    ``Block`` nodes are new objects; every other statement, and every
    lvalue an annotation names, is shared with ``block``, which is left
    untouched."""
    out = []
    for stmt in block.stmts:
        if isinstance(stmt, ast.Block):
            out.append(_rewrite_block(stmt, begins, ends, shadows))
            continue
        uid = stmt.uid
        for info in begins.get(uid, ()):
            out.append(ast.BeginAtomic(info.ar_id, info.lvalue, stmt.line,
                                       stmt.col))
        if isinstance(stmt, ast.If):
            stmt = _like(ast.If(
                stmt.cond, _rewrite_block(stmt.then, begins, ends, shadows),
                None if stmt.els is None
                else _rewrite_block(stmt.els, begins, ends, shadows),
                stmt.line, stmt.col), stmt)
        elif isinstance(stmt, ast.While):
            stmt = _like(ast.While(
                stmt.cond, _rewrite_block(stmt.body, begins, ends, shadows),
                stmt.line, stmt.col), stmt)
        elif isinstance(stmt, ast.Return):
            out.append(ast.ClearAr(stmt.line, stmt.col))
        out.append(stmt)
        for _, lvalue in shadows.get(uid, ()):
            out.append(ast.ShadowStore(0, lvalue, stmt.line, stmt.col))
        for info in ends.get(uid, ()):
            out.append(ast.EndAtomic(info.ar_id, info.second_kind_at(uid),
                                     stmt.line, stmt.col))
    return _like(ast.Block(out, block.line, block.col), block)


def spin_flag_vars(func):
    """Identify flag variables: shared words a thread spin-waits on.

    The paper's fourth optimization whitelists all synchronization
    variables, explicitly including flags. A flag is recognized as a
    variable read in the exit condition of a loop whose body yields or
    sleeps (the canonical spin-wait shape after normalization).
    """
    flags = set()
    for loop in ast.statements(func.body):
        if isinstance(loop, ast.While):
            reads = set()
            if _spin_reads(loop.body, reads):
                flags |= reads
    return {f for f in flags if not f.startswith(TEMP_PREFIX)}


def _spin_reads(body, reads):
    """Add to ``reads`` the names the loop-exit tests in a loop body
    read (condition temps and guards); True if the body yields or
    sleeps.  Nested loops are their own spin candidates."""
    waits = False
    for s in body.stmts:
        if isinstance(s, ast.Decl) and s.name.startswith(TEMP_PREFIX) \
                and s.init is not None:
            reads.update(n.name for n in ast.walk(s.init)
                         if isinstance(n, ast.Var))
        elif isinstance(s, ast.ExprStmt) and isinstance(s.expr, ast.Call) \
                and s.expr.name in ("yield", "sleep"):
            waits = True
        elif isinstance(s, ast.If):
            # condition reads inside guards count as spin reads too
            reads.update(n.name for n in ast.walk(s.cond)
                         if isinstance(n, ast.Var))
            waits |= _spin_reads(s.then, reads)
            if s.els is not None:
                waits |= _spin_reads(s.els, reads)
        elif isinstance(s, ast.Block):
            waits |= _spin_reads(s, reads)
    return waits


def annotate(source_or_ast, emit_shadow_stores=True,
             interprocedural=False, pointer_analysis=False, pinfo=None):
    """Run the full static annotator.

    Accepts mini-C source text, which is parsed, normalized and checked
    here, or a normalized Program AST (as
    :func:`~repro.analysis.normalize.normalize_program` returns it)
    together with its ``pinfo`` from :func:`~repro.minic.typecheck.check`
    (checked here when omitted).  The input AST is left untouched: the
    annotated program is a new AST (``result.ast``) whose rewritten
    ``If``/``While``/``Block``/``FuncDef`` nodes carry their originals'
    uids and positions and which shares every other statement with the
    input.  Feed ``result.ast`` to :func:`repro.compiler.compile_program`
    together with ``pinfo`` and ``ar_table``.

    ``interprocedural=True`` enables the Section 3.5 extension: call
    statements contribute their callee's transitive global accesses, so
    atomic regions can span subroutines. ``pointer_analysis=True``
    enables the other Section 3.5 extension: points-to-resolved aliases
    pair with direct accesses, and constant-index array accesses are
    tracked per element.
    """
    if isinstance(source_or_ast, str):
        program = normalize_program(parse(source_or_ast))
    else:
        program = source_or_ast
    if pinfo is None:
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

    # ---- per-function analyses on the pristine bodies --------------------
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

    # ---- the annotated copy of every body ----------------------------------
    funcs = []
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
                if all(var != acc.var for var, _ in entries):
                    entries.append((acc.var, acc.lvalue))

        body = _rewrite_block(func.body, begins, ends, shadows)
        body.stmts.append(ast.ClearAr(func.body.line, func.body.col))
        funcs.append(_like(ast.FuncDef(func.name, func.params, body,
                                       func.line, func.col), func))
    annotated = _like(ast.Program(program.globals, funcs, program.line,
                                  program.col), program)

    # the annotation statements declare nothing, so ``pinfo`` (locals,
    # frame sizes) still describes the rewritten program for codegen
    return AnnotationResult(annotated, program, pinfo, ar_table, lsvs,
                            frozenset(sync_ar_ids), ar_ids_by_func,
                            lock_analysis, guards, prune_result, points_to)
