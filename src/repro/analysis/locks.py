"""Lock-discipline dataflow: must-hold and may-hold locksets.

A forward dataflow over the per-function CFG, seeded by the
``lock(&m)``/``unlock(&m)`` builtins (recognized through
:mod:`repro.analysis.lockmodel`):

- **must-hold** — intersection at joins; a token in the must set at a
  statement is held on *every* path reaching it. This is the fact the
  guarded-by inference and the AR pruner consume, so it must be an
  under-approximation of the locks actually held at run time.
- **may-hold** — union at joins; used only for diagnostics (W003
  imbalance warnings), where over-approximation merely widens warnings.

Calls propagate locks across functions with context-insensitive call
summaries in the style of :mod:`repro.analysis.interproc`: each function
gets a fixpoint summary of the (global) locks it certainly adds
(``must_added``), possibly releases (``may_released``), and whether it
can release an unidentifiable lock (``releases_unknown`` — an imprecise
unlock or an indirect ``invoke`` anywhere in its transitive callees).

On top of the summaries, an *entry context* per function is computed as
the intersection of the must-hold states at all of its call sites
(restricted to global tokens). Thread entry points — ``main``, spawned
functions and functions whose reference is taken with ``funcref`` — get
the empty context. Any fixpoint of these equations with roots pinned to
the empty set is a sound under-approximation of the locks held at entry;
iterating downward from the full token universe yields the greatest (most
precise) one.

Only *global* lock tokens cross function boundaries (a callee-local lock
name means nothing at the call site); function-local lock tokens still
participate in the intra-procedural sets so diagnostics can reason about
them.
"""

from collections import deque

from repro.minic import ast
from repro.minic.builtins import is_builtin
from repro.analysis.cfg import build_cfg
from repro.analysis.lockmodel import (LOCK_BUILTIN, UNLOCK_BUILTIN,
                                      lock_ref, token_base)

#: Builtins whose call can block the calling thread (W004 evidence).
BLOCKING_BUILTINS = frozenset({LOCK_BUILTIN, "join", "sleep"})


class LockEvent:
    """One lockset-relevant action inside a statement, in evaluation
    order. ``kind`` is 'lock', 'unlock', 'call', 'invoke', 'spawn' or
    'block' (a blocking builtin that does not change locksets)."""

    __slots__ = ("kind", "token", "precise", "name", "line")

    def __init__(self, kind, token=None, precise=False, name=None, line=0):
        self.kind = kind
        self.token = token
        self.precise = precise
        self.name = name
        self.line = line

    def __repr__(self):
        return "LockEvent(%s, %s)" % (self.kind, self.token or self.name)


class LockSummary:
    """Caller-visible lock effect of one function (global tokens only)."""

    __slots__ = ("func_name", "must_added", "may_added", "may_released",
                 "releases_unknown", "may_block")

    def __init__(self, func_name):
        self.func_name = func_name
        self.must_added = frozenset()
        self.may_added = frozenset()
        self.may_released = set()
        self.releases_unknown = False
        self.may_block = False

    def __repr__(self):
        return "LockSummary(%s, +%s, -%s%s)" % (
            self.func_name, sorted(self.must_added),
            sorted(self.may_released),
            ", unknown" if self.releases_unknown else "")


class FuncLocksets:
    """Per-function analysis result."""

    __slots__ = ("func_name", "cfg", "entry_context", "node_events",
                 "node_must_in", "node_may_in", "must_in", "may_in",
                 "stmt_lines", "exit_must", "exit_may",
                 "unmatched_unlocks")

    def __init__(self, func_name, cfg):
        self.func_name = func_name
        self.cfg = cfg
        self.entry_context = frozenset()
        self.node_events = {}     # nid -> tuple of LockEvent
        self.node_must_in = {}    # nid -> frozenset of tokens
        self.node_may_in = {}     # nid -> frozenset of tokens
        self.must_in = {}         # stmt uid -> frozenset of tokens
        self.may_in = {}          # stmt uid -> frozenset of tokens
        self.stmt_lines = {}      # stmt uid -> source line
        self.exit_must = frozenset()
        self.exit_may = frozenset()
        self.unmatched_unlocks = ()  # tuple of (line, token)


class LockAnalysis:
    """Whole-program result of :func:`compute_lock_analysis`."""

    __slots__ = ("per_func", "summaries", "contexts", "global_names",
                 "universe")

    def __init__(self, per_func, summaries, contexts, global_names,
                 universe):
        self.per_func = per_func        # func name -> FuncLocksets
        self.summaries = summaries      # func name -> LockSummary
        self.contexts = contexts        # func name -> frozenset of tokens
        self.global_names = global_names
        self.universe = universe        # all precise global tokens

    def token_is_global(self, token):
        return token_base(token) in self.global_names

    def globals_only(self, tokens):
        return frozenset(t for t in tokens if self.token_is_global(t))

    def must_at(self, func_name, stmt_uid):
        """Must-hold lockset entering the statement, or empty."""
        fr = self.per_func.get(func_name)
        if fr is None:
            return frozenset()
        return fr.must_in.get(stmt_uid, frozenset())

    def global_must_at(self, func_name, stmt_uid):
        return self.globals_only(self.must_at(func_name, stmt_uid))


# ---------------------------------------------------------------------------
# event extraction
# ---------------------------------------------------------------------------


def _stmt_events(stmt):
    """Lock events of one simple statement, in evaluation order."""
    events = []
    if isinstance(stmt, ast.Spawn):
        events.append(LockEvent("spawn", name=stmt.func, line=stmt.line))
        return events
    for node in ast.walk(stmt):
        if not isinstance(node, ast.Call):
            continue
        if node.name in (LOCK_BUILTIN, UNLOCK_BUILTIN):
            ref = lock_ref(node)
            kind = "lock" if node.name == LOCK_BUILTIN else "unlock"
            events.append(LockEvent(kind, token=ref.token,
                                    precise=ref.precise, line=node.line))
        elif node.name == "invoke":
            events.append(LockEvent("invoke", line=node.line))
        elif node.name in BLOCKING_BUILTINS:
            events.append(LockEvent("block", name=node.name, line=node.line))
        elif not is_builtin(node.name):
            events.append(LockEvent("call", name=node.name, line=node.line))
    return events


def _collect_events(cfg):
    """nid -> tuple of LockEvent for every node of ``cfg``."""
    out = {}
    for node in cfg.nodes:
        if node.kind == "stmt":
            events = _stmt_events(node.stmt)
        elif node.kind == "cond":
            events = (_stmt_events(ast.ExprStmt(node.expr))
                      if _has_calls(node.expr) else [])
        else:
            events = []
        if events:
            out[node.nid] = tuple(events)
    return out


def _has_calls(expr):
    return any(isinstance(n, ast.Call) for n in ast.walk(expr))


# ---------------------------------------------------------------------------
# transfer functions
# ---------------------------------------------------------------------------


def _apply_must(state, events, summaries):
    if not events:
        return state
    s = set(state)
    for ev in events:
        if ev.kind == "lock":
            if ev.precise:
                s.add(ev.token)
        elif ev.kind == "unlock":
            if ev.precise:
                s.discard(ev.token)
            else:
                # an unlock we cannot name may release anything
                s.clear()
        elif ev.kind == "call":
            summ = summaries.get(ev.name)
            if summ is not None:
                if summ.releases_unknown:
                    s.clear()
                else:
                    s.difference_update(summ.may_released)
                s.update(summ.must_added)
        elif ev.kind == "invoke":
            # indirect call: target unknown, assume it may release anything
            s.clear()
    return frozenset(s)


def _apply_may(state, events, summaries):
    if not events:
        return state
    s = set(state)
    for ev in events:
        if ev.kind == "lock":
            s.add(ev.token)
        elif ev.kind == "unlock":
            if ev.precise:
                s.discard(ev.token)
            # an imprecise unlock releases *something*; keeping everything
            # over-approximates, which is the right direction for may
        elif ev.kind == "call":
            summ = summaries.get(ev.name)
            if summ is not None:
                s.update(summ.may_added)
    return frozenset(s)


# ---------------------------------------------------------------------------
# intra-procedural fixpoints
# ---------------------------------------------------------------------------


def _must_flow(cfg, events, entry_state, summaries):
    """Forward must analysis; returns (ins, outs) keyed by nid.

    Unreachable nodes get the empty set (they never execute; claiming
    nothing is held there is harmlessly conservative)."""
    outs = {cfg.entry.nid: entry_state}
    work = deque(cfg.entry.succs)
    while work:
        node = work.popleft()
        pred_outs = [outs[p.nid] for p in node.preds if p.nid in outs]
        if not pred_outs:
            continue
        in_ = frozenset.intersection(*pred_outs)
        out = _apply_must(in_, events.get(node.nid, ()), summaries)
        if outs.get(node.nid) != out:
            outs[node.nid] = out
            work.extend(node.succs)
    ins = {}
    for node in cfg.nodes:
        if node is cfg.entry:
            ins[node.nid] = entry_state
            continue
        pred_outs = [outs[p.nid] for p in node.preds if p.nid in outs]
        ins[node.nid] = (frozenset.intersection(*pred_outs)
                        if pred_outs else frozenset())
    return ins, outs


def _may_flow(cfg, events, entry_state, summaries):
    outs = {n.nid: frozenset() for n in cfg.nodes}
    outs[cfg.entry.nid] = entry_state
    # every node starts on the worklist: outs are pre-seeded with the
    # bottom element, so a first visit that computes bottom would look
    # "unchanged" and never propagate to its successors
    work = deque(n for n in cfg.nodes if n is not cfg.entry)
    while work:
        node = work.popleft()
        in_ = frozenset()
        for p in node.preds:
            in_ = in_ | outs[p.nid]
        out = _apply_may(in_, events.get(node.nid, ()), summaries)
        if out != outs[node.nid]:
            outs[node.nid] = out
            work.extend(node.succs)
    ins = {}
    for node in cfg.nodes:
        if node is cfg.entry:
            ins[node.nid] = entry_state
            continue
        in_ = frozenset()
        for p in node.preds:
            in_ = in_ | outs[p.nid]
        ins[node.nid] = in_
    return ins, outs


# ---------------------------------------------------------------------------
# whole-program analysis
# ---------------------------------------------------------------------------


def compute_lock_analysis(program, pinfo, cfgs=None):
    """Run the lock-discipline analysis over a normalized program.

    ``cfgs`` may supply prebuilt per-function CFGs (the annotator shares
    its own); missing entries are built here. Must run on the
    *pre-annotation* AST.
    """
    global_names = frozenset(pinfo.global_sizes)
    per_func = {}
    for func in program.funcs:
        cfg = cfgs.get(func.name) if cfgs else None
        if cfg is None:
            cfg = build_cfg(func)
        fr = FuncLocksets(func.name, cfg)
        fr.node_events = _collect_events(cfg)
        per_func[func.name] = fr

    def is_global_token(token):
        return token_base(token) in global_names

    # universe of precise global tokens + roots (thread entry points)
    universe = set()
    roots = {"main"}
    referenced = set()
    for func in program.funcs:
        fr = per_func[func.name]
        for events in fr.node_events.values():
            for ev in events:
                if ev.kind in ("lock", "unlock") and ev.precise \
                        and is_global_token(ev.token):
                    universe.add(ev.token)
                elif ev.kind == "spawn":
                    roots.add(ev.name)
                    referenced.add(ev.name)
                elif ev.kind == "call":
                    referenced.add(ev.name)
        # funcref-taken functions can be invoked with anything held
        for node in ast.walk(func.body):
            if isinstance(node, ast.Call) and node.name == "funcref":
                arg = node.args[0] if node.args else None
                if isinstance(arg, ast.Var):
                    roots.add(arg.name)
                    referenced.add(arg.name)
    universe = frozenset(universe)

    # ---- summaries: syntactic parts first (release effects, blocking) ----
    summaries = {f.name: LockSummary(f.name) for f in program.funcs}
    callee_map = {}
    for func in program.funcs:
        summ = summaries[func.name]
        callees = set()
        for events in per_func[func.name].node_events.values():
            for ev in events:
                if ev.kind == "unlock":
                    if ev.precise:
                        if is_global_token(ev.token):
                            summ.may_released.add(ev.token)
                    else:
                        summ.releases_unknown = True
                elif ev.kind == "invoke":
                    summ.releases_unknown = True
                elif ev.kind in ("block",):
                    summ.may_block = True
                elif ev.kind == "lock":
                    summ.may_block = True
                elif ev.kind == "call":
                    callees.add(ev.name)
        callee_map[func.name] = callees

    changed = True
    while changed:
        changed = False
        for name, summ in summaries.items():
            for callee in callee_map[name]:
                other = summaries.get(callee)
                if other is None:
                    continue
                if other.releases_unknown and not summ.releases_unknown:
                    summ.releases_unknown = True
                    changed = True
                if not other.may_released <= summ.may_released:
                    summ.may_released |= other.may_released
                    changed = True
                if other.may_block and not summ.may_block:
                    summ.may_block = True
                    changed = True

    # ---- summaries: additive parts need the dataflow (least fixpoint) ----
    changed = True
    while changed:
        changed = False
        for func in program.funcs:
            fr = per_func[func.name]
            summ = summaries[func.name]
            _, must_outs = _must_flow(fr.cfg, fr.node_events, frozenset(),
                                      summaries)
            exit_preds = [must_outs[p.nid] for p in fr.cfg.exit.preds
                          if p.nid in must_outs]
            exit_must = (frozenset.intersection(*exit_preds)
                         if exit_preds else frozenset())
            must_added = frozenset(t for t in exit_must
                                   if is_global_token(t))
            _, may_outs = _may_flow(fr.cfg, fr.node_events, frozenset(),
                                    summaries)
            exit_may = frozenset()
            for p in fr.cfg.exit.preds:
                exit_may = exit_may | may_outs[p.nid]
            may_added = frozenset(t for t in exit_may if is_global_token(t))
            if must_added != summ.must_added:
                summ.must_added = must_added
                changed = True
            if may_added != summ.may_added:
                summ.may_added = may_added
                changed = True

    # ---- entry contexts: greatest fixpoint, roots pinned to empty -------
    contexts = {f.name: (frozenset() if f.name in roots else universe)
                for f in program.funcs}
    while True:
        observed = {}  # callee -> intersection of call-site must states

        def record(callee, state):
            state = frozenset(t for t in state if is_global_token(t))
            if callee in observed:
                observed[callee] = observed[callee] & state
            else:
                observed[callee] = state

        for func in program.funcs:
            fr = per_func[func.name]
            ins, _ = _must_flow(fr.cfg, fr.node_events,
                                contexts[func.name], summaries)
            for node in fr.cfg.nodes:
                events = fr.node_events.get(node.nid)
                if not events:
                    continue
                state = ins[node.nid]
                for ev in events:
                    if ev.kind == "call":
                        record(ev.name, state)
                    elif ev.kind == "spawn":
                        record(ev.name, frozenset())
                    state = _apply_must(state, (ev,), summaries)
        new_contexts = {}
        for func in program.funcs:
            name = func.name
            if name in roots:
                new_contexts[name] = frozenset()
            elif name in observed:
                new_contexts[name] = observed[name]
            else:
                # never referenced: dead code, nothing can be assumed
                new_contexts[name] = frozenset()
        if new_contexts == contexts:
            break
        contexts = new_contexts

    # ---- final per-function results with contexts applied ----------------
    for func in program.funcs:
        fr = per_func[func.name]
        fr.entry_context = contexts[func.name]
        must_ins, must_outs = _must_flow(fr.cfg, fr.node_events,
                                         fr.entry_context, summaries)
        may_ins, may_outs = _may_flow(fr.cfg, fr.node_events,
                                      fr.entry_context, summaries)
        fr.node_must_in = must_ins
        fr.node_may_in = may_ins
        unmatched = []
        for node in fr.cfg.nodes:
            stmt = node.stmt if node.kind in ("stmt", "cond") else None
            if stmt is not None:
                fr.must_in[stmt.uid] = must_ins[node.nid]
                fr.may_in[stmt.uid] = may_ins[node.nid]
                fr.stmt_lines[stmt.uid] = stmt.line
            events = fr.node_events.get(node.nid)
            if not events:
                continue
            may_state = may_ins[node.nid]
            for ev in events:
                if (ev.kind == "unlock" and ev.precise
                        and ev.token not in may_state):
                    unmatched.append((ev.line, ev.token))
                may_state = _apply_may(may_state, (ev,), summaries)
        fr.unmatched_unlocks = tuple(unmatched)
        exit_preds = [must_outs[p.nid] for p in fr.cfg.exit.preds
                      if p.nid in must_outs]
        fr.exit_must = (frozenset.intersection(*exit_preds)
                        if exit_preds else frozenset())
        exit_may = frozenset()
        for p in fr.cfg.exit.preds:
            exit_may = exit_may | may_outs[p.nid]
        fr.exit_may = exit_may

    return LockAnalysis(per_func, summaries, contexts, global_names,
                        universe)
