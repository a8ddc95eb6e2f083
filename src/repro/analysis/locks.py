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

from repro.minic import ast
from repro.minic.builtins import is_builtin
from repro.analysis.cfg import build_cfg
from repro.analysis.dataflow import solve_call_graph, solve_cfg
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
                 "node_must_in", "must_in", "stmt_lines", "exit_must",
                 "exit_may", "unmatched_unlocks")

    def __init__(self, func_name, cfg):
        self.func_name = func_name
        self.cfg = cfg
        self.entry_context = frozenset()
        self.node_events = {}     # nid -> tuple of LockEvent
        self.node_must_in = {}    # nid -> frozenset of tokens
        self.must_in = {}         # stmt uid -> frozenset of tokens
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

    def global_must_at(self, func_name, stmt_uid):
        """Global locks held on every path entering the statement."""
        fr = self.per_func.get(func_name)
        held = fr.must_in.get(stmt_uid, ()) if fr is not None else ()
        return frozenset(t for t in held if self.token_is_global(t))


# ---------------------------------------------------------------------------
# event extraction
# ---------------------------------------------------------------------------


def _stmt_events(stmt):
    """Lock events of one simple statement or condition, in order."""
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
        if node.kind in ("stmt", "cond"):
            events = _stmt_events(node.stmt if node.kind == "stmt"
                                  else node.expr)
            if events:
                out[node.nid] = tuple(events)
    return out


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


def _union(states):
    return frozenset().union(*states)


def _must_flow(cfg, events, entry_state, summaries):
    """Forward must analysis; returns (ins, outs) keyed by nid.

    Unreachable nodes get the empty set (they never execute; claiming
    nothing is held there is harmlessly conservative) and no out-state."""
    return solve_cfg(
        cfg, lambda node, in_: _apply_must(in_, events.get(node.nid, ()),
                                           summaries),
        lambda states: frozenset.intersection(*states), entry_state,
        frozenset(), optimistic=True)


def _may_flow(cfg, events, entry_state, summaries):
    """Forward may analysis over every node; returns (ins, outs)."""
    return solve_cfg(
        cfg, lambda node, in_: _apply_may(in_, events.get(node.nid, ()),
                                          summaries),
        _union, entry_state, frozenset())


def _exit_must(cfg, outs):
    preds = [outs[p.nid] for p in cfg.exit.preds if p.nid in outs]
    return frozenset.intersection(*preds) if preds else frozenset()


def _exit_may(cfg, outs):
    return _union([outs[p.nid] for p in cfg.exit.preds])


# ---------------------------------------------------------------------------
# whole-program analysis
# ---------------------------------------------------------------------------


def compute_lock_analysis(program, pinfo, cfgs=None):
    """Run the lock-discipline analysis over a normalized program.

    ``cfgs`` may supply prebuilt per-function CFGs (the annotator shares
    its own); missing entries are built here. Must run on the
    *pre-annotation* AST.

    Three passes over the call graph, each on the one solver: the
    syntactic summary parts and then the additive ones (callees first),
    then the entry contexts (callers first), whose must flows are the
    final ones.
    """
    global_names = frozenset(pinfo.global_sizes)
    names = [func.name for func in program.funcs]
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

    def globals_of(tokens):
        return frozenset(t for t in tokens if is_global_token(t))

    # universe of precise global tokens, roots (thread entry points),
    # call edges in first-call order, and the syntactic summary parts
    universe = set()
    roots = {"main"}
    summaries = {name: LockSummary(name) for name in names}
    callee_map = {}
    callers = {name: [] for name in names}
    for func in program.funcs:
        summ = summaries[func.name]
        callees = callee_map[func.name] = []
        for node in per_func[func.name].cfg.nodes:
            for ev in per_func[func.name].node_events.get(node.nid, ()):
                if ev.kind in ("lock", "unlock") and ev.precise \
                        and is_global_token(ev.token):
                    universe.add(ev.token)
                if ev.kind == "spawn":
                    roots.add(ev.name)
                elif ev.kind == "unlock":
                    if ev.precise:
                        if is_global_token(ev.token):
                            summ.may_released.add(ev.token)
                    else:
                        summ.releases_unknown = True
                elif ev.kind == "invoke":
                    summ.releases_unknown = True
                elif ev.kind in ("block", "lock"):
                    summ.may_block = True
                elif ev.kind == "call" and ev.name not in callees:
                    callees.append(ev.name)
                    if ev.name in callers:
                        callers[ev.name].append(func.name)
        # funcref-taken functions can be invoked with anything held
        for node in ast.walk(func.body):
            if isinstance(node, ast.Call) and node.name == "funcref":
                arg = node.args[0] if node.args else None
                if isinstance(arg, ast.Var):
                    roots.add(arg.name)
    universe = frozenset(universe)

    # ---- summaries: syntactic parts (release effects, blocking) ---------
    def close_syntactic(name):
        summ = summaries[name]
        before = (summ.releases_unknown, len(summ.may_released),
                  summ.may_block)
        for callee in callee_map[name]:
            other = summaries.get(callee)
            if other is not None:
                summ.releases_unknown |= other.releases_unknown
                summ.may_released |= other.may_released
                summ.may_block |= other.may_block
        return before != (summ.releases_unknown, len(summ.may_released),
                          summ.may_block)

    solve_call_graph(names, callee_map, close_syntactic)

    # ---- summaries: additive parts need the dataflow (least fixpoint) ----
    def close_additive(name):
        fr = per_func[name]
        summ = summaries[name]
        if not fr.node_events:
            return False        # adds nothing from an empty entry state
        _, must_outs = _must_flow(fr.cfg, fr.node_events, frozenset(),
                                  summaries)
        _, may_outs = _may_flow(fr.cfg, fr.node_events, frozenset(),
                                summaries)
        must_added = globals_of(_exit_must(fr.cfg, must_outs))
        may_added = globals_of(_exit_may(fr.cfg, may_outs))
        if (must_added, may_added) == (summ.must_added, summ.may_added):
            return False
        summ.must_added, summ.may_added = must_added, may_added
        return True

    solve_call_graph(names, callee_map, close_additive)

    # ---- entry contexts: greatest fixpoint, roots pinned to empty -------
    # a context is the meet of the must states at every call site; a
    # caller not yet solved (inside a recursive component) counts as the
    # full universe, a function nobody calls (dead code) gets nothing
    contexts = {}
    calls_from = {}    # caller -> {callee: meet of its call-site states}
    must = {}          # func name -> (ins, outs) under its context

    def solve_context(name):
        if name in roots or not callers[name]:
            context = frozenset()
        else:
            context = universe
            for caller in callers[name]:
                state = calls_from.get(caller, {}).get(name)
                if state is not None:
                    context = context & state
        contexts[name] = context
        fr = per_func[name]
        ins, outs = must[name] = _must_flow(fr.cfg, fr.node_events, context,
                                            summaries)
        observed = {}
        for node in fr.cfg.nodes:
            events = fr.node_events.get(node.nid)
            if not events:
                continue
            state = ins[node.nid]
            for ev in events:
                if ev.kind == "call":
                    seen = globals_of(state)
                    observed[ev.name] = (observed[ev.name] & seen
                                         if ev.name in observed else seen)
                state = _apply_must(state, (ev,), summaries)
        if calls_from.get(name) == observed:
            return False
        calls_from[name] = observed
        return True

    solve_call_graph(names, callee_map, solve_context, callers_first=True)
    contexts = {name: contexts[name] for name in names}

    # ---- final per-function results with contexts applied ----------------
    for func in program.funcs:
        fr = per_func[func.name]
        fr.entry_context = contexts[func.name]
        fr.node_must_in, must_outs = must[func.name]
        fr.exit_must = _exit_must(fr.cfg, must_outs)
        for node in fr.cfg.nodes:
            if node.kind in ("stmt", "cond"):
                fr.must_in[node.stmt.uid] = fr.node_must_in[node.nid]
                fr.stmt_lines[node.stmt.uid] = node.stmt.line
        if not fr.node_events:
            # nothing changes the state: the may flow is the must flow
            fr.exit_may = fr.exit_must
            continue
        may_ins, may_outs = _may_flow(fr.cfg, fr.node_events,
                                      fr.entry_context, summaries)
        unmatched = []
        for node in fr.cfg.nodes:
            may_state = may_ins[node.nid]
            for ev in fr.node_events.get(node.nid, ()):
                if (ev.kind == "unlock" and ev.precise
                        and ev.token not in may_state):
                    unmatched.append((ev.line, ev.token))
                may_state = _apply_may(may_state, (ev,), summaries)
        fr.unmatched_unlocks = tuple(unmatched)
        fr.exit_may = _exit_may(fr.cfg, may_outs)

    return LockAnalysis(per_func, summaries, contexts, global_names,
                        universe)
