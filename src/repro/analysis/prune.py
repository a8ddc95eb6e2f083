"""Static AR pruning: STATIC_SAFE vs MONITOR classification.

An atomic region may skip run-time monitoring entirely when static
analysis proves no unserializable interleaving can be observed on it:

- the AR's variable is ``THREAD_LOCAL`` — no other thread can reach its
  address, so no remote access can interleave;
- the variable is ``READ_SHARED`` — with no writes anywhere, every
  interleaving of reads is serializable (Figure 2: all-R patterns);
- the variable is ``GUARDED_BY`` lock L **and the AR's whole span holds
  L**: every remote access also holds L (that is what GUARDED_BY means),
  so no remote access can execute between the AR's first and second
  accesses while the local thread holds L continuously.

The span condition is what makes the guarded case sound. GUARDED_BY
alone is *not* enough: an AR pairing accesses in two separate critical
sections (``lock; x=1; unlock; ...; lock; y=x; unlock``) has every site
locked, yet a remote locked write can interleave between the sections
and produce a flagged (W, W, R) pattern. We therefore require, for some
common guard L, that L is in the must-hold set at every CFG node on
every begin→end path and that no event in the span can release L (no
unlock of L, no imprecise unlock, no call that may release L or has
unknown release effects, no indirect invoke).

Synchronization-variable ARs are always MONITOR here: their benignity is
the fourth optimization's (dynamic whitelist) call, and with ``o4`` off
the runtime genuinely flags them, so calling them STATIC_SAFE would be
unsound against the cross-validation harness. Likewise ARs on pointer
pseudo-variables (``*p``): their watchpoint address is only known at run
time.
"""

from repro.analysis import guarded as _g

STATIC_SAFE = "static-safe"
MONITOR = "monitor"


class ARVerdict:
    """Prune classification of one atomic region."""

    __slots__ = ("ar_id", "verdict", "reason", "lock", "blocking", "span")

    def __init__(self, ar_id, verdict, reason, lock=None, blocking=(),
                 span=None):
        self.ar_id = ar_id
        self.verdict = verdict
        self.reason = reason
        self.lock = lock
        # blocking calls inside the AR's span: tuple of (line, name);
        # W004's evidence, recorded for every AR regardless of verdict
        self.blocking = tuple(blocking)
        # CFG nodes of the AR's begin->end window in node order, or None
        # when it cannot be reconstructed; the footprints read it
        self.span = span

    def describe(self):
        extra = " [%s]" % self.lock if self.lock else ""
        return "AR %d: %s (%s)%s" % (self.ar_id, self.verdict, self.reason,
                                     extra)

    def __repr__(self):
        return "ARVerdict(%d, %s, %s)" % (self.ar_id, self.verdict,
                                          self.reason)


class PruneResult:
    """Classification of every AR in the table."""

    __slots__ = ("verdicts", "static_safe_ids")

    def __init__(self, verdicts):
        self.verdicts = verdicts  # ar_id -> ARVerdict
        self.static_safe_ids = frozenset(
            ar_id for ar_id, v in verdicts.items()
            if v.verdict == STATIC_SAFE)

    def verdict(self, ar_id):
        return self.verdicts.get(ar_id)

    def monitored_ids(self):
        return frozenset(ar_id for ar_id in self.verdicts
                         if ar_id not in self.static_safe_ids)

    def counts(self):
        return {STATIC_SAFE: len(self.static_safe_ids),
                MONITOR: len(self.verdicts) - len(self.static_safe_ids)}

    def __repr__(self):
        c = self.counts()
        return "PruneResult(safe=%d, monitor=%d)" % (c[STATIC_SAFE],
                                                     c[MONITOR])


def _uid_node_map(cfg):
    out = {}
    for node in cfg.nodes:
        if node.kind in ("stmt", "cond") and node.stmt is not None:
            out[node.stmt.uid] = node
    return out


def _span_nodes(cfg, begin_node, end_nodes):
    """Nodes on some begin→end path that does not revisit begin.

    The monitored window mirrors annotation placement: it opens at the
    begin_atomic before the first-access statement and closes at the
    end_atomic after the *next executed* second-access statement. Two
    consequences for reachability:

    - re-reaching the begin site restarts the window (each begin opens a
      fresh one), so traversal never continues through the begin node —
      a loop's back edge does not extend the AR across iterations;
    - reaching any end site closes the window, so traversal never
      continues through an end node either."""
    end_ids = {n.nid for n in end_nodes}
    fwd = {begin_node.nid}
    work = [begin_node]
    while work:
        node = work.pop()
        if node.nid in end_ids:
            continue  # window already closed here
        for succ in node.succs:
            if succ.nid == begin_node.nid or succ.nid in fwd:
                continue
            fwd.add(succ.nid)
            work.append(succ)
    bwd = set()
    work = []
    for end in end_nodes:
        if end.nid not in bwd:
            bwd.add(end.nid)
            if end.nid != begin_node.nid:
                work.append(end)
    while work:
        node = work.pop()
        for pred in node.preds:
            if pred.nid in bwd:
                continue
            bwd.add(pred.nid)
            if pred.nid != begin_node.nid and pred.nid not in end_ids:
                work.append(pred)
    keep = fwd & bwd
    return [n for n in cfg.nodes if n.nid in keep]


def _releases(event, lock, summaries):
    """Can this event release ``lock``?"""
    if event.kind == "unlock":
        return (not event.precise) or event.token == lock
    if event.kind == "invoke":
        return True
    if event.kind == "call":
        summ = summaries.get(event.name)
        if summ is None:
            return False
        return summ.releases_unknown or lock in summ.may_released
    return False


def _span_holds(span, lock, func_result, summaries):
    """True when ``lock`` is continuously held across the span."""
    for node in span:
        if lock not in func_result.node_must_in.get(node.nid, frozenset()):
            return False
        for event in func_result.node_events.get(node.nid, ()):
            if _releases(event, lock, summaries):
                return False
    return True


def _blocking_calls(span, func_result, summaries):
    out = []
    for node in span:
        for event in func_result.node_events.get(node.nid, ()):
            if event.kind in ("lock", "block"):
                name = event.name or "lock"
                out.append((event.line, name))
            elif event.kind == "call":
                summ = summaries.get(event.name)
                if summ is not None and summ.may_block:
                    out.append((event.line, event.name))
    return sorted(set(out))


def _classify(info, span, guards, func_result, summaries):
    """``(verdict, reason, guard lock)`` of one AR."""
    if info.is_sync:
        return MONITOR, "sync", None
    base = info.var.split("[")[0]
    if base.startswith("*"):
        return MONITOR, "pointer", None
    vg = guards.verdict_for(info.func, base)
    if vg is None:
        return MONITOR, "unclassified", None
    if vg.verdict in (_g.THREAD_LOCAL, _g.READ_SHARED):
        return STATIC_SAFE, vg.verdict, None
    if vg.verdict != _g.GUARDED_BY:
        return MONITOR, vg.verdict, None
    if span is None:
        return MONITOR, "guarded-no-span", None
    for lock in sorted(vg.locks):
        if _span_holds(span, lock, func_result, summaries):
            return STATIC_SAFE, "guarded-by", lock
    return MONITOR, "guard-not-spanning", None


def classify_ars(ar_table, guards, lock_analysis):
    """Classify every AR; returns a :class:`PruneResult`."""
    summaries = lock_analysis.summaries
    uid_maps = {}
    verdicts = {}
    for ar_id in sorted(ar_table):
        info = ar_table[ar_id]
        func_result = lock_analysis.per_func.get(info.func)
        # span + blocking evidence (wanted for every AR, W004)
        blocking = ()
        span = None
        if func_result is not None:
            uid_map = uid_maps.get(info.func)
            if uid_map is None:
                uid_map = uid_maps[info.func] = _uid_node_map(func_result.cfg)
            begin_node = uid_map.get(info.begin_uid)
            end_nodes = [uid_map[uid] for uid in info.second_kinds
                         if uid in uid_map]
            if begin_node is not None and end_nodes:
                span = _span_nodes(func_result.cfg, begin_node, end_nodes)
                blocking = _blocking_calls(span, func_result, summaries)
        verdict, reason, lock = _classify(info, span, guards, func_result,
                                          summaries)
        verdicts[ar_id] = ARVerdict(ar_id, verdict, reason, lock, blocking,
                                    span)
    return PruneResult(verdicts)
