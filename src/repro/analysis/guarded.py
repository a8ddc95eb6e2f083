"""Static guarded-by inference: which lock protects each shared variable.

Eraser's lockset discipline, applied statically: for every variable the
LSV construction considers shared, intersect the must-hold locksets (from
:mod:`repro.analysis.locks`) at all of its access sites. The verdicts:

- ``GUARDED_BY`` — every access site holds a common global lock;
- ``READ_SHARED`` — the variable is never written (initialization is the
  global initializer, outside any thread);
- ``THREAD_LOCAL`` — a function-local the LSV over-approximated into the
  shared set (typically via the dataflow closure) whose address is never
  taken, so no other thread can reach its stack slot;
- ``SYNC`` — lock words, CAS/atomic targets and spin flags; their
  accesses are intentionally racy and are the fourth optimization's
  domain, not this analysis';
- ``UNPROTECTED`` — everything else (including *inconsistent* discipline,
  where only some sites are locked — W002's evidence).

Writes through pointers are resolved with the Andersen-lite points-to
sets (:mod:`repro.analysis.pointers`): each named target gets a synthetic
access site. A dereference with an *empty* points-to set is wild — it
poisons the whole program (no READ_SHARED / THREAD_LOCAL verdicts, and
any guarded-by intersection is discarded), because it could touch any
word without holding anything.
"""

from repro.minic.ast import AccessKind
from repro.analysis.lockmodel import token_base

GUARDED_BY = "guarded-by"
READ_SHARED = "read-shared"
THREAD_LOCAL = "thread-local"
UNPROTECTED = "unprotected"
SYNC = "sync"


class AccessSite:
    """One (possibly synthetic) access to a classified variable."""

    __slots__ = ("func", "line", "kind", "locks")

    def __init__(self, func, line, kind, locks):
        self.func = func
        self.line = line
        self.kind = kind
        self.locks = locks  # frozenset of global lock tokens (must-hold)

    def __repr__(self):
        return "AccessSite(%s:%d %s %s)" % (self.func, self.line, self.kind,
                                            sorted(self.locks))


class VarGuard:
    """Classification of one variable."""

    __slots__ = ("name", "scope", "verdict", "locks", "sites", "n_locked",
                 "n_total", "has_writes")

    def __init__(self, name, scope, verdict, locks, sites, n_locked,
                 n_total, has_writes):
        self.name = name
        self.scope = scope          # "global" or the owning function name
        self.verdict = verdict
        self.locks = locks          # common guard tokens (GUARDED_BY only)
        self.sites = sites          # tuple of AccessSite, source order
        self.n_locked = n_locked
        self.n_total = n_total
        self.has_writes = has_writes

    @property
    def inconsistent(self):
        """Some but not all sites locked, or locked under disjoint locks —
        the shape W002 warns about."""
        return (self.verdict == UNPROTECTED and self.n_locked > 0
                and self.n_total > 0)

    def display_name(self):
        if self.scope == "global":
            return self.name
        return "%s::%s" % (self.scope, self.name)

    def describe(self):
        if self.verdict == GUARDED_BY:
            return "%s: guarded by '%s'" % (self.display_name(),
                                            "', '".join(sorted(self.locks)))
        extra = ""
        if self.inconsistent:
            extra = " (%d of %d sites locked)" % (self.n_locked,
                                                  self.n_total)
        return "%s: %s%s" % (self.display_name(), self.verdict, extra)


class GuardReport:
    """Result of :func:`infer_guards`."""

    __slots__ = ("globals_", "locals_", "has_wild_write", "has_wild_read",
                 "sync_names")

    def __init__(self, globals_, locals_, has_wild_write, has_wild_read,
                 sync_names):
        self.globals_ = globals_    # name -> VarGuard
        self.locals_ = locals_      # (func, name) -> VarGuard
        self.has_wild_write = has_wild_write
        self.has_wild_read = has_wild_read
        self.sync_names = sync_names

    def verdict_for(self, func_name, base_name):
        """VarGuard of a base variable as seen from ``func_name``."""
        vg = self.locals_.get((func_name, base_name))
        if vg is not None:
            return vg
        return self.globals_.get(base_name)

    def all_guards(self):
        for name in sorted(self.globals_):
            yield self.globals_[name]
        for key in sorted(self.locals_):
            yield self.locals_[key]


def infer_guards(program, pinfo, lock_analysis, func_data, points_to=None,
                 extra_sync_vars=()):
    """Classify every accessed shared variable.

    ``func_data`` maps function name to ``(lsv, pair_result)`` as computed
    by the annotator *before* annotation insertion; the pair results
    already carry every shared access with its statement uid, which the
    lock analysis translates into a must-hold lockset.
    """
    global_names = set(pinfo.global_sizes)

    # synchronization names: lock tokens, sync builtin targets, spin flags
    sync_names = set(extra_sync_vars)
    for fr in lock_analysis.per_func.values():
        for events in fr.node_events.values():
            for ev in events:
                if ev.kind in ("lock", "unlock") and ev.token:
                    sync_names.add(token_base(ev.token))
    for lsv, _ in func_data.values():
        sync_names.update(lsv.sync_vars)

    sites = {}          # ("global", name) or (func, name) -> [AccessSite]
    wild_reads = []
    wild_writes = []
    foreign_sites = []  # derefs of heap / foreign-local targets

    def add_site(func_name, name, line, kind, locks):
        if name in global_names:
            key = ("global", name)
        else:
            key = (func_name, name)
        sites.setdefault(key, []).append(
            AccessSite(func_name, line, kind, locks))

    for func in program.funcs:
        fname = func.name
        if fname not in func_data:
            continue
        _, pair_result = func_data[fname]
        pts = points_to.get(fname) if points_to else None
        for acc in sorted(pair_result.accesses.values(),
                          key=lambda a: a.aid):
            locks = lock_analysis.global_must_at(fname, acc.stmt_uid)
            base = acc.var.split("[")[0]
            if base.startswith("*"):
                ptr = base.lstrip("*")
                targets = pts.targets(ptr) if pts is not None else frozenset()
                # sorted: the frozenset's iteration order varies with
                # PYTHONHASHSEED, and site order feeds diagnostics
                named = sorted(t for t in targets
                               if not t.startswith("heap@"))
                if not targets:
                    # wild pointer: could touch anything
                    site = AccessSite(fname, acc.line, acc.kind, locks)
                    if acc.kind == AccessKind.WRITE:
                        wild_writes.append(site)
                    else:
                        wild_reads.append(site)
                elif len(named) < len(targets):
                    # heap or foreign-local targets: may reach any
                    # address-taken stack slot, but never a global's name
                    foreign_sites.append(
                        AccessSite(fname, acc.line, acc.kind, locks))
                for target in named:
                    add_site(fname, target, acc.line, acc.kind, locks)
                continue
            add_site(fname, base, acc.line, acc.kind, locks)

    has_wild_write = bool(wild_writes)
    has_wild_read = bool(wild_reads)

    addr_taken = {name: lsv.addr_taken
                  for name, (lsv, _) in func_data.items()}

    globals_ = {}
    locals_ = {}
    for key in sorted(sites):
        scope, name = ("global", key[1]) if key[0] == "global" \
            else (key[0], key[1])
        var_sites = tuple(sites[key])
        n_total = len(var_sites)
        n_locked = sum(1 for s in var_sites if s.locks)
        # heap/foreign-target derefs may reach any address-taken stack
        # slot, so they count as sites of every classified local
        reaching = (list(var_sites) if scope == "global"
                    else list(var_sites) + foreign_sites)
        has_writes = any(s.kind == AccessKind.WRITE for s in reaching)

        if name in sync_names:
            verdict, locks = SYNC, frozenset()
        elif scope != "global" and name not in addr_taken.get(scope, ()) \
                and not has_wild_write:
            # a stack slot whose address never escapes its function:
            # no other thread can reach it
            verdict, locks = THREAD_LOCAL, frozenset()
        elif not has_writes and not has_wild_write:
            verdict, locks = READ_SHARED, frozenset()
        else:
            common = None
            for s in reaching:
                common = s.locks if common is None else (common & s.locks)
            for s in wild_writes + wild_reads:
                # a wild access may touch this variable too
                common = s.locks if common is None else (common & s.locks)
            if common:
                verdict, locks = GUARDED_BY, frozenset(common)
            else:
                verdict, locks = UNPROTECTED, frozenset()

        vg = VarGuard(name, scope, verdict, locks, var_sites, n_locked,
                      n_total, has_writes)
        if scope == "global":
            globals_[name] = vg
        else:
            locals_[(scope, name)] = vg

    return GuardReport(globals_, locals_, has_wild_write, has_wild_read,
                       frozenset(sync_names))
