"""Lint diagnostics derived from the lock-discipline analysis.

Stable warning codes (``kivati lint``):

- **W001** — unprotected shared write: a shared variable is written with
  no lock held at any of its access sites.
- **W002** — inconsistent lock discipline: some of a shared variable's
  access sites hold a lock, others do not (or the locked sites hold
  disjoint locks). The classic Eraser report shape, computed statically.
- **W003** — lock/unlock imbalance on a path: an ``unlock`` that no path
  matches with a ``lock``, or a lock held on only *some* paths to a
  function's return.
- **W004** — an atomic region spans a potentially blocking
  synchronization call (``lock``, ``join``, ``sleep`` or a callee that
  may block): the watchpoint stays pinned across the wait, increasing
  missed-AR and suspension pressure.
- **W005** — predicted write-write interleaving: two atomic regions'
  static footprints both may-write a common shared variable, so
  co-scheduling them risks suspensions/undos on every overlap.
- **W006** — predicted read-write interleaving: one region's may-read
  set intersects another's may-write set.
- **W007** — predicted *unserializable* interleaving: the remote
  region's accesses complete one of Figure 2's four non-serializable
  single-variable patterns with the local region's access pair (the
  AVIO shape) — this co-schedule can produce a flagged violation, not
  just scheduler pressure.

Diagnostics carry ``file:line`` anchors and render as text
(``file:line: W00N: message``) or JSON; ordering is fully deterministic.
"""

from repro.analysis import conflict as _c
from repro.analysis import guarded as _g
from repro.analysis.footprint import Footprint
from repro.minic.ast import AccessKind

CODES = ("W001", "W002", "W003", "W004", "W005", "W006", "W007")

#: conflict-edge class -> lint code
CONFLICT_CODES = {_c.WW: "W005", _c.RW: "W006", _c.UNSERIALIZABLE: "W007"}


class Diagnostic:
    """One lint finding."""

    __slots__ = ("code", "file", "line", "func", "var", "message")

    def __init__(self, code, file, line, message, func=None, var=None):
        self.code = code
        self.file = file
        self.line = line
        self.func = func
        self.var = var
        self.message = message

    def format(self):
        return "%s:%d: %s: %s" % (self.file, self.line, self.code,
                                  self.message)

    def as_dict(self):
        return {
            "code": self.code,
            "file": self.file,
            "line": self.line,
            "func": self.func,
            "var": self.var,
            "message": self.message,
        }

    def __repr__(self):
        return "Diagnostic(%s)" % self.format()


def _sites_sorted(vg):
    return sorted(vg.sites, key=lambda s: (s.line, s.func, str(s.kind)))


def _first_line(vg, pred):
    for site in _sites_sorted(vg):
        if pred(site):
            return site.line, site.func
    sites = _sites_sorted(vg)
    if sites:
        return sites[0].line, sites[0].func
    return 0, None


def _guard_diags(result, filename, out):
    for vg in result.guards.all_guards():
        if vg.verdict != _g.UNPROTECTED or not vg.has_writes:
            continue
        if vg.inconsistent:
            line, func = _first_line(vg, lambda s: not s.locks)
            out.append(Diagnostic(
                "W002", filename, line,
                "inconsistent lock discipline on '%s': %d of %d access "
                "sites hold a lock" % (vg.display_name(), vg.n_locked,
                                       vg.n_total),
                func=func, var=vg.display_name()))
        else:
            line, func = _first_line(
                vg, lambda s: s.kind == AccessKind.WRITE)
            out.append(Diagnostic(
                "W001", filename, line,
                "shared variable '%s' is written with no lock held"
                % vg.display_name(),
                func=func, var=vg.display_name()))


def _lock_diags(result, filename, out):
    locks = result.locks
    for name in sorted(locks.per_func):
        fr = locks.per_func[name]
        for line, token in sorted(fr.unmatched_unlocks):
            out.append(Diagnostic(
                "W003", filename, line,
                "unlock of '%s' without a matching lock on any path "
                "in '%s'" % (token, name),
                func=name, var=token))
        # a lock held on some paths to return but not all: path imbalance
        func_line = _func_line(result, name)
        for token in sorted(fr.exit_may - fr.exit_must):
            if not locks.token_is_global(token):
                continue
            out.append(Diagnostic(
                "W003", filename, func_line,
                "lock '%s' is held on only some paths to the return of "
                "'%s'" % (token, name),
                func=name, var=token))


def _func_line(result, name):
    for func in result.ast.funcs:
        if func.name == name:
            return func.line
    return 0


def _ar_diags(result, filename, out):
    prune = result.prune
    for ar_id in sorted(prune.verdicts):
        verdict = prune.verdicts[ar_id]
        if not verdict.blocking:
            continue
        info = result.ar_table[ar_id]
        if info.is_sync:
            # a lock word's own AR trivially spans its lock call
            continue
        first_line, first_name = verdict.blocking[0]
        extra = ("" if len(verdict.blocking) == 1
                 else " (+%d more)" % (len(verdict.blocking) - 1))
        out.append(Diagnostic(
            "W004", filename, info.line,
            "atomic region %d on '%s' spans blocking call '%s' "
            "(line %d)%s" % (ar_id, info.var, first_name, first_line,
                             extra),
            func=info.func, var=info.var))


_CONFLICT_PHRASE = {
    _c.WW: "may write-write conflict on",
    _c.RW: "may read-write conflict on",
    _c.UNSERIALIZABLE: "admit an unserializable interleaving on",
}


def _conflict_diags(result, filename, out):
    graph = result.conflicts
    for edge in graph.edges:
        # sync ARs and lock-word-only conflicts are the scheduler's
        # business, not the programmer's (same carve-out as W004)
        if edge.sync_only:
            continue
        info_a = result.ar_table[edge.a]
        info_b = result.ar_table[edge.b]
        if info_a.is_sync or info_b.is_sync:
            continue
        out.append(Diagnostic(
            CONFLICT_CODES[edge.kind], filename, info_a.line,
            "atomic regions %d (%s:%d) and %d (%s:%d) %s '%s'"
            % (edge.a, info_a.func, info_a.line,
               edge.b, info_b.func, info_b.line,
               _CONFLICT_PHRASE[edge.kind],
               "', '".join(edge.variables)),
            func=info_a.func, var=",".join(edge.variables)))


def run_diagnostics(result, filename="<source>"):
    """All lint findings for one :class:`AnnotationResult`, sorted."""
    out = []
    _guard_diags(result, filename, out)
    _lock_diags(result, filename, out)
    _ar_diags(result, filename, out)
    _conflict_diags(result, filename, out)
    out.sort(key=lambda d: (d.line, d.code, d.var or "", d.message))
    return out


def render_diagnostics(diags, stream_name=None):
    """Plain-text lint report."""
    lines = [d.format() for d in diags]
    counts = {}
    for d in diags:
        counts[d.code] = counts.get(d.code, 0) + 1
    summary = ", ".join("%d %s" % (counts[c], c) for c in CODES
                        if c in counts)
    lines.append("%d warning%s%s" % (len(diags),
                                     "" if len(diags) == 1 else "s",
                                     " (%s)" % summary if summary else ""))
    return "\n".join(lines)


def diagnostics_json(diags):
    """JSON-able payload, stable across runs."""
    return {"warnings": [d.as_dict() for d in diags],
            "count": len(diags)}


# ---------------------------------------------------------------------------
# --dump-analysis payload
# ---------------------------------------------------------------------------


def analysis_dump(result):
    """JSON-able dump of everything the static analysis concluded:
    per-function LSVs and locksets, per-variable guard verdicts and the
    per-AR prune classification."""
    funcs = {}
    for name in sorted(result.lsvs):
        lsv = result.lsvs[name]
        entry = {
            "lsv": sorted(lsv.shared),
            "sync_vars": sorted(lsv.sync_vars),
        }
        fr = result.locks.per_func.get(name)
        if fr is not None:
            entry["entry_context"] = sorted(fr.entry_context)
            entry["exit_must"] = sorted(fr.exit_must)
            entry["exit_may"] = sorted(fr.exit_may)
            locksets = {}
            for uid in sorted(fr.must_in):
                line = fr.stmt_lines.get(uid, 0)
                tokens = sorted(fr.must_in[uid])
                if tokens:
                    locksets.setdefault(str(line), tokens)
            entry["must_hold_by_line"] = locksets
        summ = result.locks.summaries.get(name)
        if summ is not None:
            entry["summary"] = {
                "must_added": sorted(summ.must_added),
                "may_added": sorted(summ.may_added),
                "may_released": sorted(summ.may_released),
                "releases_unknown": summ.releases_unknown,
                "may_block": summ.may_block,
            }
        funcs[name] = entry

    guards = []
    for vg in result.guards.all_guards():
        guards.append({
            "name": vg.display_name(),
            "scope": vg.scope,
            "verdict": vg.verdict,
            "locks": sorted(vg.locks),
            "sites_locked": vg.n_locked,
            "sites_total": vg.n_total,
            "has_writes": vg.has_writes,
        })

    ars = []
    for ar_id in sorted(result.ar_table):
        info = result.ar_table[ar_id]
        entry = {
            "ar_id": ar_id,
            "func": info.func,
            "var": info.var,
            "line": info.line,
            "is_sync": info.is_sync,
        }
        v = result.prune.verdict(ar_id)
        if v is not None:
            entry["verdict"] = v.verdict
            entry["reason"] = v.reason
            if v.lock:
                entry["lock"] = v.lock
        ars.append(entry)

    return {"functions": funcs, "guards": guards, "ars": ars,
            "prune_counts": result.prune.counts()}


def render_dump(dump):
    """Human-readable rendering of :func:`analysis_dump`."""
    lines = []
    for name in sorted(dump["functions"]):
        entry = dump["functions"][name]
        lines.append("function %s:" % name)
        lines.append("  lsv: %s" % (", ".join(entry["lsv"]) or "(none)"))
        if entry.get("sync_vars"):
            lines.append("  sync vars: %s" % ", ".join(entry["sync_vars"]))
        if "entry_context" in entry:
            lines.append("  entry locks: %s"
                         % (", ".join(entry["entry_context"]) or "(none)"))
        for line_no in sorted(entry.get("must_hold_by_line", {}),
                              key=int):
            lines.append("  line %s holds: %s"
                         % (line_no,
                            ", ".join(entry["must_hold_by_line"][line_no])))
        summ = entry.get("summary")
        if summ and (summ["must_added"] or summ["may_released"]
                     or summ["releases_unknown"] or summ["may_block"]):
            bits = []
            if summ["must_added"]:
                bits.append("+%s" % ",".join(summ["must_added"]))
            if summ["may_released"]:
                bits.append("-%s" % ",".join(summ["may_released"]))
            if summ["releases_unknown"]:
                bits.append("releases-unknown")
            if summ["may_block"]:
                bits.append("may-block")
            lines.append("  summary: %s" % " ".join(bits))
    lines.append("guards:")
    for g in dump["guards"]:
        if g["verdict"] == "guarded-by":
            lines.append("  %s: guarded by '%s'"
                         % (g["name"], "', '".join(g["locks"])))
        else:
            lines.append("  %s: %s" % (g["name"], g["verdict"]))
    lines.append("atomic regions:")
    for entry in dump["ars"]:
        verdict = entry.get("verdict", "?")
        lock = " [%s]" % entry["lock"] if entry.get("lock") else ""
        lines.append("  AR %d %s:%d var=%s -> %s (%s)%s"
                     % (entry["ar_id"], entry["func"], entry["line"],
                        entry["var"], verdict, entry.get("reason", "?"),
                        lock))
    if "prune_counts" in dump:
        counts = dump["prune_counts"]
        lines.append("prune: %d static-safe, %d monitored"
                     % (counts.get("static-safe", 0),
                        counts.get("monitor", 0)))
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# --dump-footprints payload
# ---------------------------------------------------------------------------


def footprint_dump(result):
    """JSON-able dump of per-function and per-AR footprints plus the
    inter-AR conflict graph (``kivati annotate --dump-footprints``)."""
    funcs = {}
    for name in sorted(result.func_footprints):
        funcs[name] = result.func_footprints[name].as_dict()
    ars = []
    for ar_id in sorted(result.footprints):
        info = result.ar_table[ar_id]
        entry = {"ar_id": ar_id, "func": info.func, "var": info.var,
                 "line": info.line, "is_sync": info.is_sync}
        entry.update(result.footprints[ar_id].as_dict())
        ars.append(entry)
    return {"functions": funcs, "ars": ars,
            "conflicts": result.conflicts.as_dict()}


def render_footprints(dump):
    """Human-readable rendering of :func:`footprint_dump`."""

    def fmt(entry):
        return Footprint(entry["reads"], entry["writes"],
                         entry["wild"]).describe()

    lines = ["function footprints:"]
    for name in sorted(dump["functions"]):
        lines.append("  %s: %s" % (name, fmt(dump["functions"][name])))
    lines.append("atomic-region footprints:")
    for entry in dump["ars"]:
        lines.append("  AR %d %s:%d var=%s%s -> %s"
                     % (entry["ar_id"], entry["func"], entry["line"],
                        entry["var"], " [sync]" if entry["is_sync"] else "",
                        fmt(entry)))
    graph = dump.get("conflicts")
    if graph is not None:
        counts = graph["counts"]
        lines.append("conflict graph: %d edges (%d unserializable, "
                     "%d ww, %d rw), %d wild AR(s)"
                     % (len(graph["edges"]), counts["unserializable"],
                        counts["ww"], counts["rw"],
                        len(graph["wild_ars"])))
        for edge in graph["edges"]:
            lines.append("  AR %d <-> AR %d: %s on %s%s"
                         % (edge["a"], edge["b"], edge["kind"],
                            ", ".join(edge["vars"]),
                            " [sync]" if edge["sync_only"] else ""))
    return "\n".join(lines)
