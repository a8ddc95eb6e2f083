"""Inter-AR static conflict graph over footprints.

Two atomic regions *conflict* when their footprints
(:mod:`repro.analysis.footprint`) may touch a common variable with at
least one write.  Each edge is classified, strongest first:

- ``unserializable`` — the remote side's access kinds complete one of
  Figure 2's four non-serializable single-variable interleavings with
  the local side's (first, second) pair on its own AR variable (the
  AVIO shape: this co-schedule can *flag*, not just suspend);
- ``ww`` — both sides may write a common variable;
- ``rw`` — one side reads what the other writes.

Wild ARs (footprint says "may touch anything") get **no** pairwise
edges — they would connect to every other AR and drown the graph in
quadratic noise.  Wildness stays a node property: the dump shows it and
the conflict-aware scheduler treats a wild AR as conflicting with
everything.  Edges whose every witness variable is a synchronization
variable are kept in the graph (lock-word conflicts are real suspension
sources for the scheduler) but marked ``sync_only`` so the lint pass
can skip them, exactly like W004 skips sync ARs.
"""

from repro.analysis.watchtype import is_unserializable

UNSERIALIZABLE = "unserializable"
WW = "ww"
RW = "rw"

#: scheduler/binning weight of one edge, by class
EDGE_WEIGHTS = {UNSERIALIZABLE: 4, WW: 2, RW: 1}


class ConflictEdge:
    """One conflict between two ARs (``a < b`` by id)."""

    __slots__ = ("a", "b", "kind", "variables", "sync_only")

    def __init__(self, a, b, kind, variables, sync_only):
        self.a = a
        self.b = b
        self.kind = kind
        self.variables = tuple(variables)
        self.sync_only = sync_only

    @property
    def weight(self):
        return EDGE_WEIGHTS[self.kind]

    def as_dict(self):
        return {"a": self.a, "b": self.b, "kind": self.kind,
                "vars": list(self.variables), "sync_only": self.sync_only}

    def __repr__(self):
        return "ConflictEdge(%d-%d %s %s)" % (self.a, self.b, self.kind,
                                              ",".join(self.variables))


class ConflictGraph:
    """All pairwise AR conflicts of one program."""

    __slots__ = ("edges", "wild_ar_ids", "_adj")

    def __init__(self, edges, wild_ar_ids):
        self.edges = tuple(edges)
        self.wild_ar_ids = frozenset(wild_ar_ids)
        self._adj = {}
        for edge in self.edges:
            self._adj.setdefault(edge.a, []).append(edge)
            self._adj.setdefault(edge.b, []).append(edge)

    def degree(self, ar_id):
        return len(self._adj.get(ar_id, ()))

    def counts(self):
        out = {UNSERIALIZABLE: 0, WW: 0, RW: 0}
        for edge in self.edges:
            out[edge.kind] += 1
        return out

    def as_dict(self):
        return {"edges": [e.as_dict() for e in self.edges],
                "wild_ars": sorted(self.wild_ar_ids),
                "counts": self.counts()}

    def __repr__(self):
        c = self.counts()
        return "ConflictGraph(%d edges: %d unserializable, %d ww, %d rw)" \
            % (len(self.edges), c[UNSERIALIZABLE], c[WW], c[RW])


def _classify(info_a, info_b, fp_a, fp_b, shared):
    """Strongest conflict class over the witness variables."""

    def avio(local, local_fp, remote_fp):
        base = local.var.split("[")[0].lstrip("*")
        if base not in shared:
            return False
        for second in set(local.second_kinds.values()):
            for remote in remote_fp.kinds_of(base):
                if is_unserializable(local.first_kind, remote, second):
                    return True
        return False

    if avio(info_a, fp_a, fp_b) or avio(info_b, fp_b, fp_a):
        return UNSERIALIZABLE
    if fp_a.writes & fp_b.writes & shared:
        return WW
    return RW


def build_conflict_graph(ar_table, footprints, sync_names=frozenset()):
    """Pairwise conflicts over concrete (non-wild) footprints.

    ``sync_names`` — lock words / sync-builtin targets, used only to
    mark ``sync_only`` edges. Returns a :class:`ConflictGraph`.
    """
    ids = sorted(ar_table)
    wild = [ar_id for ar_id in ids
            if footprints.get(ar_id) is not None
            and footprints[ar_id].wild]
    edges = []
    for i, a in enumerate(ids):
        fp_a = footprints.get(a)
        if fp_a is None or fp_a.wild:
            continue
        for b in ids[i + 1:]:
            fp_b = footprints.get(b)
            if fp_b is None or fp_b.wild:
                continue
            shared = fp_a.conflict_vars(fp_b)
            if not shared:
                continue
            kind = _classify(ar_table[a], ar_table[b], fp_a, fp_b, shared)
            sync_only = all(v in sync_names for v in shared)
            edges.append(ConflictEdge(a, b, kind, sorted(shared), sync_only))
    return ConflictGraph(edges, wild)


def conflict_weight(graph, history=None):
    """Scalar conflict weight of one program's graph.

    The fleet scheduler bins jobs by this: heavier programs run first
    (longest-processing-time order) and, with >1 worker, the heaviest
    jobs spread over distinct workers.  ``history`` is an optional
    ``{ar_id: violation count}`` map (the pressure arbiter's
    violation-history shape): past violations multiply an edge's weight,
    so empirically hot conflicts dominate.
    """
    history = history or {}
    total = 0
    for edge in graph.edges:
        boost = 1 + history.get(edge.a, 0) + history.get(edge.b, 0)
        total += edge.weight * boost
    # a wild AR conflicts with everything the graph cannot enumerate
    total += 8 * len(graph.wild_ar_ids)
    return total


__all__ = ["EDGE_WEIGHTS", "RW", "UNSERIALIZABLE", "WW", "ConflictEdge",
           "ConflictGraph", "build_conflict_graph", "conflict_weight"]
