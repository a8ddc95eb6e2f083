"""Per-AR may-read/may-write shared-variable footprints.

For every atomic region the annotator finds, compute a sound
over-approximation of the shared memory its dynamic window may touch:
the set of global variables (and ``heap@N`` allocation sites) that any
execution of the static span — the same begin→end CFG region the prune
analysis uses, which mirrors the runtime window exactly — may read or
write.  Two ARs with disjoint footprints can never suspend, undo or
flag each other, which is what makes the conflict graph
(:mod:`repro.analysis.conflict`) and the conflict-aware scheduler
(:mod:`repro.machine.conflictsched`) sound consumers.

Soundness is the contract (there is a hypothesis property test pinning
it): the static footprint must be a superset of every dynamically
observed footprint on every schedule.  The over-approximations that
guarantee it:

- named locals are excluded from the domain — a stack slot is reached
  by another thread only through a pointer, and every pointer deref is
  handled separately;
- a dereference ``*p`` expands to the points-to targets of ``p``
  (:mod:`repro.analysis.pointers`); global and heap targets enter the
  footprint, named-local targets are per-thread and skipped;
- an *empty* or foreign points-to set, a pointer the Andersen-lite
  analysis cannot see (address stored through memory, pointer
  arithmetic), or an indirect ``invoke`` makes the footprint **wild**:
  it may touch anything, and conflicts with everything;
- calls are always folded transitively (a span can contain call
  statements even when the inter-procedural pairing extension is off);
  an unknown callee is wild.

Array element pseudo-variables (``a[k]``) collapse to the base array
name: footprints are about *which memory* can be touched, and the
machine lays an array out as one contiguous range.
"""

from repro.minic import ast
from repro.minic.ast import AccessKind
from repro.minic.builtins import SYNC_BUILTINS, is_builtin

from repro.analysis.dataflow import solve_call_graph


class Footprint:
    """May-read/may-write sets over globals and heap allocation sites.

    ``wild`` means the region may touch memory the analysis cannot
    name; a wild footprint conflicts with every non-empty footprint.
    """

    __slots__ = ("reads", "writes", "wild")

    EMPTY = None  # filled in below

    def __init__(self, reads=(), writes=(), wild=False):
        self.reads = frozenset(reads)
        self.writes = frozenset(writes)
        self.wild = bool(wild)

    def touched(self):
        return self.reads | self.writes

    def is_empty(self):
        return not (self.reads or self.writes or self.wild)

    def union(self, other):
        if other.is_empty():
            return self
        if self.is_empty():
            return other
        return Footprint(self.reads | other.reads,
                         self.writes | other.writes,
                         self.wild or other.wild)

    def conflict_vars(self, other):
        """Variables witnessing a conflict: at least one side writes.

        Wildness is *not* reflected here — callers that care about wild
        regions must check :attr:`wild` (the scheduler does; the lint
        pass deliberately does not, to avoid quadratic noise)."""
        return ((self.writes & other.touched())
                | (self.reads & other.writes))

    def conflicts_with(self, other):
        """True when the two regions may touch a common word with at
        least one write, or either side is wild and the other non-empty."""
        if self.wild and not other.is_empty():
            return True
        if other.wild and not self.is_empty():
            return True
        return bool(self.conflict_vars(other))

    def kinds_of(self, var):
        kinds = []
        if var in self.reads:
            kinds.append(AccessKind.READ)
        if var in self.writes:
            kinds.append(AccessKind.WRITE)
        return kinds

    def as_dict(self):
        return {"reads": sorted(self.reads), "writes": sorted(self.writes),
                "wild": self.wild}

    def describe(self):
        bits = []
        if self.reads:
            bits.append("R{%s}" % ",".join(sorted(self.reads)))
        if self.writes:
            bits.append("W{%s}" % ",".join(sorted(self.writes)))
        if self.wild:
            bits.append("wild")
        return " ".join(bits) or "(empty)"

    def __repr__(self):
        return "Footprint(%s)" % self.describe()


Footprint.EMPTY = Footprint()

WILD = Footprint(wild=True)


def _base_name(var):
    """Collapse ``a[k]`` element pseudo-vars to the base array name."""
    return var.split("[")[0]


class _Collector:
    """Accumulates the footprint of one function's statements.

    ``fold_calls=False`` collects only the function's *direct* accesses
    (callees contribute a read of nothing; call edges are returned for
    the caller's fixpoint to fold)."""

    def __init__(self, func_name, global_names, pts, addr_escapes,
                 func_footprints=None):
        self.func_name = func_name
        self.global_names = global_names
        self.pts = pts
        # when the program stores an address somewhere the points-to
        # analysis cannot model, any deref may follow it: wild
        self.addr_escapes = addr_escapes
        self.func_footprints = func_footprints  # None => record callees
        self.reads = set()
        self.writes = set()
        self.wild = False
        self.callees = set()

    def _add(self, name, kind):
        if name not in self.global_names and not name.startswith("heap@"):
            return  # named local: per-thread, never a cross-thread conflict
        if kind == AccessKind.WRITE:
            self.writes.add(name)
        else:
            self.reads.add(name)

    def _deref(self, pointer_name, kind):
        """Expand ``*pointer`` through the points-to sets."""
        if self.addr_escapes:
            self.wild = True
            return
        targets = (self.pts.targets(pointer_name)
                   if self.pts is not None else frozenset())
        if not targets:
            self.wild = True  # pointer from arithmetic/array/call: anything
            return
        for target in sorted(targets):
            if target == "heap@foreign":
                # an address that is some other function's stack slot
                # here; through it any address-taken word is reachable
                self.wild = True
            elif target.startswith("heap@") or target in self.global_names:
                self._add(target, kind)
            # else: a named local of this function — per-thread, skipped

    def _fold_call(self, callee):
        if self.func_footprints is None:
            self.callees.add(callee)
            return
        fp = self.func_footprints.get(callee)
        if fp is None:
            self.wild = True  # unknown callee: could touch anything
            return
        self.reads |= fp.reads
        self.writes |= fp.writes
        self.wild = self.wild or fp.wild

    # -- expression / statement walkers -------------------------------

    def reads_of(self, expr):
        if isinstance(expr, ast.Var):
            self._add(expr.name, AccessKind.READ)
        elif isinstance(expr, ast.Deref):
            if isinstance(expr.operand, ast.Var):
                self._add(expr.operand.name, AccessKind.READ)
                self._deref(expr.operand.name, AccessKind.READ)
            else:
                self.reads_of(expr.operand)
                self.wild = True  # deref of a computed address
        elif isinstance(expr, ast.AddrOf):
            if isinstance(expr.operand, ast.Index):
                self.reads_of(expr.operand.index)
        elif isinstance(expr, ast.Index):
            self.reads_of(expr.index)
            self._add(expr.base.name, AccessKind.READ)
        elif isinstance(expr, ast.Unary):
            self.reads_of(expr.operand)
        elif isinstance(expr, ast.Binary):
            self.reads_of(expr.left)
            self.reads_of(expr.right)
        elif isinstance(expr, ast.Call):
            self.call(expr)

    def write_target(self, target):
        if isinstance(target, ast.Var):
            self._add(target.name, AccessKind.WRITE)
        elif isinstance(target, ast.Deref):
            if isinstance(target.operand, ast.Var):
                self._add(target.operand.name, AccessKind.READ)
                self._deref(target.operand.name, AccessKind.WRITE)
            else:
                self.reads_of(target.operand)
                self.wild = True
        elif isinstance(target, ast.Index):
            self.reads_of(target.index)
            self._add(target.base.name, AccessKind.WRITE)

    def _copyword_arg(self, arg, kind):
        """copyword moves a word through an address-valued argument."""
        if isinstance(arg, ast.AddrOf):
            if isinstance(arg.operand, ast.Var):
                self._add(arg.operand.name, kind)
            elif isinstance(arg.operand, ast.Index):
                self.reads_of(arg.operand.index)
                self._add(arg.operand.base.name, kind)
        elif isinstance(arg, ast.Var):
            self._add(arg.name, AccessKind.READ)
            self._deref(arg.name, kind)
        else:
            self.reads_of(arg)
            self.wild = True

    def call(self, expr):
        name = expr.name
        if name in SYNC_BUILTINS and expr.args:
            arg = expr.args[0]
            for other in expr.args[1:]:
                self.reads_of(other)
            if isinstance(arg, ast.AddrOf):
                operand = arg.operand
                if isinstance(operand, ast.Index):
                    self.reads_of(operand.index)
                    operand = operand.base
                # machine semantics: LOCK reads the word and writes it on
                # acquire; UNLOCK only writes; cas/atomic_add read+write
                if name != "unlock":
                    self._add(operand.name, AccessKind.READ)
                self._add(operand.name, AccessKind.WRITE)
            else:
                self._copyword_arg(arg, AccessKind.WRITE)
                if name != "unlock":
                    self._copyword_arg(arg, AccessKind.READ)
        elif name == "copyword":
            self._copyword_arg(expr.args[0], AccessKind.WRITE)
            self._copyword_arg(expr.args[1], AccessKind.READ)
        elif name == "invoke":
            # an indirect call: the function-pointer word is read, and
            # the (statically unknown) callee may touch anything
            self._copyword_arg(expr.args[0], AccessKind.READ)
            self.wild = True
        elif is_builtin(name):
            for a in expr.args:
                self.reads_of(a)
        else:
            for a in expr.args:
                self.reads_of(a)
            self._fold_call(name)

    def statement(self, stmt):
        if isinstance(stmt, ast.Decl):
            if stmt.init is not None:
                self.reads_of(stmt.init)
                self._add(stmt.name, AccessKind.WRITE)
        elif isinstance(stmt, ast.Assign):
            self.reads_of(stmt.value)
            self.write_target(stmt.target)
        elif isinstance(stmt, ast.ExprStmt):
            self.reads_of(stmt.expr)
        elif isinstance(stmt, ast.Return):
            if stmt.value is not None:
                self.reads_of(stmt.value)
        elif isinstance(stmt, ast.Spawn):
            # the spawned body runs in another thread, not in this
            # window; only the argument evaluation is local work
            for a in stmt.args:
                self.reads_of(a)

    def footprint(self):
        return Footprint(self.reads, self.writes, self.wild)


#: expression positions where the Andersen-lite analysis models an
#: AddrOf: RHS of Var-assign/Decl, call/spawn arguments. An AddrOf
#: anywhere else (stored through memory, inside arithmetic) escapes the
#: model, so derefs can no longer be trusted to the points-to sets.
def address_escapes(program):
    """True if any AddrOf in ``program`` sits outside the modeled
    positions.  One walk per function body."""
    modeled = set()   # ids of expressions in modeled positions
    addr_ofs = []
    for func in program.funcs:
        for node in ast.walk(func.body):
            if isinstance(node, ast.AddrOf):
                addr_ofs.append(node)
            elif isinstance(node, ast.Assign):
                if isinstance(node.target, ast.Var):
                    modeled.add(id(node.value))
            elif isinstance(node, ast.Decl):
                if node.init is not None:
                    modeled.add(id(node.init))
            elif isinstance(node, ast.Call):
                # the collector resolves AddrOf in sync-builtin, copyword
                # and invoke arguments itself, without the points-to sets
                if (node.name in SYNC_BUILTINS
                        or node.name in ("copyword", "invoke")
                        or not is_builtin(node.name)):
                    modeled.update(id(arg) for arg in node.args)
            elif isinstance(node, ast.Spawn):
                modeled.update(id(arg) for arg in node.args)
    return any(id(node) not in modeled for node in addr_ofs)


def compute_function_footprints(program, pinfo, points_to, addr_escapes):
    """Transitive per-function footprints over the pristine bodies.

    ``addr_escapes`` is :func:`address_escapes` of ``program``.  Returns
    ``{func_name: Footprint}``.  Callee footprints fold into callers,
    callees first; recursion converges because footprints only grow and
    the domain is finite.
    """
    global_names = set(pinfo.global_sizes)

    direct = {}
    call_edges = {}
    for func in program.funcs:
        coll = _Collector(func.name, global_names,
                          points_to.get(func.name), addr_escapes,
                          func_footprints=None)
        for stmt in ast.statements(func.body):
            if isinstance(stmt, (ast.If, ast.While)):
                coll.reads_of(stmt.cond)
            else:
                coll.statement(stmt)
        direct[func.name] = coll
        call_edges[func.name] = sorted(coll.callees)

    result = {name: coll.footprint() for name, coll in direct.items()}

    def fold(name):
        fp = result[name]
        for callee in call_edges[name]:
            callee_fp = result.get(callee)
            fp = (fp.union(callee_fp) if callee_fp is not None
                  else Footprint(fp.reads, fp.writes, True))
        if (fp.reads, fp.writes, fp.wild) == (
                result[name].reads, result[name].writes, result[name].wild):
            return False
        result[name] = fp
        return True

    solve_call_graph(sorted(result), call_edges, fold)
    return result


def compute_ar_footprints(pinfo, ar_table, prune, points_to,
                          func_footprints, addr_escapes):
    """Per-AR span footprints.

    ``prune`` is the :class:`~repro.analysis.prune.PruneResult` of the
    same program, whose verdicts carry each AR's span over the
    *pristine* (pre-annotation) CFG; ``func_footprints`` and
    ``addr_escapes`` are what :func:`compute_function_footprints` and
    :func:`address_escapes` gave for the same program.  Returns
    ``{ar_id: Footprint}``.

    An AR whose span cannot be reconstructed (begin or end statement
    missing from the CFG) is conservatively wild.
    """
    global_names = set(pinfo.global_sizes)
    footprints = {}
    for ar_id in sorted(ar_table):
        info = ar_table[ar_id]
        span = prune.verdicts[ar_id].span
        if span is None:
            footprints[ar_id] = WILD
            continue
        coll = _Collector(info.func, global_names,
                          points_to.get(info.func), addr_escapes,
                          func_footprints=func_footprints)
        for node in span:
            if node.kind == "stmt":
                coll.statement(node.stmt)
            elif node.kind == "cond":
                coll.reads_of(node.expr)
        # the AR's own variable is always in the footprint: the begin
        # site's first access may precede the span's first node
        base = _base_name(info.var)
        if base.startswith("*"):
            coll._add(base.lstrip("*"), AccessKind.READ)
            coll._deref(base.lstrip("*"), info.first_kind)
        else:
            coll._add(base, info.first_kind)
        footprints[ar_id] = coll.footprint()
    return footprints


__all__ = ["Footprint", "WILD", "address_escapes", "compute_ar_footprints",
           "compute_function_footprints"]
