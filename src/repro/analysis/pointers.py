"""Flow-insensitive points-to analysis (Section 3.5 future work).

"In addition, pointer analysis could be used to better identify shared
variables. ... Pointer analysis will allow us to also identify ARs
involving local accesses to the same shared variable that occur due to an
alias, as well as produce finer-grain labelling of shared elements in
arrays."

This is an Andersen-style, context- and flow-insensitive analysis over
mini-C's simple pointer vocabulary:

- ``p = &x`` / ``p = &a[i]``  ->  x (or a) ∈ pts(p)
- ``p = q``                    ->  pts(q) ⊆ pts(p)
- ``p = alloc(n)``             ->  a fresh heap object ∈ pts(p)
- pointer parameters           ->  pts of every actual at every call site

The annotator consumes the result two ways (``pointer_analysis=True``):

1. **Alias resolution**: a dereference ``*p`` whose points-to set is a
   single named variable is treated as an access to that variable, so it
   pairs with direct accesses to the same name (the paper's example of
   ARs missed "due to an alias").
2. **Element granularity**: array accesses with constant indices are
   tracked as ``a[k]`` pseudo-variables instead of whole-array ``a``,
   producing finer-grain labelling (and per-element watchpoints).
"""

from repro.minic import ast
from repro.minic.builtins import is_builtin
from repro.analysis.dataflow import worklist


class PointsTo:
    """Result of the analysis: variable name -> frozenset of target names.

    Targets are global/local variable names, array names, or synthetic
    ``heap@N`` objects for allocation sites.
    """

    def __init__(self, sets):
        self.sets = {name: frozenset(targets)
                     for name, targets in sets.items()}

    def targets(self, name):
        return self.sets.get(name, frozenset())

    def resolve_deref(self, pointer_name):
        """If ``*pointer_name`` definitely refers to one named variable,
        return that name; otherwise None (unknown or ambiguous)."""
        targets = self.targets(pointer_name)
        if len(targets) == 1:
            target = next(iter(targets))
            if not target.startswith("heap@"):
                return target
        return None

    def __repr__(self):
        return "PointsTo(%s)" % {k: sorted(v) for k, v in self.sets.items()}


def _qualify(func_name, name, globals_):
    """Variables are per-function except globals."""
    if name in globals_:
        return name
    return "%s::%s" % (func_name, name)


def compute_points_to(program, pinfo):
    """Whole-program Andersen-lite fixpoint.

    Returns {func_name: PointsTo} where each PointsTo maps the function's
    *local* names (plus globals) to target variable names as visible in
    that function (globals unqualified, locals only of that function).
    """
    globals_ = set(pinfo.global_sizes)
    points = {}      # qualified name -> set of qualified targets
    copies = []      # (dst qualified, src qualified)
    heap_counter = [0]

    def pts(name):
        return points.setdefault(name, set())

    def add_addr(func, target_expr, dst):
        if isinstance(target_expr, ast.Var):
            pts(dst).add(_qualify(func, target_expr.name, globals_))
        elif isinstance(target_expr, ast.Index):
            pts(dst).add(_qualify(func, target_expr.base.name, globals_))

    def handle_assign(func, target, value):
        if not isinstance(target, ast.Var):
            return
        dst = _qualify(func, target.name, globals_)
        if isinstance(value, ast.AddrOf):
            add_addr(func, value.operand, dst)
        elif isinstance(value, ast.Var):
            copies.append((dst, _qualify(func, value.name, globals_)))
        elif isinstance(value, ast.Call) and value.name == "alloc":
            heap_counter[0] += 1
            pts(dst).add("heap@%d" % heap_counter[0])

    def bind_args(func, callee, args):
        try:
            params = program.func(callee).params
        except KeyError:
            return
        for (pname, _), arg in zip(params, args):
            dst = _qualify(callee, pname, globals_)
            if isinstance(arg, ast.AddrOf):
                add_addr(func, arg.operand, dst)
            elif isinstance(arg, ast.Var):
                copies.append((dst, _qualify(func, arg.name, globals_)))

    # collect base facts + call-site parameter bindings; the walk is
    # pre-order, so allocation sites are numbered in statement order
    for func in program.funcs:
        for node in ast.walk(func.body):
            if isinstance(node, ast.Assign):
                handle_assign(func.name, node.target, node.value)
            elif isinstance(node, ast.Decl):
                if node.init is not None:
                    handle_assign(func.name, ast.Var(node.name), node.init)
            elif isinstance(node, ast.Call):
                if not is_builtin(node.name):
                    bind_args(func.name, node.name, node.args)
            elif isinstance(node, ast.Spawn):
                bind_args(func.name, node.func, node.args)

    # propagate copies to fixpoint: each destination takes the union of
    # its sources, in first-copy order
    sources = {}
    readers = {}
    for dst, src in copies:
        sources.setdefault(dst, []).append(src)
        readers.setdefault(src, []).append(dst)

    def absorb(dst):
        dst_set = points.get(dst)
        before = len(dst_set) if dst_set is not None else 0
        for src in sources[dst]:
            src_set = points.get(src)
            if src_set:
                dst_set = pts(dst)
                dst_set |= src_set
        return dst_set is not None and len(dst_set) != before

    worklist(list(sources), absorb, lambda name: readers.get(name, ()))

    # project per function
    result = {}
    for func in program.funcs:
        prefix = func.name + "::"
        local_view = {}
        for name, targets in points.items():
            if name.startswith(prefix):
                short = name[len(prefix):]
            elif "::" not in name:
                short = name
            else:
                continue
            visible = set()
            for target in targets:
                if target.startswith(prefix):
                    visible.add(target[len(prefix):])
                elif "::" not in target:
                    visible.add(target)
                else:
                    # a target local to another function is opaque here
                    visible.add("heap@foreign")
            local_view[short] = visible
        result[func.name] = PointsTo(local_view)
    return result
