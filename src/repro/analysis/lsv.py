"""List of shared variables (LSV) construction (Section 3.1).

Per subroutine, the LSV is seeded with:

- every global variable,
- every argument passed in by reference (pointer parameters),
- every variable assigned the result of a subroutine call (the paper's
  "pointers returned from a called subroutine" — conservatively, any call
  result, matching the prototype's imprecision),
- every variable whose address is taken (it escapes and may be shared).

A data-flow closure then adds any variable data-flow dependent on an LSV
member. Pointer dereferences ``*p`` with ``p`` in the LSV contribute a
pseudo-variable named ``"*p"`` so that accesses through the same pointer
name pair with each other — exactly the paper's name-based matching
limitation (Section 3.5).

Variables in the LSV that are not truly shared cost monitoring overhead
but can never produce a violation; annotator-generated condition temps
(``__c*``) are excluded because the annotator itself created them and
knows they never escape.
"""

from repro.minic import ast
from repro.minic.builtins import POINTER_RETURNING, SYNC_BUILTINS
from repro.analysis.dataflow import worklist
from repro.analysis.normalize import TEMP_PREFIX


class LSVResult:
    """LSV of one function, plus the names whose address it takes."""

    __slots__ = ("func_name", "shared", "sync_vars", "addr_taken")

    def __init__(self, func_name, shared, sync_vars, addr_taken):
        self.func_name = func_name
        self.shared = frozenset(shared)
        self.sync_vars = frozenset(sync_vars)
        self.addr_taken = frozenset(addr_taken)


def _expr_var_names(expr, out):
    """Collect variable names read by ``expr`` (including deref pseudo
    names)."""
    if isinstance(expr, ast.Var):
        out.add(expr.name)
    elif isinstance(expr, ast.Deref):
        if isinstance(expr.operand, ast.Var):
            out.add(expr.operand.name)
            out.add("*" + expr.operand.name)
        else:
            _expr_var_names(expr.operand, out)
    elif isinstance(expr, ast.AddrOf):
        # taking an address is not a read of the variable's value, but the
        # underlying name is data-flow relevant (p = &shared makes p shared)
        if isinstance(expr.operand, ast.Var):
            out.add(expr.operand.name)
        elif isinstance(expr.operand, ast.Index):
            out.add(expr.operand.base.name)
            _expr_var_names(expr.operand.index, out)
    elif isinstance(expr, ast.Index):
        out.add(expr.base.name)
        _expr_var_names(expr.index, out)
    elif isinstance(expr, (ast.Unary,)):
        _expr_var_names(expr.operand, out)
    elif isinstance(expr, ast.Binary):
        _expr_var_names(expr.left, out)
        _expr_var_names(expr.right, out)
    elif isinstance(expr, ast.Call):
        for a in expr.args:
            _expr_var_names(a, out)


def compute_lsv(func, pinfo):
    """Compute the LSV for ``func``. ``pinfo`` is the checked ProgramInfo."""
    shared = set()
    sync_vars = set()

    # seed: globals
    shared.update(pinfo.global_sizes.keys())
    # seed: by-reference parameters (and everything reachable through them)
    for pname, is_ptr in func.params:
        if is_ptr:
            shared.add(pname)
            shared.add("*" + pname)

    assigns = []  # (target_name or None, rhs expr)
    addr_taken = set()
    deref_names = set()

    # the walk is pre-order, so ``assigns`` is in statement order
    for node in ast.walk(func.body):
        if isinstance(node, ast.Decl):
            if node.init is not None:
                assigns.append((node.name, node.init))
        elif isinstance(node, ast.Assign):
            if isinstance(node.target, ast.Var):
                assigns.append((node.target.name, node.value))
            else:
                assigns.append((None, node.value))
        elif isinstance(node, ast.AddrOf):
            if isinstance(node.operand, ast.Var):
                addr_taken.add(node.operand.name)
            elif isinstance(node.operand, ast.Index):
                addr_taken.add(node.operand.base.name)
        elif isinstance(node, ast.Deref):
            if isinstance(node.operand, ast.Var):
                deref_names.add(node.operand.name)
        elif isinstance(node, ast.Call):
            # call results are conservatively shared
            if node.name in SYNC_BUILTINS and node.args:
                arg = node.args[0]
                if isinstance(arg, ast.AddrOf) and isinstance(
                        arg.operand, ast.Var):
                    sync_vars.add(arg.operand.name)

    # seed: address-taken locals escape
    shared.update(addr_taken)

    # seed: variables assigned a *pointer* returned from a called
    # subroutine (the paper's rule is type-based: only pointer returns
    # seed the LSV; integer-returning calls do not)
    for target, rhs in assigns:
        if target is None:
            continue
        if isinstance(rhs, ast.Call) and rhs.name in POINTER_RETURNING:
            shared.add(target)

    # closure: data-flow dependence — a target becomes shared once any
    # name its right-hand side reads is shared
    reads_of = {}
    readers = {}
    for target, rhs in assigns:
        if target is None:
            continue
        names = set()
        _expr_var_names(rhs, names)
        reads_of.setdefault(target, set()).update(names)
        for name in sorted(names):
            readers.setdefault(name, []).append(target)

    def close(target):
        if target in shared or shared.isdisjoint(reads_of[target]):
            return False
        shared.add(target)
        return True

    worklist(list(reads_of), close, lambda name: readers.get(name, ()))

    # add deref pseudo-vars for shared pointers that are dereferenced
    for name in deref_names:
        if name in shared:
            shared.add("*" + name)

    # drop annotator temps
    shared = {n for n in shared if not n.lstrip("*").startswith(TEMP_PREFIX)}

    return LSVResult(func.name, shared, sync_vars, addr_taken)
