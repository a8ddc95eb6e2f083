"""Per-subroutine control-flow graph construction.

Nodes are simple statements plus condition pseudo-nodes for ``if`` and
``while``. The annotator runs on normalized ASTs (see
:mod:`repro.analysis.normalize`) where conditions are access-free, but the
CFG handles general conditions so it is independently reusable.
"""

from repro.minic import ast


class CFGNode:
    """One CFG node.

    ``kind`` is 'entry', 'exit', 'stmt' or 'cond'. ``stmt`` is the AST
    statement for 'stmt' nodes; ``expr`` the condition for 'cond' nodes.
    """

    __slots__ = ("nid", "kind", "stmt", "expr", "succs", "preds")

    def __init__(self, nid, kind, stmt=None, expr=None):
        self.nid = nid
        self.kind = kind
        self.stmt = stmt
        self.expr = expr
        self.succs = []
        self.preds = []

    def __repr__(self):
        return "CFGNode(%d, %s)" % (self.nid, self.kind)


class CFG:
    """Control-flow graph of one function."""

    def __init__(self, func_name):
        self.func_name = func_name
        self.nodes = []
        self.entry = self._new("entry")
        self.exit = self._new("exit")
        self._order = None

    def _new(self, kind, stmt=None, expr=None):
        node = CFGNode(len(self.nodes), kind, stmt, expr)
        self.nodes.append(node)
        return node

    def add_edge(self, src, dst):
        if dst not in src.succs:
            src.succs.append(dst)
            dst.preds.append(src)

    def stmt_nodes(self):
        return [n for n in self.nodes if n.kind == "stmt"]

    def solve_order(self):
        """``(nodes, rank)`` for :func:`repro.analysis.dataflow.solve_cfg`:
        every node but the entry, those reachable from it in reverse
        postorder and then the rest in node order, and the ``node ->
        position`` map.  Computed once, after the graph is built."""
        if self._order is None:
            seen = {self.entry.nid}
            post = []
            stack = [(self.entry, iter(self.entry.succs))]
            while stack:
                node, succs = stack[-1]
                for succ in succs:
                    if succ.nid not in seen:
                        seen.add(succ.nid)
                        stack.append((succ, iter(succ.succs)))
                        break
                else:
                    stack.pop()
                    post.append(node)
            order = post[-2::-1]      # reversed, without the entry
            order.extend(n for n in self.nodes if n.nid not in seen)
            self._order = order, {n: i for i, n in enumerate(order)}
        return self._order


def build_cfg(func):
    """Build the CFG of a FuncDef."""
    cfg = CFG(func.name)
    builder = _Builder(cfg)
    tails = builder.build_block(func.body, [cfg.entry])
    for node in tails:
        cfg.add_edge(node, cfg.exit)
    return cfg


class _Builder:
    def __init__(self, cfg):
        self.cfg = cfg
        # stack of (break_sources, continue_target_node-or-None placeholder)
        self.loops = []

    def _link(self, sources, node):
        for src in sources:
            self.cfg.add_edge(src, node)

    def build_block(self, block, sources):
        """Wire ``block`` after ``sources``; returns the fall-through tail
        nodes (empty if all paths returned/broke)."""
        current = sources
        for stmt in block.stmts:
            current = self.build_stmt(stmt, current)
            if not current:
                # unreachable code after return/break/continue still gets
                # nodes (it exists in the binary) but no incoming edges
                current = []
        return current

    def build_stmt(self, stmt, sources):
        cfg = self.cfg
        if isinstance(stmt, ast.Block):
            return self.build_block(stmt, sources)
        if isinstance(stmt, ast.If):
            cond = cfg._new("cond", stmt=stmt, expr=stmt.cond)
            self._link(sources, cond)
            then_tails = self.build_stmt(stmt.then, [cond])
            if stmt.els is not None:
                else_tails = self.build_stmt(stmt.els, [cond])
            else:
                else_tails = [cond]
            return then_tails + else_tails
        if isinstance(stmt, ast.While):
            cond = cfg._new("cond", stmt=stmt, expr=stmt.cond)
            self._link(sources, cond)
            breaks = []
            self.loops.append((breaks, cond))
            body_tails = self.build_stmt(stmt.body, [cond])
            self.loops.pop()
            self._link(body_tails, cond)  # back edge
            exits = breaks
            if not isinstance(stmt.cond, ast.IntLit) or stmt.cond.value == 0:
                exits = exits + [cond]  # cond can fall through when false
            return exits
        if isinstance(stmt, ast.Break):
            node = cfg._new("stmt", stmt=stmt)
            self._link(sources, node)
            if self.loops:
                self.loops[-1][0].append(node)
            return []
        if isinstance(stmt, ast.Continue):
            node = cfg._new("stmt", stmt=stmt)
            self._link(sources, node)
            if self.loops:
                cfg.add_edge(node, self.loops[-1][1])
            return []
        if isinstance(stmt, ast.Return):
            node = cfg._new("stmt", stmt=stmt)
            self._link(sources, node)
            cfg.add_edge(node, cfg.exit)
            return []
        # simple statement
        node = cfg._new("stmt", stmt=stmt)
        self._link(sources, node)
        return [node]
