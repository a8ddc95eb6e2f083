"""One worklist solver for every fixpoint of the static annotator.

The paper's annotator is a path-insensitive dataflow pass per CFG
(Section 3.1); the lock, summary and points-to analyses around it are
fixpoints of the same kind.  All run on :func:`worklist`, two through
a driver:

- :func:`solve_cfg` — a forward dataflow over one function's CFG,
  visiting nodes in reverse postorder (:meth:`CFG.solve_order`);
- :func:`solve_call_graph` — a per-function equation system over the
  call graph, one strongly connected component at a time: callees first
  for summaries, callers first for entry contexts.  On an acyclic call
  graph every function is visited once.

A monotone system has one least (or greatest) fixpoint whatever the
visiting order, so the order only decides how much work is done; it
comes from lists (program or CFG node order), never from set order.
"""

from heapq import heappop, heappush


def worklist(items, update, dependents, rank=None):
    """Visit every item, lowest list position first, until stable.

    ``update(item)`` recomputes one item's fact and returns True when it
    changed; the item's ``dependents(item)`` that appear in ``items``
    are then visited again.  Items outside ``items`` are ignored.
    ``rank`` may supply the ``item -> position`` map.
    """
    if rank is None:
        rank = {item: i for i, item in enumerate(items)}
    queue = list(range(len(items)))       # sorted, hence a heap
    queued = [True] * len(items)
    while queue:
        i = heappop(queue)
        queued[i] = False
        item = items[i]
        if update(item):
            for dep in dependents(item):
                j = rank.get(dep)
                if j is not None and not queued[j]:
                    queued[j] = True
                    heappush(queue, j)


def solve_cfg(cfg, transfer, meet, entry_state, bottom, optimistic=False):
    """Forward dataflow over ``cfg``; returns ``(ins, outs)`` by nid.

    ``transfer(node, in_state)`` gives a node's out-state and
    ``meet(states)`` joins a non-empty list of predecessor out-states.
    The entry node's in- and out-state are ``entry_state``.

    A *may* analysis (``optimistic=False``) starts every node at
    ``bottom`` and visits all of them, unreachable ones included.  A
    *must* analysis (``optimistic=True``) counts a predecessor not yet
    reached as the top element: a node's in-state meets only the
    reached ones, and a node never reached keeps no out-state and gets
    ``bottom`` as its in-state.
    """
    entry = cfg.entry
    outs = {entry.nid: entry_state}
    ins = {n.nid: bottom for n in cfg.nodes}
    ins[entry.nid] = entry_state
    if not optimistic:
        for node in cfg.nodes:
            if node is not entry:
                outs[node.nid] = bottom

    def update(node):
        pred_outs = [outs[p.nid] for p in node.preds if p.nid in outs]
        if pred_outs:
            in_ = meet(pred_outs)
        elif optimistic:
            return False
        else:
            in_ = bottom
        ins[node.nid] = in_
        out = transfer(node, in_)
        if node.nid in outs and outs[node.nid] == out:
            return False
        outs[node.nid] = out
        return True

    order, rank = cfg.solve_order()
    worklist(order, update, lambda node: node.succs, rank)
    return ins, outs


def strongly_connected(names, edges):
    """Strongly connected components of ``name -> edges[name]`` (Tarjan,
    iterative), sinks first: callees come before their callers."""
    index, low, stack, out = {}, {}, [], []
    for root in names:
        if root in index:
            continue
        index[root] = low[root] = len(index)
        stack.append(root)
        work = [(root, iter(edges[root]))]
        while work:
            name, succs = work[-1]
            for succ in succs:
                if succ not in index:
                    index[succ] = low[succ] = len(index)
                    stack.append(succ)
                    work.append((succ, iter(edges[succ])))
                    break
                if succ in low:
                    low[name] = min(low[name], index[succ])
            else:
                work.pop()
                if work:
                    parent = work[-1][0]
                    low[parent] = min(low[parent], low[name])
                if low[name] == index[name]:
                    at = stack.index(name)
                    out.append(stack[at:])
                    for member in stack[at:]:
                        del low[member]     # off the stack
                    del stack[at:]
    return out


def solve_call_graph(names, callees, update, callers_first=False):
    """Solve a per-function system over the call graph.

    ``callees[name]`` lists the functions ``name`` calls (other names
    are ignored); ``update(name)`` recomputes one function from its
    neighbours' current facts and returns True when it changed.
    Components are solved callees first (summaries: a function reads its
    callees) or, with ``callers_first``, callers first (entry contexts:
    a function reads its callers); a recursive component is revisited
    until none of its members changes.  A changed function's readers in
    later components are still queued, so each of those runs once.
    """
    edges = {name: [c for c in callees.get(name, ()) if c in callees]
             for name in names}
    order = [name for component in strongly_connected(names, edges)
             for name in component]
    if callers_first:
        order.reverse()
        readers = edges
    else:
        readers = {name: [] for name in names}
        for name in names:
            for callee in edges[name]:
                readers[callee].append(name)
    worklist(order, update, readers.__getitem__)
