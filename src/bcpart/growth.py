"""Bi-connected subgraph growth by ear extension over an adapted BFS.

A subgraph S is grown from a root r.  The BFS tree tracks, per node u, the
nearest tree ancestor already inside S (ear_root) and the number of tree
steps to it (dist).  A non-tree edge (u, v) whose endpoints hang under
different ear roots closes an open ear: the path ear_root(u)..u, the edge
(u, v), and the path v..ear_root(v).  Adding the ear keeps S bi-connected;
dist gives an upper bound on how many nodes an ear through u would add, so
capacity can be checked before the ear is built.

The very first ear is special: while S == {r} every neighbor of r is its
own ear root, and a non-tree edge between two different branches closes a
cycle through r.

grow alone decides an ear: ears are tested inline, one RNG draw follows
each valid ear, and only an accepted ear is walked (try_make_ear) and folded
in (update_add_ear).  One grow call adds ears up to a node count, so a
construction burst is one call.  Sibling claims are pruned in batches, in
claim order.  ear_root and parent mean something only where dist is finite;
an S node is at dist 0 and its own ear root.  Queues are FIFO and scans
follow adjacency order, so runs are reproducible given the caller's RNG.
A retired state restarts over the same graph in the nodes its tree reached,
not in the O(n) it costs to build and free a state's node-indexed arrays.
"""

from __future__ import annotations

from collections import deque

from .graph import Graph

INF = 1 << 30


class GrowthState:
    """Mutable per-subgraph growth state over a shared graph.

    Node-indexed arrays; `children` holds only nodes that currently have
    tree children (insertion-ordered lists, so traversals stay
    deterministic).  `owner`, shared by the states growing together, maps
    each node to the label of the subgraph holding it (-1 = free): this
    state may use u iff owner[u] in (-1, label); u is in S iff owner[u] ==
    label.  `touched` lists every node the tree ever reached, the only
    entries of the arrays a growth writes, so a reuse resets just those.
    """

    __slots__ = ("graph", "root", "label", "capacity", "accept_prob", "parent", "children",
                 "ear_root", "dist", "evaluate", "owner", "queue", "members", "touched")

    def __init__(self, graph: Graph):
        self.graph = graph
        n = graph.node_count
        self.parent = [-1] * n
        self.ear_root = [-1] * n
        self.dist = [INF] * n
        self.evaluate = bytearray([1]) * n
        self.touched: list[int] = []


def init_growth(g: Graph, root: int, capacity: int, accept_prob: float,
                owner: list[int] | None = None, spare: list | None = None) -> GrowthState:
    """Start a growth around `root`: S = {root}, every free neighbor
    becomes its own ear root at dist 0 and is queued in adjacency order.

    `owner` is the shared node -> label list (-1 = free); the state's label
    is owner[root], which must already be set.  Without it the state grows
    alone: every node is free and the root gets label 0.  A state popped
    from `spare`, a list of retired states over g, is reset on its touched
    nodes to equal a fresh one; one over another graph raises ValueError.
    """
    if not (0 <= root < g.node_count):
        raise ValueError(f"root {root} out of range")
    if capacity < 1:
        raise ValueError("capacity must be >= 1")
    if not (0.0 <= accept_prob <= 1.0):
        raise ValueError("accept_prob must be in [0, 1]")
    if owner is None:
        owner = [-1] * g.node_count
        owner[root] = 0
    if owner[root] == -1:
        raise ValueError(f"root {root} carries no label")
    st = spare.pop() if spare else GrowthState(g)
    if st.graph is not g:
        raise ValueError("spare state was grown over another graph")
    parent, ear_root, dist, evaluate = st.parent, st.ear_root, st.dist, st.evaluate
    for u in st.touched:
        parent[u] = ear_root[u] = -1
        dist[u] = INF
        evaluate[u] = 1
    st.root, st.label, st.capacity, st.accept_prob = root, owner[root], capacity, accept_prob
    st.owner, st.children, st.queue, st.members = owner, {}, deque(), [root]
    dist[root] = 0
    ear_root[root] = root
    free = (-1, st.label)
    kids = [u for u in g.adjacency[root] if owner[u] in free]
    for u in kids:
        dist[u] = 0
        ear_root[u] = u
        parent[u] = root
    st.touched = [root, *kids]
    st.queue.extend(kids)
    if kids:
        st.children[root] = kids
    return st


def try_make_ear(st: GrowthState, u: int, v: int) -> list[int]:
    """The node sequence ear_root(u)..u, v..ear_root(v) of the ear that
    grow accepted on the non-tree edge (u, v), walked up the parent links;
    the first ear is led by the root unless it already ends it.  Tests
    nothing: grow has already checked the ear."""
    ear_root, parent = st.ear_root, st.parent
    ru, rv = ear_root[u], ear_root[v]
    seq = [u]
    while u != ru:
        u = parent[u]
        seq.append(u)
    seq.reverse()
    if len(st.members) == 1 and rv != st.root:
        seq.insert(0, st.root)
    seq.append(v)
    while v != rv:
        v = parent[v]
        seq.append(v)
    return seq


def update_add_ear(st: GrowthState, seq: list[int]) -> int:
    """Fold an accepted ear's node sequence into the BFS tree; returns the
    number of nodes it added to S.

    Ear nodes become S members (owner = this state's label, new ones
    appended to `members` in sequence order) at dist 0 rooted at
    themselves.  Tree descendants hanging below them (stopping at other S
    nodes) are re-rooted onto their nearest ear ancestor, get dist = steps
    to it, are flagged for re-evaluation and re-enqueued.  Enqueue order is
    ear sequence first, then descendants level by level, so shorter new
    ears are found first.
    """
    owner, label, members = st.owner, st.label, st.members
    dist, ear_root, evaluate, children = st.dist, st.ear_root, st.evaluate, st.children
    start = len(members)
    for x in seq:
        dist[x] = 0
        ear_root[x] = x
        if owner[x] != label:
            owner[x] = label
            members.append(x)
    st.queue.extend(seq)
    level = seq
    while level:
        nxt = []
        for x in level:
            for c in children.get(x, ()):
                if owner[c] != label:
                    ear_root[c] = ear_root[x]
                    dist[c] = dist[x] + 1
                    evaluate[c] = 1
                    nxt.append(c)
        st.queue.extend(nxt)
        level = nxt
    return len(members) - start


def update_bfs_tree_delete(st: GrowthState, removed) -> None:
    """Prune a batch of nodes claimed by other subgraphs, in claim order.

    The claims are already in `owner`; nodes this tree never reached are
    skipped.  For each claimed node in the tree, the ancestors on its path
    to its ear root are re-flagged for evaluation (their previously
    same-rooted back edges may now close valid ears) and re-enqueued once;
    its whole subtree is detached and forgotten (dist = INF,
    re-discoverable later through fresh tree extension).  One call on a
    batch equals one call per node in the same order.
    """
    parent = st.parent
    children = st.children
    dist = st.dist
    evaluate = st.evaluate
    queue = st.queue
    for u in removed:
        if dist[u] == INF:
            continue
        # wake the ancestor chain up to and including the ear root
        steps = dist[u]
        a = parent[u]
        for _ in range(steps):
            if not evaluate[a]:
                evaluate[a] = 1
                queue.append(a)
            a = parent[a]
        # detach u
        p = parent[u]
        if p != -1:
            children[p].remove(u)
        parent[u] = -1
        dist[u] = INF
        evaluate[u] = 0
        # drop the subtree below u
        stack = children.pop(u, [])
        while stack:
            v = stack.pop()
            stack.extend(children.pop(v, ()))
            parent[v] = -1
            dist[v] = INF
            evaluate[v] = 1


def grow(st: GrowthState, rng, limit: int = 1) -> int:
    """Extend S ear by ear until at least `limit` nodes were added; returns
    the number added, less than `limit` only once no ear fits.

    A dequeued node is scanned only when flagged for evaluation and when
    its dist fits the remaining capacity.  A scan extends the tree to
    unvisited free neighbors and tests the other edges as ears, inline:
    different ear roots, room for every node the ear adds (walk nodes plus
    any endpoint anchor not yet in S, which only happens before the first
    ear), no dangling anchor and at least one node added.  Each valid ear
    is accepted with probability accept_prob (one RNG draw), then built
    and folded in.  That ends the scan, whose node the fold re-enqueued
    with its evaluate flag kept.  So a call with limit L makes the draws and leaves the state of
    single-ear calls until L nodes were added or one adds nothing.
    """
    adj = st.graph.adjacency
    parent, children, dist, ear_root = st.parent, st.children, st.dist, st.ear_root
    evaluate, owner, label = st.evaluate, st.owner, st.label
    queue, reached = st.queue, st.touched.append
    popleft, push, draw = queue.popleft, queue.append, rng.random
    accept_prob = st.accept_prob
    size = len(st.members)
    room = st.capacity - size
    grown = 0
    while queue and room > 0:
        cur = popleft()
        if not evaluate[cur]:
            continue
        oc, d = owner[cur], dist[cur]
        if d > room:
            # too deep to seed an ear under current capacity; a future
            # re-root would re-enqueue it with a smaller dist
            continue
        cur_kids = None
        if oc == label:
            # cur is its own ear root at dist 0 with no parent outside S, so
            # an edge into S or another subgraph is skipped before any test
            for w in adj[cur]:
                if owner[w] != -1 or parent[w] == cur:
                    continue
                if (dw := dist[w]) == INF:
                    parent[w] = cur
                    if cur_kids is None:
                        cur_kids = children.setdefault(cur, [])
                    cur_kids.append(w)
                    ear_root[w] = cur
                    dist[w] = 1
                    evaluate[w] = 1
                    push(w)
                    reached(w)
                    continue
                rw = ear_root[w]
                if rw == cur:
                    continue
                rw_in = owner[rw] == label
                if not (rw_in or size == 1):
                    continue        # dangling pre-cycle anchor
                added = dw + (not rw_in)
                if 0 < added <= room and draw() <= accept_prob:
                    break
            else:
                evaluate[cur] = 0
                continue
        elif oc == -1:
            # fixed for the whole scan, which only extends the tree below cur
            pc, rc = parent[cur], ear_root[cur]
            rc_in = owner[rc] == label
            anchored = size == 1 or rc_in   # else ears into S cannot attach
            for w in adj[cur]:
                ow = owner[w]
                if ow == -1:
                    # pc and cur's children, if free, hang under rc as well
                    if (dw := dist[w]) == INF:
                        parent[w] = cur
                        if cur_kids is None:
                            cur_kids = children.setdefault(cur, [])
                        cur_kids.append(w)
                        ear_root[w] = rc
                        dist[w] = d + 1
                        evaluate[w] = 1
                        push(w)
                        reached(w)
                        continue
                    rw = ear_root[w]
                    if rw == rc:
                        continue
                    rw_in = owner[rw] == label
                    if not (size == 1 or (rc_in and rw_in)):
                        continue    # dangling pre-cycle anchor
                    added = d + dw + (not rc_in) + (not rw_in)
                elif ow == label and w != pc and w != rc and anchored:
                    # an S node is at dist 0, its own ear root and never
                    # the child of a node outside S
                    added = d + (not rc_in)
                else:
                    continue
                if 0 < added <= room and draw() <= accept_prob:
                    break
            else:
                evaluate[cur] = 0
                continue
        else:
            continue
        added = update_add_ear(st, try_make_ear(st, cur, w))
        grown += added
        size += added
        room -= added
        if grown >= limit:
            break
    return grown
