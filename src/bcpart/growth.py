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

grow tests, draws, then builds: ears are tested inline, one RNG draw follows
each valid ear, and only an accepted ear is built and folded in.  Sibling
claims are pruned in batches, in claim order.  ear_root and parent mean
something only where dist is finite.  All queue handling is FIFO and all
neighbor scans follow adjacency order, so runs are reproducible given the
caller's RNG.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from .graph import Graph

INF = 1 << 30


@dataclass
class Ear:
    """An accepted ear: node sequence endpoint..endpoint, plus the subset
    of sequence nodes that are new to S (in sequence order).  `cycle` marks
    the initial ear, which closes into a cycle through the root."""

    sequence: list[int]
    added: list[int]
    cycle: bool = False


class GrowthState:
    """Mutable per-subgraph growth state over a shared graph.

    Node-indexed arrays; `children` holds only nodes that currently have
    tree children (insertion-ordered lists, so traversals stay
    deterministic).  `owner`, shared by the states growing together, maps
    each node to the label of the subgraph holding it (-1 = free): this
    state may use u iff owner[u] in (-1, label); u is in S iff owner[u] ==
    label.
    """

    __slots__ = (
        "graph", "root", "label", "capacity", "accept_prob",
        "parent", "children", "ear_root", "dist",
        "evaluate", "owner",
        "queue", "members", "last_ear",
    )

    def __init__(self, graph: Graph, root: int, capacity: int, accept_prob: float,
                 owner: list[int]):
        self.graph = graph
        self.root = root
        self.label = owner[root]
        self.capacity = capacity
        self.accept_prob = accept_prob
        n = graph.node_count
        self.parent = [-1] * n
        self.children: dict[int, list[int]] = {}
        self.ear_root = [-1] * n
        self.dist = [INF] * n
        self.evaluate = bytearray([1]) * n
        self.owner = owner
        self.queue: deque[int] = deque()
        self.members: list[int] = [root]
        self.last_ear: Ear | None = None


def init_growth(g: Graph, root: int, capacity: int, accept_prob: float,
                owner: list[int] | None = None) -> GrowthState:
    """Start a growth around `root`: S = {root}, every free neighbor
    becomes its own ear root at dist 0 and is queued in adjacency order.

    `owner` is the shared node -> label list (-1 = free); the state's label
    is owner[root], which must already be set.  Without it the state grows
    alone: every node is free and the root gets label 0.
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
    st = GrowthState(g, root, capacity, accept_prob, owner)
    st.dist[root] = 0
    st.ear_root[root] = root
    free = (-1, st.label)
    kids = [u for u in g.adjacency[root] if owner[u] in free]
    for u in kids:
        st.dist[u] = 0
        st.ear_root[u] = u
        st.parent[u] = root
    st.queue.extend(kids)
    if kids:
        st.children[root] = kids
    return st


def _walk_up(st: GrowthState, u: int) -> list[int]:
    """Tree path [u, parent(u), ..., ear_root(u)] following parent links."""
    path = [u]
    target = st.ear_root[u]
    cur = u
    while cur != target:
        cur = st.parent[cur]
        path.append(cur)
    return path


def try_make_ear(st: GrowthState, u: int, v: int) -> Ear | None:
    """Validate the non-tree edge (u, v) as an ear and build it.

    Requires different ear roots and enough remaining capacity for every
    node the ear would add (walk nodes plus any endpoint anchor not yet in
    S, which only happens before the first ear).  Ears that would add
    nothing are rejected.
    """
    ru = st.ear_root[u]
    rv = st.ear_root[v]
    if ru == rv:
        return None
    ru_in = st.owner[ru] == st.label
    rv_in = st.owner[rv] == st.label
    added_count = st.dist[u] + st.dist[v]
    if not ru_in:
        added_count += 1
    if not rv_in:
        added_count += 1
    if added_count == 0:
        return None
    size = len(st.members)
    if size + added_count > st.capacity:
        return None
    initial = size == 1
    if not initial and not (ru_in and rv_in):
        # dangling pre-cycle anchor; cannot attach to S
        return None
    left = _walk_up(st, u)
    right = _walk_up(st, v)
    seq = left[::-1] + right
    if initial and rv != st.root:
        seq = [st.root] + seq
    owner, label = st.owner, st.label
    added = [x for x in seq if owner[x] != label]
    return Ear(sequence=seq, added=added, cycle=initial)


def update_add_ear(st: GrowthState, ear: Ear) -> None:
    """Fold an accepted ear into the BFS tree.

    Ear nodes become S members (owner = this state's label) at dist 0
    rooted at themselves.  Tree descendants hanging below them (stopping at
    other S nodes) are re-rooted onto their nearest ear ancestor, get dist =
    steps to it, are flagged for re-evaluation and re-enqueued.  Enqueue
    order is ear sequence first, then descendants level by level, so shorter
    new ears are found first.
    """
    owner = st.owner
    label = st.label
    dist = st.dist
    ear_root = st.ear_root
    evaluate = st.evaluate
    children = st.children
    members = st.members
    for x in ear.sequence:
        dist[x] = 0
        ear_root[x] = x
        if owner[x] != label:
            owner[x] = label
            members.append(x)
    st.queue.extend(ear.sequence)
    level = ear.sequence
    while level:
        nxt = []
        for x in level:
            kids = children.get(x)
            if not kids:
                continue
            base_root = ear_root[x]
            base_dist = dist[x] + 1
            for c in kids:
                if owner[c] == label:
                    continue
                ear_root[c] = base_root
                dist[c] = base_dist
                evaluate[c] = 1
                nxt.append(c)
        st.queue.extend(nxt)
        level = nxt


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


def grow(st: GrowthState, rng) -> int:
    """Extend S by one ear; returns the number of nodes added, 0 when no
    ear fits.

    Dequeued nodes are processed only when flagged for evaluation and when
    dist still fits the remaining capacity.  Scanning a node either extends
    the tree (unvisited free neighbors) or tests non-tree edges as ears by
    try_make_ear's rules, inline; each valid ear is accepted with
    probability accept_prob (one RNG draw), and only an accepted one is
    built (try_make_ear) and folded in (update_add_ear).  Returns right
    after the first accepted ear with the scan left resumable, so repeated
    calls grow S ear by ear until the queue empties or S reaches capacity.
    """
    adj = st.graph.adjacency
    parent = st.parent
    dist = st.dist
    ear_root = st.ear_root
    evaluate = st.evaluate
    owner = st.owner
    label = st.label
    children = st.children
    queue = st.queue
    members = st.members
    accept_prob = st.accept_prob
    capacity = st.capacity
    while queue:
        size = len(members)
        if size >= capacity:
            break
        cur = queue.popleft()
        oc = owner[cur]
        if not evaluate[cur] or (oc != label and oc != -1):
            continue
        d = dist[cur]
        room = capacity - size
        if d > room:
            # too deep to seed an ear under current capacity; a future
            # re-root would re-enqueue it with a smaller dist
            continue
        # fixed for the whole scan, which only extends the tree below cur
        pc, rc = parent[cur], ear_root[cur]
        rc_in = owner[rc] == label
        cur_kids = None
        for w in adj[cur]:
            ow = owner[w]
            if (ow != label and ow != -1) or w == pc or parent[w] == cur:
                continue
            dw = dist[w]
            if dw == INF:
                parent[w] = cur
                if cur_kids is None:
                    cur_kids = children.setdefault(cur, [])
                cur_kids.append(w)
                ear_root[w] = rc
                dist[w] = d + 1
                evaluate[w] = 1
                queue.append(w)
            elif (rw := ear_root[w]) != rc:
                rw_in = owner[rw] == label
                if not (size == 1 or (rc_in and rw_in)):
                    # dangling pre-cycle anchor; cannot attach to S
                    continue
                added = d + dw + (not rc_in) + (not rw_in)
                if 0 < added <= room and rng.random() <= accept_prob:
                    ear = try_make_ear(st, cur, w)
                    update_add_ear(st, ear)
                    st.last_ear = ear
                    # scan unfinished: cur was re-enqueued by the update
                    # and keeps its evaluate flag
                    return len(ear.added)
        evaluate[cur] = 0
    return 0
