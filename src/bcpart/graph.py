"""Graph primitives: adjacency-list graphs, unit-disc construction,
bi-connectivity tests and components, instance JSON I/O.

Neighbor lists keep edge insertion order; every algorithm in this package
iterates neighbors in that order, so the edge sequence passed to build_graph
is the global tie-break for all deterministic runs.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass, field


class Graph:
    """Immutable undirected graph with optional 2D coordinates."""

    __slots__ = ("node_count", "adjacency", "coords")

    def __init__(self, node_count: int, adjacency, coords=None):
        self.node_count = node_count
        self.adjacency = adjacency      # tuple of tuples, insertion-ordered
        self.coords = coords            # tuple of (x, y) or None

    def edge_count(self) -> int:
        return sum(len(a) for a in self.adjacency) // 2

    def edges(self):
        """Yield each edge once as (u, v) with u < v, in u-major order."""
        for u in range(self.node_count):
            for v in self.adjacency[u]:
                if u < v:
                    yield (u, v)

    def degree(self, u: int) -> int:
        return len(self.adjacency[u])

    def __repr__(self):
        return f"Graph(n={self.node_count}, m={self.edge_count()})"


def build_graph(node_count: int, edges, coords=None) -> Graph:
    """Build a graph from an edge list.

    Rejects self-loops, duplicate edges (either orientation) and endpoints
    outside [0, node_count).  Neighbor order follows the edge sequence.
    """
    if node_count < 0:
        raise ValueError("node_count must be non-negative")
    adj: list[list[int]] = [[] for _ in range(node_count)]
    seen = set()
    for u, v in edges:
        if not (0 <= u < node_count and 0 <= v < node_count):
            raise ValueError(f"edge ({u},{v}) out of range for {node_count} nodes")
        if u == v:
            raise ValueError(f"self-loop at node {u}")
        key = (u, v) if u < v else (v, u)
        if key in seen:
            raise ValueError(f"duplicate edge ({u},{v})")
        seen.add(key)
        adj[u].append(v)
        adj[v].append(u)
    if coords is not None:
        coords = tuple((float(x), float(y)) for x, y in coords)
        if len(coords) != node_count:
            raise ValueError("coords length must match node_count")
    return Graph(node_count, tuple(tuple(a) for a in adj), coords)


def unit_disc_graph(points, radius: float) -> Graph:
    """Disc graph on 2D points: edge iff squared distance <= radius**2.

    Comparison is done on squared values so boundary pairs are included
    exactly.  Edges are produced in lexicographic (u, v) order.
    """
    if radius < 0:
        raise ValueError("radius must be non-negative")
    pts = [(float(x), float(y)) for x, y in points]
    r2 = radius * radius
    edges = []
    for i in range(len(pts)):
        xi, yi = pts[i]
        for j in range(i + 1, len(pts)):
            dx = pts[j][0] - xi
            dy = pts[j][1] - yi
            if dx * dx + dy * dy <= r2:
                edges.append((i, j))
    return build_graph(len(pts), edges, coords=pts)


def _induced_adjacency(g: Graph, nodes):
    """Set-filtered view used by the DFS routines below."""
    node_set = nodes if isinstance(nodes, (set, frozenset)) else set(nodes)
    if node_set:
        lo, hi = min(node_set), max(node_set)
        if lo < 0 or hi >= g.node_count:
            raise ValueError(f"node {lo if lo < 0 else hi} not in graph")
    return node_set


def _blocks(g: Graph, node_set, starts):
    """Blocks of the subgraph induced by `node_set`, by one iterative
    low-link DFS with a node stack (Tarjan 1972) from each start that no
    earlier walk reached.

    Yields (root, p, block) each time a child subtree of p closes with
    low[child] >= disc[p]: p separates that subtree from the rest, and
    block lists the subtree nodes still on the stack plus p, which is one
    bi-connected component (two nodes for a bridge); root is the start
    whose walk found it.  Discovery and low numbers live in two lists of
    g.node_count entries, where 0 means not yet seen; a start with no
    neighbor in the set yields nothing.  Besides the two functions below,
    the generator's trim walks it on a removed node's neighbourhood.
    """
    adjacency = g.adjacency
    disc = [0] * g.node_count
    low = [0] * g.node_count
    counter = 1
    for root in starts:
        if disc[root]:
            continue
        disc[root] = low[root] = counter
        counter += 1
        nodes = [root]
        # stack entries: (node, parent, iterator over neighbors, index in nodes)
        stack = [(root, -1, iter(adjacency[root]), 0)]
        while stack:
            u, parent, it, pos = stack[-1]
            for v in it:
                if v not in node_set:
                    continue
                if not disc[v]:
                    disc[v] = low[v] = counter
                    counter += 1
                    stack.append((v, u, iter(adjacency[v]), len(nodes)))
                    nodes.append(v)
                    break
                if v != parent and disc[v] < low[u]:
                    low[u] = disc[v]
            else:  # no undiscovered neighbor left: u's subtree is done
                stack.pop()
                if stack:
                    p = stack[-1][0]
                    if low[u] < low[p]:
                        low[p] = low[u]
                    if low[u] >= disc[p]:
                        block = nodes[pos:]
                        del nodes[pos:]
                        block.append(p)
                        yield root, p, block


def is_biconnected(g: Graph, nodes) -> bool:
    """True iff the induced subgraph is connected and has no cut vertex.

    Size conventions: a single node is bi-connected, an empty set is not,
    and a two-node subgraph never is.  Stops at the first block the DFS
    closes, which spans the whole set only when the set is bi-connected.
    """
    node_set = _induced_adjacency(g, nodes)
    if len(node_set) < 3:
        return len(node_set) == 1
    first = next(_blocks(g, node_set, (next(iter(node_set)),)), None)
    return first is not None and len(first[2]) == len(node_set)


def biconnected_components(g: Graph, nodes=None) -> list[set[int]]:
    """Node sets of the bi-connected components of the induced subgraph.

    Components are edge-maximal; a bridge yields a two-node component.
    Isolated nodes yield no component.
    """
    node_set = _induced_adjacency(g, nodes if nodes is not None else range(g.node_count))
    return [set(block) for _root, _p, block in _blocks(g, node_set, node_set)]


@dataclass(frozen=True)
class Instance:
    """A problem instance: graph, one root per subgraph, size cap M.

    Feasible solutions assign each node to at most one subgraph; subgraph i
    must contain root i, hold at most `capacity` nodes and induce a
    bi-connected subgraph.
    """

    graph: Graph
    roots: tuple[int, ...]
    capacity: int
    known_optimum: int | None = None
    meta: dict | None = field(default=None)

    def __post_init__(self):
        if self.capacity < 1:
            raise ValueError("capacity must be >= 1")
        if len(set(self.roots)) != len(self.roots):
            raise ValueError("roots must be distinct")
        for r in self.roots:
            if not (0 <= r < self.graph.node_count):
                raise ValueError(f"root {r} out of range")
        if self.known_optimum is not None and self.known_optimum > self.graph.node_count:
            raise ValueError("known optimum exceeds node count")
        object.__setattr__(self, "roots", tuple(self.roots))

    @property
    def subgraph_count(self) -> int:
        return len(self.roots)


def instance_to_json(instance: Instance) -> str:
    """Serialize an instance to the canonical JSON layout.

    Nodes carry coordinates when present; edges appear once with u < v in
    lexicographic order, which is also the neighbor order after a reload.
    """
    g = instance.graph
    nodes = []
    for i in range(g.node_count):
        entry: dict = {"id": i}
        if g.coords is not None:
            entry["x"] = g.coords[i][0]
            entry["y"] = g.coords[i][1]
        nodes.append(entry)
    payload: dict = {
        "nodes": nodes,
        "edges": sorted(g.edges()),
        "roots": list(instance.roots),
        "capacity": instance.capacity,
    }
    if instance.known_optimum is not None:
        payload["optimum"] = instance.known_optimum
    if instance.meta is not None:
        payload["meta"] = instance.meta
    return json.dumps(payload)


_TYPE_NAMES = {int: "an integer", list: "a list", dict: "an object", str: "a string",
               (int, float): "a number"}


def check_type(value, kind, what: str):
    """Return a parsed JSON value if it has the expected type, else raise
    ValueError.  `kind` is int, list, dict, str or (int, float); booleans
    never count as numbers."""
    if isinstance(value, bool) or not isinstance(value, kind):
        raise ValueError(f"{what} must be {_TYPE_NAMES[kind]}, not {type(value).__name__}")
    return value


def check_finite(value, what: str):
    """check_type for a number that is finite as a float, else ValueError."""
    if not abs(check_type(value, (int, float), what)) <= sys.float_info.max:  # NaN too
        raise ValueError(f"{what} must be finite and fit in a float")
    return value


def parse_json(text: str):
    """json.loads; nesting too deep for the parser raises ValueError too."""
    try:
        return json.loads(text)
    except RecursionError:
        raise ValueError("JSON nested too deeply") from None


def instance_from_json(text: str) -> Instance:
    """Parse the canonical instance JSON; edge order in the file is kept.

    Any departure from the layout written by instance_to_json (a missing
    field, a wrong type, a non-finite coordinate, bad ids, edges or roots)
    raises ValueError.
    """
    payload = check_type(parse_json(text), dict, "instance")
    nodes = check_type(payload.get("nodes"), list, "nodes")
    n = len(nodes)
    ids = [check_type(check_type(entry, dict, "node").get("id"), int, "node id")
           for entry in nodes]
    if sorted(ids) != list(range(n)):
        raise ValueError("node ids must be exactly 0..n-1")
    coords = None
    if nodes and "x" in nodes[0]:
        by_id = {entry["id"]: (check_finite(entry.get("x"), "node x"),
                               check_finite(entry.get("y"), "node y"))
                 for entry in nodes}
        coords = [by_id[i] for i in range(n)]
    edges = []
    for edge in check_type(payload.get("edges"), list, "edges"):
        if not isinstance(edge, list) or len(edge) != 2:
            raise ValueError(f"edge {edge!r} must be a pair [u, v]")
        edges.append((check_type(edge[0], int, "edge endpoint"),
                      check_type(edge[1], int, "edge endpoint")))
    graph = build_graph(n, edges, coords=coords)
    optimum = payload.get("optimum")
    meta = payload.get("meta")
    return Instance(
        graph=graph,
        roots=tuple(check_type(r, int, "root")
                    for r in check_type(payload.get("roots"), list, "roots")),
        capacity=check_type(payload.get("capacity"), int, "capacity"),
        known_optimum=None if optimum is None else check_type(optimum, int, "optimum"),
        meta=None if meta is None else check_type(meta, dict, "meta"),
    )


def load_instance(path) -> Instance:
    with open(path, "r", encoding="utf-8") as fh:
        return instance_from_json(fh.read())


def save_instance(instance: Instance, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(instance_to_json(instance))
        fh.write("\n")


def disc_radius(alpha: float, n: int, capacity: int) -> float:
    """Connectivity radius used by the generator: 1/sqrt(alpha * n * M)."""
    return 1.0 / math.sqrt(alpha * n * capacity)
