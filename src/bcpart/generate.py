"""Random instances with a known optimal objective, plus a star-shaped
reduction from supply-constrained demand selection.

Instances are built from n unit-disc blocks, each an exactly-M-node
bi-connected disc graph sampled inside its own rectangle of area about 1/n.
Blocks are translated into the unit square so that every placement adds
enough cross edges to blur the block boundaries while keeping node degrees
balanced.  Because each block stays bi-connected and holds exactly M nodes,
assigning every block to its own root is feasible and covers all n*M
nodes, so the optimum is known by construction; the block membership
vector is kept as a certificate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from random import Random

from .graph import (
    Graph,
    Instance,
    _blocks,
    biconnected_components,
    build_graph,
    check_finite,
    check_type,
    disc_radius,
    is_biconnected,
    unit_disc_graph,
)


class GenerationError(RuntimeError):
    """Raised when sampling budgets run out without a valid artifact."""


DELTA = 1.1                     # oversampling factor per point batch
GAMMA = 0.2                     # cross-edge requirement factor
POSITION_TRIALS = 1000          # candidate translations per block
BLOCK_ATTEMPT_BUDGET = 100_000  # point batches per block
ASSEMBLY_RESTARTS = 20          # placement passes before giving up
MAX_BATCHES_PER_BOX = 16        # point batches per sampling box
# ten times the paper's largest instance (100 x 100 nodes); bounds a
# generated instance's n * M and the reduction's node count
MAX_NODES = 100_000
# ten times the paper's largest M; one block costs about M^2 or more
MAX_CAPACITY = 1_000


@dataclass(frozen=True)
class GenConfig:
    """What a generated instance depends on besides the module constants
    above: n blocks of `capacity` nodes, at most MAX_CAPACITY each and
    MAX_NODES in all, the disc radius's `alpha` and the RNG seed."""

    n: int                       # number of blocks / subgraphs
    capacity: int                # block size M
    alpha: float                 # density control; larger = sparser
    seed: int = 0

    def __post_init__(self):
        for f in fields(self):
            if f.type == "int":
                check_type(getattr(self, f.name), int, f.name)
        if self.n < 1:
            raise ValueError("n must be >= 1")
        if self.capacity < 3:
            raise ValueError("capacity must be >= 3 (blocks need a cycle)")
        if self.n * self.capacity > MAX_NODES:
            raise ValueError(f"n * capacity must be at most {MAX_NODES} nodes")
        if self.capacity > MAX_CAPACITY:
            raise ValueError(f"capacity must be at most {MAX_CAPACITY}")
        if check_finite(self.alpha, "alpha") <= 0:
            raise ValueError("alpha must be positive")


@dataclass
class Block:
    """One sampled building block, positioned at its box origin."""

    coords: list[tuple[float, float]]
    graph: Graph
    root: int
    box: tuple[float, float]


@dataclass(frozen=True)
class GeneratedInstance:
    instance: Instance
    block_membership: tuple[int, ...]


def _inverse_cell_width(d: float) -> float:
    """1 / the width of grid cells a little wider than the disc radius d:
    even after float rounding, two points within d of each other lie in
    the same or adjacent cells."""
    return 1.0 / (d * (1.0 + 1e-9))


def _near(grid, pts, x, y, d2, inv) -> list[int]:
    """Indices of the points `pts`, keyed in `grid` by cell (int(x * inv),
    int(y * inv)), that lie within d of (x, y): d2 = d * d, and all of
    them are in the 3x3 cells around (x, y)."""
    gx, gy = int(x * inv), int(y * inv)
    near = []
    for cx in (gx - 1, gx, gx + 1):
        for cy in (gy - 1, gy, gy + 1):
            for j in grid.get((cx, cy), ()):
                ox, oy = pts[j]
                dx = x - ox
                dy = y - oy
                if dx * dx + dy * dy <= d2:
                    near.append(j)
    return near


def _boundary_points(bw: float, bh: float, per_edge: int, rng: Random):
    """Random points pinned to each side of the box, bottom/top/left/right."""
    pts = []
    for _ in range(per_edge):
        pts.append((rng.uniform(0.0, bw), 0.0))
    for _ in range(per_edge):
        pts.append((rng.uniform(0.0, bw), bh))
    for _ in range(per_edge):
        pts.append((0.0, rng.uniform(0.0, bh)))
    for _ in range(per_edge):
        pts.append((bw, rng.uniform(0.0, bh)))
    return pts


def _smaller_side(nodes: set[int], u: int, side) -> set[int]:
    """`side`, a union of components of `nodes` - u, or the rest of
    `nodes` - u, whichever holds fewer nodes."""
    side = set(side)
    if 2 * len(side) > len(nodes) - 1:
        side = nodes.difference(side, (u,))
    return side


def _stray_component(adj, nodes: set[int], near: set[int], u: int):
    """The component of `nodes` - u around one node of `near` - u, or
    None as soon as it has reached every node of `near` - u, which must
    hold two or more."""
    start = next(w for w in near if w != u)
    left = len(near) - 1 - (u in near)
    seen = {u, start}
    order = [start]
    for x in order:
        for y in adj[x]:
            if y in nodes and y not in seen:
                seen.add(y)
                if y in near:
                    left -= 1
                    if not left:
                        return None
                order.append(y)
    return order


def _separator(g: Graph, nodes: set[int], v: int):
    """None when S - v = `nodes` is bi-connected, else (u, A) for a
    separation pair {v, u} of S and the smaller side A of S - v - u
    (see `_trim_to_size`)."""
    adj = g.adjacency
    near = nodes.intersection(adj[v])
    rings = []
    for w in near:
        ring = nodes.intersection(adj[w])
        if len(ring) < 2:
            (u,) = ring  # w's only other neighbour u cuts it off
            return u, {w}
        rings.append(ring)
    # near inside one block of T, near plus its neighbours in S - v, accepts
    blocks = []
    for found in _blocks(g, near.union(*rings), near):
        if near.issubset(found[2]):
            return None
        blocks.append(found)
    if len({root for root, _p, _block in blocks}) > 1:
        # near split across T's components: recheck S - v whole
        if is_biconnected(g, nodes):
            return None
        _root, u, block = next(_blocks(g, nodes, (next(iter(nodes)),)))
        return u, _smaller_side(nodes, u, block[:-1])
    # near's share of each branch of T at a block's top p: a block's
    # subtree holds its own near nodes below p and their subtrees', and
    # the branch through p's parent block holds the rest
    below: dict[int, int] = {}
    branches: dict[int, list[int]] = {}
    for _root, p, block in blocks:
        held = sum((x in near) + below.get(x, 0) for x in block[:-1])
        below[p] = below.get(p, 0) + held
        branches.setdefault(p, []).append(held)
    for u, held in branches.items():
        rest = len(near) - (u in near) - below[u]
        if sum(1 for h in held if h) + (rest > 0) >= 2:
            side = _stray_component(adj, nodes, near, u)
            if side is not None:
                return u, _smaller_side(nodes, u, side)
    return None


def _remembered(pairs: dict, nodes: set[int], v: int) -> bool:
    """Whether a separation pair {v, u} in `pairs` still separates S =
    `nodes`: u is in S and both of its sides keep a node."""
    return any(u in nodes and 0 < len(side & nodes) < len(nodes) - 2
               for u, side in pairs.get(v, ()))


def _trim_to_size(g: Graph, nodes: set[int], target: int, coords) -> set[int] | None:
    """Shrink a bi-connected node set to `target` (>= 3) nodes.

    Repeatedly removes the outermost (farthest from the current centroid)
    node whose removal keeps the set bi-connected; gives up when no single
    node can be removed safely.  S starts bi-connected and only such
    removals are kept, so S never has a cut vertex to exclude up front.

    A removal of v is settled from v's neighbours `near` where it can be,
    with S - v (at least 3 nodes) connected, as S is bi-connected:

    - a neighbour w left with fewer than 2 neighbours in S - v refuses it;
      w's other neighbour u cuts w off;
    - near lying inside one block of T, the subgraph induced by near and
      near's neighbours in S - v, accepts it.  A cut vertex u of S - v
      would split near - u between two components of S - v - u, as S - u
      is connected and every path in it to v ends in near; but near - u
      is connected inside that block minus u, a subgraph of S - v - u;
    - otherwise, with near inside one component of T, the same argument
      shows that a cut vertex u of S - v must also be a cut vertex of T
      that splits near - u (were u outside T or near - u connected in
      T - u, near - u would be connected in S - v - u).  For each such u,
      read off the blocks of T, every component of S - v - u holds a node
      of near, so S - v - u is connected iff the component of one node of
      near - u reaches all of them; the search grows it and stops there;
    - with near split across T's components, S - v is rechecked whole
      with `is_biconnected`, and a refusal takes its cut vertex u from
      the first block the low-link walk closes.

    Each refusal leaves a separation pair {v, u} of S with its smaller
    side A.  S only shrinks, so while u is in S and both A and the rest of
    S - v - u keep a node, S - {v, u} stays disconnected and both v and u
    are refused again without a test.
    """
    nodes = set(nodes)
    pairs: dict[int, list] = {}   # node -> [(partner, side)] of separation pairs
    while len(nodes) > target:
        # one sweep per refresh of the centroid ordering; a node that
        # fails the test is skipped for the rest of the sweep
        cx = sum(coords[u][0] for u in nodes) / len(nodes)
        cy = sum(coords[u][1] for u in nodes) / len(nodes)
        cands = sorted(
            nodes,
            key=lambda u: (-((coords[u][0] - cx) ** 2 + (coords[u][1] - cy) ** 2), u),
        )
        removed_any = False
        for v in cands:
            if len(nodes) == target:
                break
            if _remembered(pairs, nodes, v):
                continue
            nodes.discard(v)
            pair = _separator(g, nodes, v)
            if pair is None:
                removed_any = True
            else:
                nodes.add(v)
                u, side = pair
                pairs.setdefault(v, []).append((u, side))
                pairs.setdefault(u, []).append((v, side))
        if not removed_any:
            return None
    return nodes


def generate_block(capacity: int, n: int, cfg: GenConfig, rng: Random) -> Block:
    """Sample one bi-connected disc-graph block of exactly `capacity` nodes.

    Points arrive in batches of ceil(capacity * DELTA) inside a random box
    of area about 1/n (the first batch pins up to 4 points per box side);
    after each batch the accumulated disc graph is checked for a
    bi-connected component of at least `capacity` nodes, which is then
    trimmed down to size, with at most MAX_BATCHES_PER_BOX batches per
    box.  Each batch counts against BLOCK_ATTEMPT_BUDGET.
    New points find their disc neighbours in a grid of cells a little wider
    than the radius, and their edges go in ascending earlier index.
    """
    d = disc_radius(cfg.alpha, n, capacity)
    d2 = d * d
    inv = _inverse_cell_width(d)
    batch_size = math.ceil(capacity * DELTA)
    attempts = 0
    while attempts < BLOCK_ATTEMPT_BUDGET:
        shape = rng.uniform(0.5, 1.0)
        bw = min(1.0 / (math.sqrt(n) * shape), 1.0)
        bh = shape / math.sqrt(n)
        pts: list[tuple[float, float]] = []
        edges: list[tuple[int, int]] = []
        grid: dict[tuple[int, int], list[int]] = {}
        for _ in range(MAX_BATCHES_PER_BOX):
            if attempts >= BLOCK_ATTEMPT_BUDGET:
                break
            attempts += 1
            if pts:
                fresh = []
            else:
                per_edge = min(4, batch_size // 4)
                fresh = _boundary_points(bw, bh, per_edge, rng)
            while len(fresh) < batch_size:
                fresh.append((rng.uniform(0.0, bw), rng.uniform(0.0, bh)))
            # incremental edge update: each new point against the earlier
            # points in its 3x3 cells; edges in ascending earlier index keep
            # the neighbour order that ties between equal blocks follow
            for x, y in fresh:
                gi = len(pts)
                edges.extend((j, gi) for j in sorted(_near(grid, pts, x, y, d2, inv)))
                pts.append((x, y))
                grid.setdefault((int(x * inv), int(y * inv)), []).append(gi)
            g = build_graph(len(pts), edges)
            comps = biconnected_components(g)
            big = [c for c in comps if len(c) >= capacity]
            if not big:
                continue
            big.sort(key=lambda c: (-len(c), min(c)))
            kept = _trim_to_size(g, big[0], capacity, pts)
            if kept is None:
                continue
            selected = sorted(kept)
            sel_coords = [pts[u] for u in selected]
            # renormalize to the trimmed blob's own bounding box so the
            # placement stage can slide it anywhere in the unit square
            min_x = min(x for x, _ in sel_coords)
            min_y = min(y for _, y in sel_coords)
            sel_coords = [(x - min_x, y - min_y) for x, y in sel_coords]
            span_x = max(x for x, _ in sel_coords)
            span_y = max(y for _, y in sel_coords)
            block_graph = unit_disc_graph(sel_coords, d)
            root = rng.randrange(capacity)
            return Block(coords=sel_coords, graph=block_graph, root=root,
                         box=(span_x, span_y))
    raise GenerationError(
        f"no bi-connected {capacity}-node block found within "
        f"{BLOCK_ATTEMPT_BUDGET} sampling batches (alpha={cfg.alpha}, n={n})")


def _may_touch(grid, inv, tx, ty, box) -> bool:
    """Whether any cell that `_near` visits for a point of a block with
    bounding box `box`, translated by (tx, ty), holds a placed point."""
    bw, bh = box
    rows = range(int(ty * inv) - 1, int((ty + bh) * inv) + 2)
    return any((cx, cy) in grid
               for cx in range(int(tx * inv) - 1, int((tx + bw) * inv) + 2)
               for cy in rows)


def assemble_instance(blocks: list[Block], cfg: GenConfig, rng: Random) -> GeneratedInstance:
    """Translate blocks into the unit square and fuse them into one instance.

    Every block after the first must gain at least max(3, ceil(GAMMA * its
    edge count)) cross edges to the already-placed graph; among the
    POSITION_TRIALS sampled positions that qualify, the one minimizing the
    merged maximum degree wins (the first one on ties).  No position scores below the maximum
    degree of the placed graph or of the block, so once a qualifying one
    reaches that floor the remaining trials only draw their position.
    Node ids are randomly permuted at the end.

    Placed points are keyed in a grid of `generate_block`'s cells, a
    little wider than the disc radius, and a trial probes each of its
    points with `_near`, which visits only the 3x3 cells around it.  A
    trial is skipped before it is probed when no cell it would visit holds
    a placed point (`_may_touch`).  The skip is
    exact: block coordinates lie in [0, bw] x [0, bh], and float addition,
    scaling by the inverse cell width and `int` are all monotone, so the
    probe visits only cells in [c(tx) - 1, c(tx + bw) + 1] x [c(ty) - 1,
    c(ty + bh) + 1], with c(x) = int(x * inv).  With all of those empty
    the probe finds no pair, fewer than the 3 or more cross edges needed,
    and the trial has made its two draws either way.
    """
    d = disc_radius(cfg.alpha, cfg.n, cfg.capacity)
    d2 = d * d
    inv = _inverse_cell_width(d)
    rnd = rng.random
    membership = [bi for bi, block in enumerate(blocks) for _ in block.coords]
    for _ in range(ASSEMBLY_RESTARTS):
        pts: list[tuple[float, float]] = []
        degrees: list[int] = []
        edges: list[tuple[int, int]] = []
        roots_global: list[int] = []
        grid: dict[tuple[int, int], list[int]] = {}
        global_max_deg = 0
        for bi, block in enumerate(blocks):
            bw, bh = block.box
            # sx * rnd() is rng.uniform(0.0, sx), draw for draw
            sx, sy = 1.0 - bw, 1.0 - bh
            block_deg = [block.graph.degree(i) for i in range(len(block.coords))]
            # best = (merged maximum degree, tx, ty, cross edges); the first
            # block takes its one position, alone at its own maximum degree
            floor = max(global_max_deg, max(block_deg))
            best = (floor, sx * rnd(), sy * rnd(), []) if bi == 0 else None
            min_con = max(3, math.ceil(GAMMA * block.graph.edge_count()))
            for _ in range(POSITION_TRIALS if bi else 0):
                tx = sx * rnd()
                ty = sy * rnd()
                if best is not None and best[0] == floor:
                    continue
                if not _may_touch(grid, inv, tx, ty, block.box):
                    continue
                cross = [(li, j) for li, (x, y) in enumerate(block.coords)
                         for j in _near(grid, pts, x + tx, y + ty, d2, inv)]
                if len(cross) < min_con:
                    continue
                touched: dict[int, int] = {}
                bcnt = [0] * len(block.coords)
                for li, gj in cross:
                    touched[gj] = touched.get(gj, 0) + 1
                    bcnt[li] += 1
                cand_max = max(
                    global_max_deg,
                    max(degrees[gj] + c for gj, c in touched.items()),
                    max(block_deg[li] + bcnt[li]
                        for li in range(len(block.coords))),
                )
                if best is None or cand_max < best[0]:
                    best = (cand_max, tx, ty, cross)
            if best is None:
                break
            # the winner's score is the placed graph's new maximum degree
            global_max_deg, tx, ty, cross = best
            base = len(pts)
            for li, (x, y) in enumerate(block.coords):
                ax, ay = x + tx, y + ty
                pts.append((ax, ay))
                degrees.append(block_deg[li])
                grid.setdefault((int(ax * inv), int(ay * inv)), []).append(base + li)
            for u, v in block.graph.edges():
                edges.append((base + u, base + v))
            for li, gj in cross:
                edges.append((gj, base + li))
                degrees[base + li] += 1
                degrees[gj] += 1
            roots_global.append(base + block.root)
        else:
            break  # every block placed
    else:
        raise GenerationError(
            f"could not place all {cfg.n} blocks with enough cross edges after "
            f"{ASSEMBLY_RESTARTS} assembly passes")
    total = len(pts)
    perm = list(range(total))
    rng.shuffle(perm)
    new_coords: list[tuple[float, float] | None] = [None] * total
    new_membership = [0] * total
    for old in range(total):
        new_coords[perm[old]] = pts[old]
        new_membership[perm[old]] = membership[old]
    new_edges = sorted(
        (perm[u], perm[v]) if perm[u] < perm[v] else (perm[v], perm[u])
        for u, v in edges
    )
    graph = build_graph(total, new_edges, coords=new_coords)
    instance = Instance(
        graph=graph,
        roots=tuple(perm[r] for r in roots_global),
        capacity=cfg.capacity,
        known_optimum=total,
        meta={"alpha": cfg.alpha, "seed": cfg.seed, "radius": d},
    )
    return GeneratedInstance(instance, tuple(new_membership))


def generate_instance(cfg: GenConfig) -> GeneratedInstance:
    """Full pipeline: sample n blocks, then assemble and permute."""
    rng = Random(cfg.seed)
    blocks = [generate_block(cfg.capacity, cfg.n, cfg, rng) for _ in range(cfg.n)]
    return assemble_instance(blocks, cfg, rng)


def certificate_solution(gen: GeneratedInstance):
    """The generator's block membership viewed as a (optimal) solution."""
    from .solver import Solution

    return Solution(gen.block_membership)


def reduce_mpgsd_star(sup: int, demands) -> Instance:
    """Encode supply-constrained demand selection as a single-root instance.

    Node 0 is the root, adjacent to hub nodes 1 and 2.  Each demand of size
    d contributes a path of d nodes from hub 1 to hub 2.  A bi-connected
    subgraph around the root must take both hubs and any set of complete
    demand paths, so with capacity sup + 3 the best objective is
    3 + (largest demand subset summing to at most sup), or 1 when no
    demand fits.  More than MAX_NODES nodes raise ValueError before any
    edge is built.
    """
    demands = [int(x) for x in demands]
    if sup < 1:
        raise ValueError("sup must be >= 1")
    if not demands or any(x < 1 for x in demands):
        raise ValueError("demands must be positive integers")
    if 3 + sum(demands) > MAX_NODES:
        raise ValueError(f"the reduction would have more than {MAX_NODES} nodes")
    edges = [(0, 1), (0, 2)]
    next_id = 3
    for dval in demands:
        prev = 1
        for step in range(dval):
            edges.append((prev, next_id) if prev < next_id else (next_id, prev))
            prev = next_id
            next_id += 1
        edges.append((2, prev))
    graph = build_graph(next_id, sorted(edges))
    # bitset subset-sum up to sup; no subset sums past sum(demands), so a
    # larger sup masks nothing and must not size the mask
    reach = 1
    for dval in demands:
        reach |= reach << dval
    reach &= (1 << (min(sup, sum(demands)) + 1)) - 1
    best = reach.bit_length() - 1
    optimum = 3 + best if best > 0 else 1
    return Instance(
        graph=graph,
        roots=(0,),
        capacity=sup + 3,
        known_optimum=optimum,
        meta={"sup": sup, "demands": demands},
    )
