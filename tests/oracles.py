"""Independent reference implementations used to cross-check the package.

Everything here is written from the definitions, on purpose sharing no code
with src/: connectivity by plain BFS, bi-connectivity by delete-one-vertex
connectivity, optima by exhaustive labeling, distances by multi-source BFS,
the GROW-N walk in its original rebuild-every-step form, ear growth (with
its Ear-building ear builder) and
parallel construction in their build-before-draw, prune-every-sibling form,
the local search in its copy-every-candidate, rebuild-every-accept form,
the generator's block trim and placement in their recheck-every-removal,
probe-every-trial form (with the first release's cross-edge probe), and its block sampler in its every-pair edge update
form on the dict-based low-link walker.
Slow is fine; these only run on small inputs.
"""

from __future__ import annotations

import math
import random
import time
from dataclasses import dataclass
from itertools import product

from bcpart import GROW_N, GROW_R, Instance, Solution, build_graph
from bcpart.local_search import SearchStats, select_regrow_set
from bcpart.generate import Block, GeneratedInstance, GenerationError, _boundary_points
from bcpart.graph import disc_radius, unit_disc_graph
from bcpart.growth import INF, init_growth, update_bfs_tree_delete


def connected(adjacency, nodes) -> bool:
    nodes = set(nodes)
    if not nodes:
        return False
    start = min(nodes)
    seen = {start}
    todo = [start]
    while todo:
        u = todo.pop()
        for v in adjacency[u]:
            if v in nodes and v not in seen:
                seen.add(v)
                todo.append(v)
    return len(seen) == len(nodes)


def subgraph_members(solution, k) -> list[list[int]]:
    """The nodes of each of the k subgraphs, ascending, read off the
    solution's assignment."""
    members = [[] for _ in range(k)]
    for u, a in enumerate(solution.assignment):
        if a != -1:
            members[a].append(u)
    return members


def ref_biconnected(graph, nodes) -> bool:
    """Definition-based check: connected and still connected after removing
    any single vertex.  Same size conventions as the library (0 no, 1 yes,
    2 no)."""
    nodes = set(nodes)
    if len(nodes) == 0:
        return False
    if len(nodes) == 1:
        return True
    if len(nodes) == 2:
        return False
    if not connected(graph.adjacency, nodes):
        return False
    for v in nodes:
        if not connected(graph.adjacency, nodes - {v}):
            return False
    return True


def two_disjoint_paths(graph, nodes, s, t) -> bool:
    """Brute force: do two s-t paths with disjoint interiors exist in the
    induced subgraph?  Enumerates all simple paths; only for tiny graphs."""
    nodes = set(nodes)
    paths = []

    def extend(path):
        u = path[-1]
        if u == t:
            paths.append(tuple(path[1:-1]))
            return
        for v in graph.adjacency[u]:
            if v in nodes and v not in path:
                extend(path + [v])

    extend([s])
    for i, a in enumerate(paths):
        sa = set(a)
        for b in paths[i + 1:]:
            if sa.isdisjoint(b):
                return True
    return False


def naive_optimum(instance: Instance) -> int:
    """Exhaustive optimum by trying every labeling of non-root nodes.

    Roots are pinned to their own subgraph; every other node tries
    'unassigned' plus each subgraph index.  Exponential; keep node counts
    small (about <= 10 with 2 roots)."""
    g = instance.graph
    k = len(instance.roots)
    root_of = {r: i for i, r in enumerate(instance.roots)}
    free = [u for u in range(g.node_count) if u not in root_of]
    best = k  # roots alone are always feasible
    for labels in product(range(-1, k), repeat=len(free)):
        groups = [[r] for r in instance.roots]
        for u, lab in zip(free, labels):
            if lab != -1:
                groups[lab].append(u)
        total = 0
        ok = True
        for nodes in groups:
            if len(nodes) > instance.capacity:
                ok = False
                break
            if not ref_biconnected(g, nodes):
                ok = False
                break
            total += len(nodes)
        if ok and total > best:
            best = total
    return best


def exact_hop_layers(graph, sources, allowed) -> dict:
    """Multi-source BFS layer index over `allowed` nodes: nodes adjacent to
    a source get 0, their new neighbors 1, and so on."""
    dist = {}
    frontier = []
    for s in sources:
        for v in graph.adjacency[s]:
            if v in allowed and v not in dist:
                dist[v] = 0
                frontier.append(v)
    d = 0
    while frontier:
        nxt = []
        for u in frontier:
            for v in graph.adjacency[u]:
                if v in allowed and v not in dist:
                    dist[v] = d + 1
                    nxt.append(v)
        frontier = nxt
        d += 1
    return dist


def best_subset_sum(budget: int, values) -> int:
    """Largest achievable sum <= budget, by explicit reachable-sum set."""
    sums = {0}
    for v in values:
        sums |= {s + v for s in sums if s + v <= budget}
    return max(sums)


def unassigned_path_exists(graph, assignment, i, j) -> bool:
    """Is there a path from subgraph i to subgraph j whose interior nodes
    are all unassigned?  Direct i-j edges do not count."""
    start = [u for u, a in enumerate(assignment) if a == i]
    goal = {u for u, a in enumerate(assignment) if a == j}
    seen = set()
    todo = []
    for u in start:
        for v in graph.adjacency[u]:
            if assignment[v] == -1 and v not in seen:
                seen.add(v)
                todo.append(v)
    while todo:
        u = todo.pop()
        for v in graph.adjacency[u]:
            if v in goal:
                return True
            if assignment[v] == -1 and v not in seen:
                seen.add(v)
                todo.append(v)
    return False


def ref_grow_n_walk(adjacency, seeds, frontier_hits, target, k, attempts, rng):
    """The first release's GROW-N regrow-set walk, kept verbatim as the
    reference for the incremental one: before every draw the fringe is
    rebuilt from all members' neighbors and sorted.  Returns the member set,
    or None when no walk of any size up to k touches a frontier hit."""
    hits_set = set(frontier_hits)
    size_goal = target
    while size_goal <= k:
        for _ in range(attempts):
            members = {seeds[rng.randrange(len(seeds))]}
            while len(members) < size_goal:
                fringe = sorted(
                    {w for u in members for w in adjacency.get(u, ())} - members)
                if not fringe:
                    break
                members.add(fringe[rng.randrange(len(fringe))])
            if members & hits_set:
                return frozenset(members)
        size_goal += 1
    return None


@dataclass
class Ear:
    """An accepted ear: node sequence endpoint..endpoint, plus the subset
    of sequence nodes that are new to S (in sequence order).  `cycle` marks
    the initial ear, which closes into a cycle through the root."""

    sequence: list[int]
    added: list[int]
    cycle: bool = False


def ref_walk_up(st, u: int) -> list[int]:
    """Tree path [u, parent(u), ..., ear_root(u)] following parent links."""
    path = [u]
    target = st.ear_root[u]
    cur = u
    while cur != target:
        cur = st.parent[cur]
        path.append(cur)
    return path


def ref_try_make_ear(st, u: int, v: int) -> Ear | None:
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
    left = ref_walk_up(st, u)
    right = ref_walk_up(st, v)
    seq = left[::-1] + right
    if initial and rv != st.root:
        seq = [st.root] + seq
    owner, label = st.owner, st.label
    added = [x for x in seq if owner[x] != label]
    return Ear(sequence=seq, added=added, cycle=initial)


def ref_update_add_ear(st, ear: Ear) -> None:
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


def ref_grow(st, rng) -> Ear | None:
    """The first release's grow, kept verbatim as the reference for the
    test-draw-build one: every valid ear is built by ref_try_make_ear
    before its draw.  Returns the accepted ear, None once no ear fits."""
    adj = st.graph.adjacency
    parent = st.parent
    dist = st.dist
    evaluate = st.evaluate
    owner = st.owner
    free = (-1, st.label)
    children = st.children
    queue = st.queue
    members = st.members
    accept_prob = st.accept_prob
    capacity = st.capacity
    while queue:
        if len(members) >= capacity:
            break
        cur = queue.popleft()
        if not evaluate[cur] or owner[cur] not in free:
            continue
        if dist[cur] > capacity - len(members):
            # too deep to seed an ear under current capacity; a future
            # re-root would re-enqueue it with a smaller dist
            continue
        cur_kids = None
        for w in adj[cur]:
            if owner[w] not in free:
                continue
            if parent[cur] == w or parent[w] == cur:
                continue
            if dist[w] == INF:
                parent[w] = cur
                if cur_kids is None:
                    cur_kids = children.setdefault(cur, [])
                cur_kids.append(w)
                st.ear_root[w] = st.ear_root[cur]
                dist[w] = dist[cur] + 1
                evaluate[w] = 1
                queue.append(w)
            else:
                ear = ref_try_make_ear(st, cur, w)
                if ear is None:
                    continue
                if rng.random() <= accept_prob:
                    ref_update_add_ear(st, ear)
                    # scan unfinished: cur was re-enqueued by the update
                    # and keeps its evaluate flag
                    return ear
        evaluate[cur] = 0
    return None


def ref_grow_parallel(instance, owner, labels, config, rng):
    """The first release's parallel construction, kept verbatim as the
    reference for the claim-log one: after every ear, every other state
    (retired ones too) prunes the ear's new nodes at once."""
    roots = instance.roots
    for label in labels:
        owner[roots[label]] = label
    states = [init_growth(instance.graph, roots[label], instance.capacity, config.p0, owner)
              for label in labels]
    expandable = list(range(len(states)))
    while expandable:
        max_l = rng.randint(2, config.max_exp_length)
        i = expandable[rng.randrange(len(expandable))]
        st = states[i]
        grown = 0
        while grown < max_l:
            ear = ref_grow(st, rng)
            added = len(ear.added) if ear else 0
            if added:
                grown += added
                new_nodes = ear.added
                for other in states:
                    if other is not st:
                        update_bfs_tree_delete(other, new_nodes)
            if not added or len(st.members) >= instance.capacity:
                expandable.remove(i)
                break
    return owner


def ref_build_neighbor_graph(instance, solution):
    """The rebuild-every-accept neighbor graph, kept verbatim as the
    reference for the incremental one: every call scans every edge and
    floods every unassigned component."""
    g = instance.graph
    adj = g.adjacency
    assignment = solution.assignment
    linked: list[set[int]] = [set() for _ in range(instance.subgraph_count)]
    for u in range(g.node_count):
        au = assignment[u]
        if au == -1:
            continue
        for w in adj[u]:
            if w > u:
                aw = assignment[w]
                if aw != -1 and aw != au:
                    linked[au].add(aw)
                    linked[aw].add(au)
    hits: set[int] = set()
    seen = bytearray(g.node_count)
    for s in range(g.node_count):
        if assignment[s] != -1 or seen[s]:
            continue
        # flood one unassigned component, collecting bordering subgraphs
        comp_subs: set[int] = set()
        seen[s] = 1
        stack = [s]
        while stack:
            u = stack.pop()
            for w in adj[u]:
                aw = assignment[w]
                if aw == -1:
                    if not seen[w]:
                        seen[w] = 1
                        stack.append(w)
                else:
                    comp_subs.add(aw)
        for a in comp_subs:
            linked[a] |= comp_subs
        hits |= comp_subs
    return [tuple(sorted(vs - {i})) for i, vs in enumerate(linked)], sorted(hits)


def ref_regrow_partial(instance, solution, members, config, rng):
    """The copy-every-candidate regrowth, kept verbatim (with the reference
    construction) as the reference for the in-place one."""
    chosen = set(members)
    if not chosen:
        raise ValueError("regrow set must not be empty")
    owner = [-1 if a in chosen else a for a in solution.assignment]
    return Solution(ref_grow_parallel(instance, owner, sorted(chosen), config, rng))


def ref_local_search(instance, config, mode, trace=None):
    """The local search that builds a Solution per candidate and rebuilds
    the neighbor graph and the sizes per accept, kept verbatim (with the
    reference construction and regrowth) as the reference for the in-place
    one."""
    if mode not in (GROW_R, GROW_N):
        raise ValueError(f"unknown regrow mode: {mode}")
    rng = random.Random(config.seed)
    t0 = time.perf_counter()
    best = Solution(ref_grow_parallel(instance, [-1] * instance.graph.node_count,
                                      range(instance.subgraph_count), config, rng))
    generated = 1
    best_iter = 1
    best_ms = (time.perf_counter() - t0) * 1000.0
    if trace is not None:
        trace.append((1, best.objective))
    k = instance.subgraph_count
    n = instance.graph.node_count
    neighbors, hits = ref_build_neighbor_graph(instance, best)
    memo = {}
    sizes = [len(part) for part in subgraph_members(best, k)]
    stagnation = 0
    while generated < config.max_iterations and stagnation < config.stagnation_limit:
        if best.objective == n:
            break
        if all(s >= instance.capacity for s in sizes):
            break
        m = rng.randint(2, config.regrow_size)
        pick = select_regrow_set(instance, neighbors, sizes, hits, m, mode, config, rng,
                                 memo)
        if pick is None:
            break
        candidate = ref_regrow_partial(instance, best, pick, config, rng)
        generated += 1
        if candidate.objective >= best.objective:
            if candidate.objective > best.objective:
                stagnation = 0
                best_iter = generated
                best_ms = (time.perf_counter() - t0) * 1000.0
            else:
                stagnation += 1
            best = candidate
            neighbors, hits = ref_build_neighbor_graph(instance, best)
            memo = {}
            sizes = [len(part) for part in subgraph_members(best, k)]
            if trace is not None:
                trace.append((generated, best.objective))
        else:
            stagnation += 1
    total_ms = (time.perf_counter() - t0) * 1000.0
    return best, SearchStats(
        best_objective=best.objective,
        iterations=generated,
        iteration_of_best=best_iter,
        wall_millis=best_ms,
        seed=config.seed,
        mode=mode,
        total_millis=total_ms,
    )


def ref_induced_adjacency(g: Graph, nodes):
    """Set-filtered view used by the DFS routines below."""
    node_set = nodes if isinstance(nodes, (set, frozenset)) else set(nodes)
    for u in node_set:
        if not (0 <= u < g.node_count):
            raise ValueError(f"node {u} not in graph")
    return node_set


def ref_lowlink_blocks(g: Graph, node_set, start: int, disc: dict[int, int]):
    """The dict-based low-link walker, kept verbatim as the reference for
    the list-based one; the functions below up to ref_generate_block are
    its callers and the O(n^2) block sampler, verbatim too.

    Blocks of the component of `start` in the subgraph induced by
    `node_set`, by one iterative low-link DFS with a node stack (Tarjan
    1972).

    Yields (p, block) each time a child subtree of p closes with
    low[child] >= disc[p]: p separates that subtree from the rest, and
    block lists the subtree nodes still on the stack plus p, which is one
    bi-connected component (two nodes for a bridge).  `disc` collects
    discovery numbers and is shared across calls so callers can walk every
    component; a start with no neighbor in the set yields nothing.
    """
    adjacency = g.adjacency
    counter = len(disc)
    disc[start] = counter
    low = {start: counter}
    counter += 1
    nodes = [start]
    # stack entries: (node, parent, iterator over neighbors, index in nodes)
    stack = [(start, -1, iter(adjacency[start]), 0)]
    while stack:
        u, parent, it, pos = stack[-1]
        for v in it:
            if v not in node_set:
                continue
            if v not in disc:
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
                    yield p, block


def ref_lowlink_articulation_points(g: Graph, nodes) -> set[int]:
    """Cut vertices of the subgraph induced by `nodes`.

    Works per connected component of the induced subgraph; empty input
    gives an empty result.  A DFS root is a cut vertex when it closes two
    or more blocks, any other node when it closes one.
    """
    node_set = ref_induced_adjacency(g, nodes)
    disc: dict[int, int] = {}
    cut: set[int] = set()
    for start in node_set:
        if start in disc:
            continue
        root_blocks = 0
        for p, _block in ref_lowlink_blocks(g, node_set, start, disc):
            if p == start:
                root_blocks += 1
            else:
                cut.add(p)
        if root_blocks >= 2:
            cut.add(start)
    return cut


def ref_lowlink_is_biconnected(g: Graph, nodes) -> bool:
    """True iff the induced subgraph is connected and has no cut vertex.

    Size conventions: a single node is bi-connected, an empty set is not,
    and a two-node subgraph never is.  Stops at the first block the DFS
    closes, which spans the whole set only when the set is bi-connected.
    """
    node_set = ref_induced_adjacency(g, nodes)
    if len(node_set) < 3:
        return len(node_set) == 1
    first = next(ref_lowlink_blocks(g, node_set, next(iter(node_set)), {}), None)
    return first is not None and len(first[1]) == len(node_set)


def ref_lowlink_biconnected_components(g: Graph, nodes=None) -> list[set[int]]:
    """Node sets of the bi-connected components of the induced subgraph.

    Components are edge-maximal; a bridge yields a two-node component.
    Isolated nodes yield no component.
    """
    node_set = ref_induced_adjacency(g, nodes if nodes is not None else range(g.node_count))
    disc: dict[int, int] = {}
    comps: list[set[int]] = []
    for start in node_set:
        if start not in disc:
            comps.extend(set(block) for _p, block in ref_lowlink_blocks(g, node_set, start, disc))
    return comps


@dataclass(frozen=True)
class RefGenConfig:
    """The generator's config as the references read it: every value it
    depends on, the library's module constants included, as a field with
    the library's value as its default."""

    n: int
    capacity: int
    alpha: float
    delta: float = 1.1
    gamma: float = 0.2
    position_trials: int = 1000
    seed: int = 0
    block_attempt_budget: int = 100_000
    assembly_restarts: int = 20
    max_batches_per_box: int = 16


def ref_generate_block(capacity: int, n: int, cfg: RefGenConfig, rng: Random) -> Block:
    """Sample one bi-connected disc-graph block of exactly `capacity` nodes.

    Points arrive in batches of ceil(capacity * delta) inside a random box
    of area about 1/n (the first batch pins up to 4 points per box side);
    after each batch the accumulated disc graph is checked for a
    bi-connected component of at least `capacity` nodes, which is then
    trimmed down to size.  Each batch counts against the attempt budget.
    """
    d = disc_radius(cfg.alpha, n, capacity)
    d2 = d * d
    batch_size = math.ceil(capacity * cfg.delta)
    attempts = 0
    while attempts < cfg.block_attempt_budget:
        shape = rng.uniform(0.5, 1.0)
        bw = min(1.0 / (math.sqrt(n) * shape), 1.0)
        bh = shape / math.sqrt(n)
        pts: list[tuple[float, float]] = []
        edges: list[tuple[int, int]] = []
        for _ in range(cfg.max_batches_per_box):
            if attempts >= cfg.block_attempt_budget:
                break
            attempts += 1
            if pts:
                fresh = []
            else:
                per_edge = min(4, batch_size // 4)
                fresh = _boundary_points(bw, bh, per_edge, rng)
            while len(fresh) < batch_size:
                fresh.append((rng.uniform(0.0, bw), rng.uniform(0.0, bh)))
            base = len(pts)
            # incremental edge update: new points against everything
            for li, (x, y) in enumerate(fresh):
                gi = base + li
                for j in range(gi):
                    ox, oy = pts[j] if j < base else fresh[j - base]
                    dx = x - ox
                    dy = y - oy
                    if dx * dx + dy * dy <= d2:
                        edges.append((j, gi))
            pts.extend(fresh)
            g = build_graph(len(pts), edges)
            comps = ref_lowlink_biconnected_components(g)
            big = [c for c in comps if len(c) >= capacity]
            if not big:
                continue
            big.sort(key=lambda c: (-len(c), min(c)))
            kept = ref_trim_to_size(g, big[0], capacity, pts)
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
        f"{cfg.block_attempt_budget} sampling batches (alpha={cfg.alpha}, n={n})")


def ref_trim_to_size(g: Graph, nodes: set[int], target: int, coords) -> set[int] | None:
    """The first release's block trim, kept verbatim as the reference for
    the one that tests the removed node's neighbours first: every candidate
    removal is rechecked with is_biconnected on the whole set."""
    nodes = set(nodes)
    while len(nodes) > target:
        # one sweep per refresh of the cut set / centroid ordering; a node
        # that fails the recheck is skipped for the rest of the sweep
        cut = ref_lowlink_articulation_points(g, nodes)
        cx = sum(coords[u][0] for u in nodes) / len(nodes)
        cy = sum(coords[u][1] for u in nodes) / len(nodes)
        cands = sorted(
            (u for u in nodes if u not in cut),
            key=lambda u: (-((coords[u][0] - cx) ** 2 + (coords[u][1] - cy) ** 2), u),
        )
        removed_any = False
        for v in cands:
            if len(nodes) == target:
                break
            nodes.discard(v)
            if ref_lowlink_is_biconnected(g, nodes):
                removed_any = True
            else:
                nodes.add(v)
        if not removed_any:
            return None
    return nodes


def ref_probe_cross(coords_abs, grid, pts, d2):
    """All (local_index, placed_index) pairs within disc radius."""
    pairs = []
    inv = 1.0 / math.sqrt(d2)
    for li, (x, y) in enumerate(coords_abs):
        gx = int(x * inv)
        gy = int(y * inv)
        for cx in (gx - 1, gx, gx + 1):
            for cy in (gy - 1, gy, gy + 1):
                bucket = grid.get((cx, cy))
                if not bucket:
                    continue
                for j in bucket:
                    ox, oy = pts[j]
                    dx = x - ox
                    dy = y - oy
                    if dx * dx + dy * dy <= d2:
                        pairs.append((li, j))
    return pairs


def ref_assemble_instance(blocks: list[Block], cfg: RefGenConfig,
                          rng: Random) -> GeneratedInstance:
    """The first release's placement, kept verbatim as the reference for
    the one that skips trials that cannot win: every trial probes its
    cross edges and scores its merged maximum degree."""
    d = disc_radius(cfg.alpha, cfg.n, cfg.capacity)
    d2 = d * d
    inv = 1.0 / d
    for _ in range(cfg.assembly_restarts):
        pts: list[tuple[float, float]] = []
        degrees: list[int] = []
        membership: list[int] = []
        edges: list[tuple[int, int]] = []
        roots_global: list[int] = []
        grid: dict[tuple[int, int], list[int]] = {}
        global_max_deg = 0
        ok = True
        for bi, block in enumerate(blocks):
            bw, bh = block.box
            block_deg = [block.graph.degree(i) for i in range(len(block.coords))]
            placed = None
            if bi == 0:
                tx = rng.uniform(0.0, 1.0 - bw)
                ty = rng.uniform(0.0, 1.0 - bh)
                placed = (tx, ty, [])
            else:
                min_con = max(3, math.ceil(cfg.gamma * block.graph.edge_count()))
                best = None
                for _ in range(cfg.position_trials):
                    tx = rng.uniform(0.0, 1.0 - bw)
                    ty = rng.uniform(0.0, 1.0 - bh)
                    abs_coords = [(x + tx, y + ty) for x, y in block.coords]
                    cross = ref_probe_cross(abs_coords, grid, pts, d2)
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
                    ok = False
                    break
                placed = (best[1], best[2], best[3])
            tx, ty, cross = placed
            base = len(pts)
            for li, (x, y) in enumerate(block.coords):
                ax, ay = x + tx, y + ty
                pts.append((ax, ay))
                degrees.append(block_deg[li])
                membership.append(bi)
                grid.setdefault((int(ax * inv), int(ay * inv)), []).append(base + li)
            for u, v in block.graph.edges():
                edges.append((base + u, base + v))
            for li, gj in cross:
                edges.append((gj, base + li))
                degrees[base + li] += 1
                degrees[gj] += 1
            roots_global.append(base + block.root)
            block_max = max(degrees[base:])
            if block_max > global_max_deg:
                global_max_deg = block_max
            for li, gj in cross:
                if degrees[gj] > global_max_deg:
                    global_max_deg = degrees[gj]
        if not ok:
            continue
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
    raise GenerationError(
        f"could not place all {cfg.n} blocks with enough cross edges after "
        f"{cfg.assembly_restarts} assembly passes")



def random_graph(rng: random.Random, node_count: int, edge_prob: float):
    edges = []
    for u in range(node_count):
        for v in range(u + 1, node_count):
            if rng.random() < edge_prob:
                edges.append((u, v))
    return build_graph(node_count, edges)


def random_biconnected_graph(rng: random.Random, node_count: int, chords: int):
    """Hamiltonian cycle plus random chords: bi-connected by construction."""
    order = list(range(node_count))
    rng.shuffle(order)
    edge_set = set()
    for i in range(node_count):
        u, v = order[i], order[(i + 1) % node_count]
        edge_set.add((min(u, v), max(u, v)))
    tries = 0
    while tries < chords * 4 and len(edge_set) < node_count + chords:
        u, v = rng.randrange(node_count), rng.randrange(node_count)
        tries += 1
        if u != v:
            edge_set.add((min(u, v), max(u, v)))
    return build_graph(node_count, sorted(edge_set))


def random_instance(rng: random.Random, max_nodes: int = 12) -> Instance:
    """Small random instance: sparse-ish random graph, random distinct
    roots, small capacity.  Not guaranteed solvable beyond the roots."""
    node_count = rng.randint(5, max_nodes)
    g = random_graph(rng, node_count, rng.uniform(0.25, 0.5))
    k = rng.randint(1, 3)
    roots = tuple(rng.sample(range(node_count), k))
    capacity = rng.randint(3, 7)
    return Instance(graph=g, roots=roots, capacity=capacity)
