"""Iterated partial regrowth around the incumbent solution.

Each iteration picks a small set I of subgraphs, dissolves them, and regrows
them (same parallel ear growth as construction) over their old nodes plus
all currently unassigned nodes; everything outside I is untouched.  A
candidate replaces the incumbent when its objective is at least as good;
only strict improvements reset the stagnation counter.

Two strategies choose I.  The random one ("grow-r") combines one non-full
subgraph, one subgraph whose frontier touches unassigned nodes, and random
extras.  The neighborhood one ("grow-n") walks a connected set in the
subgraph neighbor graph, whose edges join subgraphs that either share a
graph edge directly or both touch the same connected pocket of unassigned
nodes.

The search keeps its incumbent in place: one owner list (node -> label, -1
= free), one member list per label, the free nodes and the sizes.
regrow_partial grows each candidate in that owner list: it writes -1 over
the chosen subgraphs' members, regrows them, and reads the candidate's
objective off the claim log (the incumbent's, minus the freed members, plus
the roots and the claims).  A worse candidate is undone from the same log,
so a candidate costs the regrown subgraphs, not n.  Only an accepted one
updates the member lists, sizes and free nodes, and build_neighbor_graph
then derives again only what the relabelled nodes can reach.  The Solution
is built once, when the search returns.

GROW-N RNG contract: each walk attempt makes one draw,
rng.randrange(len(seeds)), to pick its seed among the non-full subgraphs in
index order, then one draw per step, rng.randrange(len(fringe)), that indexes
the fringe (the members' neighbors outside the set) sorted ascending.  Any
rewrite must keep these draws in this order, or every seeded output changes.
The walk makes each draw as randrange's own rejection loop, written inline:
getrandbits(n.bit_length()) until the value is below n, so it consumes the
same RNG words as CPython's rng.randrange(n).

A walk state depends only on its member set M: the fringe is sorted(N(M) - M)
and the seen set M | N(M).  select_regrow_set keys these states by the member
bitmask in a memo that local_search makes afresh whenever it updates the
neighbor graph, and derives a missing state from its parent's in one step.
Only sets with fewer than config.regrow_size members are stored, which bounds
the memo; the rare deeper steps are derived and dropped.
"""

from __future__ import annotations

import time
from bisect import insort
from dataclasses import dataclass
from random import Random

from .graph import Instance
from .solver import Solution, SolverConfig, _grow_parallel, generate_solution

GROW_R = "grow-r"
GROW_N = "grow-n"

__all__ = [
    "GROW_R", "GROW_N", "SearchStats", "NeighborLinks", "build_neighbor_graph",
    "select_regrow_set", "regrow_partial", "local_search",
]


@dataclass
class SearchStats:
    best_objective: int
    iterations: int          # generated solutions, initial one included
    iteration_of_best: int   # 1-based index of the last strict improvement
    wall_millis: float       # elapsed when the best solution appeared
    seed: int
    mode: str
    total_millis: float = 0.0

    def as_dict(self) -> dict:
        return {
            "bestObjective": self.best_objective,
            "iterations": self.iterations,
            "iterationOfBest": self.iteration_of_best,
            "wallMillis": self.wall_millis,
            "seed": self.seed,
            "mode": self.mode,
            "totalMillis": self.total_millis,
        }


class NeighborLinks:
    """What build_neighbor_graph keeps between its calls over one search.

    direct[i]: the subgraphs sharing a graph edge with subgraph i.
    pocket_of: each unassigned node -> the name of its connected component
    of unassigned nodes (a pocket), which is one of the pocket's nodes.
    pockets: pocket name -> (its nodes, the subgraphs bordering it).
    touching[i]: the names of the pockets subgraph i borders.
    neighbors: the rows of the last neighbor graph built.
    """

    __slots__ = ("direct", "pocket_of", "pockets", "touching", "neighbors")

    def __init__(self, subgraph_count: int):
        self.direct: list[set[int]] = [set() for _ in range(subgraph_count)]
        self.pocket_of: dict[int, int] = {}
        self.pockets: dict[int, tuple[list[int], set[int]]] = {}
        self.touching: list[set[int]] = [set() for _ in range(subgraph_count)]
        self.neighbors: list[tuple[int, ...]] = [()] * subgraph_count


def build_neighbor_graph(instance: Instance, owner: list[int], members: list[list[int]],
                         free: set[int], links: NeighborLinks,
                         labels) -> tuple[list[tuple[int, ...]], list[int]]:
    """Derive subgraph adjacency from the assignment `owner`.

    Returns (neighbors, hits): neighbors[i] lists, ascending, the subgraphs
    linked to subgraph i, and hits lists, ascending, the subgraphs whose
    frontier contains an unassigned node.  Two subgraphs are linked when
    they share a graph edge, or when both border the same connected
    component of the unassigned nodes.

    `members[i]` holds subgraph i's nodes and `free` the unassigned ones.
    `links` carries the graph over from the last call, and `labels` names
    the subgraphs whose nodes changed since then; a first build passes a
    fresh NeighborLinks and every label.  Only what a changed node can reach
    is derived again: the direct rows of `labels`, the pockets that hold or
    border a node whose label changed, and the rows those two touch.
    """
    adj = instance.graph.adjacency
    label_of = owner.__getitem__
    direct, pocket_of, pockets, touching = (links.direct, links.pocket_of, links.pockets,
                                            links.touching)
    dirty = set(labels)
    for a in labels:
        row = direct[a]
        for b in row:
            direct[b].discard(a)
        dirty |= row
        row.clear()
    # every node whose label changed is a member of `labels` now or is free
    # and in no pocket yet; near gathers them with their neighbors
    near: set[int] = set()
    for a in labels:
        row = direct[a]
        nodes = members[a]
        near.update(nodes)
        for u in nodes:
            nbrs = adj[u]
            row.update(map(label_of, nbrs))
            near.update(nbrs)
        row -= {-1, a}
        for b in row:
            direct[b].add(a)
        dirty |= row
    unseen = free.difference(pocket_of)
    for u in unseen:
        near.update(adj[u])
    for name in {pocket_of[u] for u in pocket_of.keys() & near}:
        nodes, border = pockets.pop(name)
        for a in border:
            touching[a].discard(name)
        dirty |= border
        for u in nodes:
            del pocket_of[u]
        unseen.update(nodes)
    unseen &= free
    while unseen:
        # flood one pocket, collecting the subgraphs bordering it
        name = unseen.pop()
        nodes = [name]
        border: set[int] = set()
        stack = [name]
        while stack:
            nbrs = adj[stack.pop()]
            border.update(map(label_of, nbrs))
            fresh = unseen.intersection(nbrs)
            if fresh:
                unseen -= fresh
                stack += fresh
                nodes += fresh
        border.discard(-1)
        pocket_of.update(dict.fromkeys(nodes, name))
        pockets[name] = (nodes, border)
        for a in border:
            touching[a].add(name)
        dirty |= border
    neighbors = links.neighbors
    for i in dirty:
        row = set(direct[i])
        for name in touching[i]:
            row |= pockets[name][1]
        row.discard(i)
        neighbors[i] = tuple(sorted(row))
    return list(neighbors), [i for i, names in enumerate(touching) if names]


def select_regrow_set(instance: Instance, neighbors: list[tuple[int, ...]],
                      sizes: list[int], frontier_hits: list[int], m: int, mode: str,
                      config: SolverConfig, rng: Random,
                      memo: dict[int, tuple[list[int], int]]) -> frozenset[int] | None:
    """Choose the subgraphs to dissolve; None when no useful set exists.

    The target size m is capped at the subgraph count.  Any returned set
    contains a non-full subgraph, and under "grow-n" the members induce a
    connected subgraph of the neighbor graph grown from a random non-full
    seed (a set that exhausts its component below m is still accepted when
    it touches unassigned nodes).  `neighbors` and `frontier_hits` come
    from build_neighbor_graph, `sizes` holds the subgraph sizes.  `memo` caches
    the GROW-N walk states; pass the same dict for every call over one
    neighbor graph and a new one when the graph changes.
    """
    if mode not in (GROW_R, GROW_N):
        raise ValueError(f"unknown regrow mode: {mode}")
    k = instance.subgraph_count
    if not frontier_hits:
        return None
    seeds = [i for i in range(k) if sizes[i] < instance.capacity]
    if not seeds:
        return None
    target = min(m, k)
    if mode == GROW_R:
        i = seeds[rng.randrange(len(seeds))]
        j = frontier_hits[rng.randrange(len(frontier_hits))]
        members = {i, j}
        rest = sorted(set(range(k)) - members)
        while len(members) < target and rest:
            members.add(rest.pop(rng.randrange(len(rest))))
        return frozenset(members)
    getrandbits = rng.getrandbits
    hit_mask = sum(1 << i for i in frontier_hits)
    n_seeds = len(seeds)
    seed_bits = n_seeds.bit_length()
    bound = config.regrow_size
    size_goal = target
    while size_goal <= k:
        for _ in range(config.grow_n_attempts):
            # rng.randrange(n_seeds), inlined: the same getrandbits words
            r = getrandbits(seed_bits)
            while r >= n_seeds:
                r = getrandbits(seed_bits)
            u = seeds[r]
            mask = 1 << u
            size = 1
            # as if u were drawn at index 0 from a fringe holding only u
            fringe, seen, r = [u], mask, 0
            while size < size_goal:
                state = memo.get(mask)
                if state is None:
                    # the state of mask from its parent's: drop the drawn
                    # index, add u's unseen neighbors (never touch a stored list)
                    fringe = fringe[:r] + fringe[r + 1:]
                    for w in neighbors[u]:
                        if not seen >> w & 1:
                            seen |= 1 << w
                            insort(fringe, w)
                    if size < bound:
                        memo[mask] = (fringe, seen)
                else:
                    fringe, seen = state
                n = len(fringe)
                if not n:
                    break
                # rng.randrange(n), inlined
                b = n.bit_length()
                r = getrandbits(b)
                while r >= n:
                    r = getrandbits(b)
                u = fringe[r]
                mask |= 1 << u
                size += 1
            if mask & hit_mask:
                return frozenset(i for i in range(k) if mask >> i & 1)
        size_goal += 1
    return None


def regrow_partial(instance: Instance, owner: list[int], members: list[list[int]],
                   pick, incumbent: int, config: SolverConfig,
                   rng: Random) -> tuple[int, list[int]]:
    """Dissolve the subgraphs in `pick` and regrow them in place over their
    old nodes plus all unassigned nodes; every other label stays.

    `owner` is the incumbent assignment, `members[i]` subgraph i's nodes
    and `incumbent` its objective.  Returns (objective, claims): the
    candidate's objective and _grow_parallel's claim log.  A candidate at
    least as good as the incumbent is left in `owner`; a worse one is undone
    (its claims freed, the old members relabelled; they include the roots),
    so `owner` is the incumbent again.  `members` is never written.
    """
    labels = sorted(pick)
    if not labels:
        raise ValueError("regrow set must not be empty")
    freed = 0
    for a in labels:
        nodes = members[a]
        freed += len(nodes)
        for u in nodes:
            owner[u] = -1
    claims = _grow_parallel(instance, owner, labels, config, rng)
    value = incumbent - freed + len(labels) + len(claims)
    if value < incumbent:
        for u in claims:
            owner[u] = -1
        for a in labels:
            for u in members[a]:
                owner[u] = a
    return value, claims


def local_search(instance: Instance, config: SolverConfig, mode: str,
                 trace=None) -> tuple[Solution, SearchStats]:
    """Full solve: one constructed solution, then iterated partial regrowth.

    Runs until the generated-solution budget or the stagnation limit is
    reached, or no regrowable subset remains.  `trace`, when given, collects
    (iteration, objective) at every accepted solution.
    """
    if mode not in (GROW_R, GROW_N):
        raise ValueError(f"unknown regrow mode: {mode}")
    rng = Random(config.seed)
    t0 = time.perf_counter()
    first = generate_solution(instance, config, rng)
    owner = list(first.assignment)
    best = first.objective
    generated = 1
    best_iter = 1
    best_ms = (time.perf_counter() - t0) * 1000.0
    if trace is not None:
        trace.append((1, best))
    k = instance.subgraph_count
    roots = instance.roots
    # the incumbent, kept in place: owner plus one member list per label
    members: list[list[int]] = [[] for _ in range(k)]
    free: set[int] = set()
    for u, a in enumerate(owner):
        if a == -1:
            free.add(u)
        else:
            members[a].append(u)
    sizes = [len(nodes) for nodes in members]
    links = NeighborLinks(k)
    neighbors, hits = build_neighbor_graph(instance, owner, members, free, links, range(k))
    memo = {}
    stagnation = 0
    while generated < config.max_iterations and stagnation < config.stagnation_limit:
        m = rng.randint(2, config.regrow_size)
        pick = select_regrow_set(instance, neighbors, sizes, hits, m, mode, config, rng,
                                 memo)
        if pick is None:
            break
        value, claims = regrow_partial(instance, owner, members, pick, best, config, rng)
        generated += 1
        if value >= best:
            if value > best:
                stagnation = 0
                best_iter = generated
                best_ms = (time.perf_counter() - t0) * 1000.0
            else:
                stagnation += 1
            best = value
            for a in pick:
                free.update(members[a])
                members[a] = [roots[a]]
            for u in claims:
                members[owner[u]].append(u)
            for a in pick:
                free.difference_update(members[a])
                sizes[a] = len(members[a])
            neighbors, hits = build_neighbor_graph(instance, owner, members, free, links,
                                                   pick)
            memo = {}
            if trace is not None:
                trace.append((generated, best))
        else:
            stagnation += 1
    total_ms = (time.perf_counter() - t0) * 1000.0
    return Solution(owner), SearchStats(
        best_objective=best,
        iterations=generated,
        iteration_of_best=best_iter,
        wall_millis=best_ms,
        seed=config.seed,
        mode=mode,
        total_millis=total_ms,
    )
