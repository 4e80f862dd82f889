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

GROW-N RNG contract: each walk attempt makes one draw,
rng.randrange(len(seeds)), to pick its seed among the non-full subgraphs in
index order, then one draw per step, rng.randrange(len(fringe)), that indexes
the fringe (the members' neighbors outside the set) sorted ascending.  The
walk updates that sorted fringe as members join instead of rebuilding it,
so a step costs O(deg log |fringe|) comparisons; any rewrite must keep these
draws in this order, or every seeded output changes.
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
    "GROW_R", "GROW_N", "SearchStats", "build_neighbor_graph",
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


def build_neighbor_graph(instance: Instance, solution: Solution) -> list[tuple[int, ...]]:
    """Derive subgraph adjacency from a solution: entry i lists, ascending,
    the subgraphs linked to subgraph i.

    Two subgraphs are linked when they share a graph edge, or when both
    border the same connected component of the unassigned nodes.
    """
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
    return [tuple(sorted(vs - {i})) for i, vs in enumerate(linked)]


def _frontier_hits(instance: Instance, solution: Solution) -> list[int]:
    """Subgraphs whose frontier contains at least one unassigned node."""
    adj = instance.graph.adjacency
    assignment = solution.assignment
    hits: set[int] = set()
    for u, a in enumerate(assignment):
        if a != -1:
            continue
        for w in adj[u]:
            aw = assignment[w]
            if aw != -1:
                hits.add(aw)
    return sorted(hits)


def select_regrow_set(instance: Instance, solution: Solution,
                      neighbors: list[tuple[int, ...]], m: int, mode: str,
                      config: SolverConfig, rng: Random,
                      sizes=None, frontier_hits=None) -> frozenset[int] | None:
    """Choose the subgraphs to dissolve; None when no useful set exists.

    The target size m is capped at the subgraph count.  Any returned set
    contains a non-full subgraph, and under "grow-n" the members induce a
    connected subgraph of the neighbor graph grown from a random non-full
    seed (a set that exhausts its component below m is still accepted when
    it touches unassigned nodes).  `neighbors` is the adjacency returned by
    build_neighbor_graph.
    """
    if mode not in (GROW_R, GROW_N):
        raise ValueError(f"unknown regrow mode: {mode}")
    k = instance.subgraph_count
    if sizes is None:
        sizes = solution.sizes(k)
    if frontier_hits is None:
        frontier_hits = _frontier_hits(instance, solution)
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
    hits_set = set(frontier_hits)
    size_goal = target
    while size_goal <= k:
        for _ in range(config.grow_n_attempts):
            u = seeds[rng.randrange(len(seeds))]
            members = {u}
            # fringe: the members' neighbors outside the set, kept ascending;
            # each new member adds its unseen neighbors (seen = members | fringe)
            seen = {u}
            fringe: list[int] = []
            while len(members) < size_goal:
                for w in neighbors[u]:
                    if w not in seen:
                        seen.add(w)
                        insort(fringe, w)
                if not fringe:
                    break
                u = fringe.pop(rng.randrange(len(fringe)))
                members.add(u)
            if not hits_set.isdisjoint(members):
                return frozenset(members)
        size_goal += 1
    return None


def regrow_partial(instance: Instance, solution: Solution, members,
                   config: SolverConfig, rng: Random) -> Solution:
    """Dissolve the given subgraphs and regrow them over their old nodes
    plus all unassigned nodes; every other assignment is carried over."""
    chosen = sorted(set(members))
    if not chosen:
        raise ValueError("regrow set must not be empty")
    g = instance.graph
    assignment = list(solution.assignment)
    chosen_set = set(chosen)
    pool = bytearray(g.node_count)
    for u, a in enumerate(assignment):
        if a == -1 or a in chosen_set:
            pool[u] = 1
    roots = [instance.roots[i] for i in chosen]
    grown = _grow_parallel(g, roots, instance.capacity, config, rng, pool=pool)
    for u, a in enumerate(assignment):
        if a in chosen_set:
            assignment[u] = -1
    for idx, nodes in enumerate(grown):
        label = chosen[idx]
        for u in nodes:
            assignment[u] = label
    return Solution(tuple(assignment))


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
    best = generate_solution(instance, config, rng)
    generated = 1
    best_iter = 1
    best_ms = (time.perf_counter() - t0) * 1000.0
    if trace is not None:
        trace.append((1, best.objective))
    k = instance.subgraph_count
    n = instance.graph.node_count
    neighbors = build_neighbor_graph(instance, best)
    sizes = best.sizes(k)
    hits = _frontier_hits(instance, best)
    stagnation = 0
    while generated < config.max_iterations and stagnation < config.stagnation_limit:
        if best.objective == n:
            break
        if all(s >= instance.capacity for s in sizes):
            break
        m = rng.randint(2, config.regrow_size)
        pick = select_regrow_set(instance, best, neighbors, m, mode,
                                 config, rng, sizes=sizes, frontier_hits=hits)
        if pick is None:
            break
        candidate = regrow_partial(instance, best, pick, config, rng)
        generated += 1
        if candidate.objective >= best.objective:
            if candidate.objective > best.objective:
                stagnation = 0
                best_iter = generated
                best_ms = (time.perf_counter() - t0) * 1000.0
            else:
                stagnation += 1
            best = candidate
            neighbors = build_neighbor_graph(instance, best)
            sizes = best.sizes(k)
            hits = _frontier_hits(instance, best)
            if trace is not None:
                trace.append((generated, best.objective))
        else:
            stagnation += 1
    total_ms = (time.perf_counter() - t0) * 1000.0
    stats = SearchStats(
        best_objective=best.objective,
        iterations=generated,
        iteration_of_best=best_iter,
        wall_millis=best_ms,
        seed=config.seed,
        mode=mode,
        total_millis=total_ms,
    )
    return best, stats
