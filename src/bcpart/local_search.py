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
the fringe (the members' neighbors outside the set) sorted ascending.  Any
rewrite must keep these draws in this order, or every seeded output changes.
The walk makes each draw as randrange's own rejection loop, written inline:
getrandbits(n.bit_length()) until the value is below n, so it consumes the
same RNG words as CPython's rng.randrange(n).

A walk state depends only on its member set M: the fringe is sorted(N(M) - M)
and the seen set M | N(M).  select_regrow_set keys these states by the member
bitmask in a memo that local_search makes afresh whenever it rebuilds the
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


def build_neighbor_graph(instance: Instance,
                         solution: Solution) -> tuple[list[tuple[int, ...]], list[int]]:
    """Derive subgraph adjacency from a solution.

    Returns (neighbors, hits): neighbors[i] lists, ascending, the subgraphs
    linked to subgraph i, and hits lists, ascending, the subgraphs whose
    frontier contains an unassigned node.  Two subgraphs are linked when
    they share a graph edge, or when both border the same connected
    component of the unassigned nodes.
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
    from build_neighbor_graph, `sizes` from Solution.sizes.  `memo` caches
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


def regrow_partial(instance: Instance, solution: Solution, members,
                   config: SolverConfig, rng: Random) -> Solution:
    """Dissolve the given subgraphs and regrow them over their old nodes
    plus all unassigned nodes; every other assignment is carried over."""
    chosen = set(members)
    if not chosen:
        raise ValueError("regrow set must not be empty")
    owner = [-1 if a in chosen else a for a in solution.assignment]
    return Solution(_grow_parallel(instance, owner, sorted(chosen), config, rng))


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
    neighbors, hits = build_neighbor_graph(instance, best)
    memo = {}
    sizes = best.sizes(k)
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
            neighbors, hits = build_neighbor_graph(instance, best)
            memo = {}
            sizes = best.sizes(k)
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
