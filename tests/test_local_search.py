import importlib
import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from bcpart import (GROW_N, GROW_R, Instance, Solution, SolverConfig, build_graph,
                    generate_solution, local_search, verify_solution)
from bcpart.local_search import (NeighborLinks, build_neighbor_graph, regrow_partial,
                                 select_regrow_set)
from oracles import (random_instance, ref_grow_n_walk, subgraph_members,
                     unassigned_path_exists)

# the package re-exports a function named local_search, so the module is
# looked up by its full name
ls = importlib.import_module("bcpart.local_search")


def working_copy(inst, sol):
    """The in-place search state of a solution: owner list, member lists, free set."""
    owner = list(sol.assignment)
    members = subgraph_members(sol, inst.subgraph_count)
    free = {u for u, a in enumerate(owner) if a == -1}
    return owner, members, free


def neighbor_graph(inst, sol):
    """build_neighbor_graph's first build: empty direct rows, every label."""
    owner, members, free = working_copy(inst, sol)
    k = inst.subgraph_count
    return build_neighbor_graph(inst, owner, members, free, NeighborLinks(k), range(k))


def three_triangles():
    """Three fully assigned triangles; 1<->2 touch directly, 0 reaches 1 and
    2 only through the unassigned connectors 9 and 10."""
    edges = [
        (0, 1), (1, 2), (0, 2),        # subgraph 0
        (3, 4), (4, 5), (3, 5),        # subgraph 1
        (6, 7), (7, 8), (6, 8),        # subgraph 2
        (5, 6),                        # direct contact 1-2
        (2, 9), (9, 3),                # 0 .. 1 via node 9
        (1, 10), (10, 7),              # 0 .. 2 via node 10
    ]
    g = build_graph(11, edges)
    inst = Instance(graph=g, roots=(0, 3, 6), capacity=3)
    sol = Solution(assignment=(0, 0, 0, 1, 1, 1, 2, 2, 2, -1, -1))
    return inst, sol


def test_frontier_of_singleton_root():
    g = build_graph(4, [(0, 1), (0, 2), (0, 3)])
    inst = Instance(graph=g, roots=(0,), capacity=4)
    sol = Solution(assignment=(0, -1, -1, -1))
    assert neighbor_graph(inst, sol) == ([()], [0])


def test_frontier_of_isolated_subgraph():
    edges = [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)]
    g = build_graph(7, edges)   # node 6 isolated, unassigned
    inst = Instance(graph=g, roots=(0, 3), capacity=3)
    sol = Solution(assignment=(0, 0, 0, 1, 1, 1, -1))
    assert neighbor_graph(inst, sol) == ([(), ()], [])


def test_frontiers_of_touching_subgraphs():
    # 6 is the only unassigned node: it borders 1 through the edge (5, 6)
    # and sits next to 7 and 8 of subgraph 2
    inst, _ = three_triangles()
    sol = Solution(assignment=(0, 0, 0, 1, 1, 1, -1, 2, 2, 0, 0))
    assert neighbor_graph(inst, sol)[1] == [1, 2]


def test_neighbor_graph_direct_and_via():
    # 1-2 share an edge; 0 reaches both only through the connectors
    inst, sol = three_triangles()
    assert neighbor_graph(inst, sol) == ([(1, 2), (0, 2), (0, 1)], [0, 1, 2])
    # cut 0 off from the connectors: only the shared edge is left
    g = build_graph(11, [e for e in inst.graph.edges() if e not in ((2, 9), (1, 10))])
    apart = Instance(graph=g, roots=inst.roots, capacity=3)
    assert neighbor_graph(apart, sol) == ([(), (2,), (1,)], [1, 2])


def test_neighbor_graph_no_unassigned():
    edges = [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (2, 3)]
    g = build_graph(6, edges)
    inst = Instance(graph=g, roots=(0, 3), capacity=3)
    sol = Solution(assignment=(0, 0, 0, 1, 1, 1))
    assert neighbor_graph(inst, sol) == ([(1,), (0,)], [])


def test_neighbor_graph_fully_disconnected():
    edges = [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)]
    g = build_graph(6, edges)
    inst = Instance(graph=g, roots=(0, 3), capacity=3)
    sol = Solution(assignment=(0, 0, 0, 1, 1, 1))
    assert neighbor_graph(inst, sol) == ([(), ()], [])


def test_connector_component_links_all_bordering_subgraphs():
    # without the shared edge (5, 6), 1 and 2 are linked only once node 11
    # joins connectors 9 and 10 into one unassigned component
    inst, _ = three_triangles()
    edges = [e for e in inst.graph.edges() if e != (5, 6)]
    sol = Solution(assignment=(0, 0, 0, 1, 1, 1, 2, 2, 2, -1, -1, -1))
    apart = Instance(graph=build_graph(12, edges), roots=(0, 3, 6), capacity=3)
    assert neighbor_graph(apart, sol) == ([(1, 2), (0,), (0,)], [0, 1, 2])
    joined = Instance(graph=build_graph(12, edges + [(9, 11), (11, 10)]),
                      roots=(0, 3, 6), capacity=3)
    assert neighbor_graph(joined, sol) == ([(1, 2), (0, 2), (0, 1)], [0, 1, 2])


def test_via_edges_match_exhaustive_path_search():
    for seed in range(100):
        rng = random.Random(seed)
        inst = random_instance(rng, max_nodes=14)
        sol = generate_solution(inst, SolverConfig(seed=seed), random.Random(seed))
        a = sol.assignment
        k = len(inst.roots)
        expected = [set() for _ in range(k)]
        for u, v in inst.graph.edges():
            if a[u] != -1 and a[v] != -1 and a[u] != a[v]:
                expected[a[u]].add(a[v])
                expected[a[v]].add(a[u])
        for i in range(k):
            for j in range(i + 1, k):
                if unassigned_path_exists(inst.graph, a, i, j):
                    expected[i].add(j)
                    expected[j].add(i)
        hits = {a[w] for u in range(len(a)) if a[u] == -1
                for w in inst.graph.adjacency[u] if a[w] != -1}
        assert neighbor_graph(inst, sol) == ([tuple(sorted(e)) for e in expected],
                                             sorted(hits))


def test_select_all_full_returns_none():
    edges = [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (2, 6), (6, 3)]
    g = build_graph(7, edges)
    inst = Instance(graph=g, roots=(0, 3), capacity=3)
    sol = Solution(assignment=(0, 0, 0, 1, 1, 1, -1))
    ng, hits = neighbor_graph(inst, sol)
    for mode in (GROW_R, GROW_N):
        sizes = [len(part) for part in subgraph_members(sol, 2)]
        picked = select_regrow_set(inst, ng, sizes, hits, 2, mode,
                                   SolverConfig(seed=0), random.Random(0), {})
        assert picked is None    # both subgraphs are at capacity


def test_select_needs_unassigned_frontier():
    # unassigned node exists but touches nothing growable
    edges = [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)]
    g = build_graph(7, edges)   # node 6 isolated, unassigned
    inst = Instance(graph=g, roots=(0, 3), capacity=4)
    sol = Solution(assignment=(0, 0, 0, 1, 1, 1, -1))
    ng, hits = neighbor_graph(inst, sol)
    sizes = [len(part) for part in subgraph_members(sol, 2)]
    picked = select_regrow_set(inst, ng, sizes, hits, 2, GROW_R,
                               SolverConfig(seed=0), random.Random(0), {})
    assert picked is None


def test_select_grow_r_members():
    inst, sol = three_triangles()
    # free a slot in subgraph 0 so it is not full
    sol = Solution(assignment=(0, 0, -1, 1, 1, 1, 2, 2, 2, -1, -1))
    ng, hits = neighbor_graph(inst, sol)
    for seed in range(30):
        sizes = [len(part) for part in subgraph_members(sol, 3)]
        picked = select_regrow_set(inst, ng, sizes, hits, 2, GROW_R,
                                   SolverConfig(seed=seed), random.Random(seed), {})
        assert picked is not None and len(picked) == 2
        assert any(len([u for u in range(11) if sol.assignment[u] == i]) < 3
                   for i in picked)
        assert any(i in hits for i in picked)


def test_select_grow_n_members_connected():
    for seed in range(60):
        rng = random.Random(seed)
        inst = random_instance(rng, max_nodes=14)
        sol = generate_solution(inst, SolverConfig(seed=seed), random.Random(seed))
        ng, hits = neighbor_graph(inst, sol)
        m = rng.randint(2, 4)
        sizes = [len(part) for part in subgraph_members(sol, len(inst.roots))]
        picked = select_regrow_set(inst, ng, sizes, hits, m, GROW_N,
                                   SolverConfig(seed=seed), random.Random(seed), {})
        if picked is None:
            continue
        members = sorted(picked)
        if len(members) == 1:
            continue
        # connectivity inside the subgraph-neighbor graph
        reach = {members[0]}
        todo = [members[0]]
        while todo:
            x = todo.pop()
            for b in ng[x]:
                if b in picked and b not in reach:
                    reach.add(b)
                    todo.append(b)
        assert reach == picked


CAPACITY = 10


@st.composite
def walk_inputs(draw):
    """A subgraph neighbor graph with seeds (non-full subgraphs) and
    frontier hits.  "far-hit" is a path with one seed at one end and one hit
    at the other, which forces the size goal up to k; "unreachable" puts the
    only hits in a component no seed can reach, so the answer is None."""
    k = draw(st.integers(2, 30))
    shape = draw(st.sampled_from(["random", "far-hit", "unreachable"]))
    if shape != "random":
        order = draw(st.permutations(range(k)))
    if shape == "random":
        # a per-graph edge probability reaches both sparse, disconnected
        # graphs and dense ones; plain edge lists stay near-empty
        density = draw(st.floats(0.0, 0.6))
        rnd = draw(st.randoms(use_true_random=False))
        edges = [(a, b) for a in range(k) for b in range(a + 1, k)
                 if rnd.random() < density]
        seeds = draw(st.lists(st.sampled_from(range(k)), min_size=1, unique=True))
        hits = draw(st.lists(st.sampled_from(range(k)), min_size=1, unique=True))
    elif shape == "far-hit":
        edges = [(order[i], order[i + 1]) for i in range(k - 1)]
        seeds, hits = [order[0]], [order[-1]]
    else:
        cut = draw(st.integers(1, k - 1))
        edges = [(order[i], order[i + 1]) for i in range(k - 1) if i != cut - 1]
        seeds = draw(st.lists(st.sampled_from(order[:cut]), min_size=1, unique=True))
        hits = draw(st.lists(st.sampled_from(order[cut:]), min_size=1, unique=True))
    adjacency: dict[int, set[int]] = {}
    for a, b in edges:
        adjacency.setdefault(a, set()).add(b)
        adjacency.setdefault(b, set()).add(a)
    adjacency = {i: tuple(sorted(vs)) for i, vs in adjacency.items()}
    sizes = [CAPACITY - 1 if i in seeds else CAPACITY for i in range(k)]
    return k, adjacency, sizes, sorted(hits)


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(walk_inputs(), st.lists(st.integers(1, 12), min_size=3, max_size=3, unique=True),
       st.integers(2, 12), st.integers(1, 50), st.integers(0, 2**32))
def test_grow_n_walk_matches_reference_draw_for_draw(inputs, ms, regrow_size, attempts,
                                                     seed):
    # three selects over one neighbor graph share one walk-state memo, as
    # they do in local_search between two rebuilds of the graph
    k, adjacency, sizes, hits = inputs
    inst = Instance(graph=build_graph(k, []), roots=tuple(range(k)), capacity=CAPACITY)
    neighbors = [adjacency.get(i, ()) for i in range(k)]
    config = SolverConfig(grow_n_attempts=attempts, regrow_size=regrow_size)
    seeds = [i for i in range(k) if sizes[i] < CAPACITY]
    rng, ref_rng = random.Random(seed), random.Random(seed)
    memo = {}
    for m in ms:
        picked = select_regrow_set(inst, neighbors, sizes, hits, m, GROW_N, config, rng, memo)
        expected = ref_grow_n_walk(adjacency, seeds, hits, min(m, k), k, attempts, ref_rng)
        assert picked == expected
        assert rng.getstate() == ref_rng.getstate()
    assert all(bin(mask).count("1") < regrow_size for mask in memo)


def regrown(inst, sol, picked, config, rng):
    """regrow_partial on a working copy of sol.  Returns the objective it
    reports, the candidate as _grow_parallel left it, and the owner list
    after the call (the candidate if kept, else the incumbent again)."""
    owner, members, _ = working_copy(inst, sol)
    grow_parallel, seen = ls._grow_parallel, []

    def recorded(instance, owner, labels, config, rng):
        claims = grow_parallel(instance, owner, labels, config, rng)
        seen.append(tuple(owner))
        return claims

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ls, "_grow_parallel", recorded)
        value, _ = regrow_partial(inst, owner, members, picked, sol.objective, config, rng)
    candidate = Solution(seen[0])
    assert value == candidate.objective
    assert tuple(owner) == (candidate if value >= sol.objective else sol).assignment
    return candidate


def test_regrow_never_touches_outside_subgraphs():
    cases = 0
    for seed in range(100):
        rng = random.Random(seed)
        inst = random_instance(rng, max_nodes=14)
        sol = generate_solution(inst, SolverConfig(seed=seed), random.Random(seed))
        ng, hits = neighbor_graph(inst, sol)
        sizes = [len(part) for part in subgraph_members(sol, len(inst.roots))]
        picked = select_regrow_set(inst, ng, sizes, hits,
                                   rng.randint(2, 3), GROW_R, SolverConfig(seed=seed), rng, {})
        if picked is None:
            continue
        cases += 1
        cand = regrown(inst, sol, picked, SolverConfig(seed=seed), rng)
        for u in range(inst.graph.node_count):
            old = sol.assignment[u]
            if old != -1 and old not in picked:
                assert cand.assignment[u] == old
            if cand.assignment[u] != old:
                assert cand.assignment[u] in picked | {-1}
        assert verify_solution(inst, cand).feasible
    assert cases >= 30


def test_regrow_of_everything_equals_fresh_generation():
    inst, sol = three_triangles()
    cfg = SolverConfig(seed=11)
    cand = regrown(inst, sol, {0, 1, 2}, cfg, random.Random(11))
    fresh = generate_solution(inst, cfg, random.Random(11))
    assert cand.assignment == fresh.assignment


def test_local_search_two_cycles_reaches_ten():
    edges = [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4),
             (5, 6), (6, 7), (7, 8), (8, 9), (5, 9)]
    g = build_graph(10, edges)
    inst = Instance(graph=g, roots=(0, 5), capacity=5)
    for seed in range(5):
        best, stats = local_search(inst, SolverConfig(p0=1.0, seed=seed), GROW_N)
        assert best.objective == 10
        assert stats.best_objective == 10
        assert stats.iterations >= 1


def test_local_search_trace_non_decreasing():
    for seed in range(10):
        rng = random.Random(seed)
        inst = random_instance(rng, max_nodes=14)
        trace = []
        cfg = SolverConfig(seed=seed, max_iterations=60, stagnation_limit=25)
        best, stats = local_search(inst, cfg, GROW_N, trace=trace)
        objs = [obj for (_, obj) in trace]
        assert objs == sorted(objs)
        assert objs and objs[-1] == best.objective
        assert verify_solution(inst, best).feasible
        assert stats.iteration_of_best <= stats.iterations <= cfg.max_iterations


def test_local_search_stats_fields():
    inst, _ = three_triangles()
    best, stats = local_search(inst, SolverConfig(seed=1, max_iterations=20,
                                                  stagnation_limit=10), GROW_R)
    d = stats.as_dict()
    for key in ("bestObjective", "iterations", "iterationOfBest",
                "wallMillis", "seed", "mode", "totalMillis"):
        assert key in d
    assert d["mode"] == GROW_R
    assert d["seed"] == 1
    assert d["bestObjective"] == best.objective


def test_local_search_deterministic():
    for seed in (0, 3):
        rng_seed = SolverConfig(seed=seed, max_iterations=50, stagnation_limit=20)
        inst = random_instance(random.Random(42), max_nodes=14)
        a, sa = local_search(inst, rng_seed, GROW_N)
        b, sb = local_search(inst, rng_seed, GROW_N)
        assert a.assignment == b.assignment
        assert sa.iterations == sb.iterations
        assert sa.iteration_of_best == sb.iteration_of_best


def test_local_search_stops_when_everything_assigned():
    # both subgraphs fill instantly; the loop must end right away
    edges = [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)]
    g = build_graph(6, edges)
    inst = Instance(graph=g, roots=(0, 3), capacity=3)
    best, stats = local_search(inst, SolverConfig(p0=1.0, seed=0), GROW_N)
    assert best.objective == 6
    assert stats.iterations == 1
