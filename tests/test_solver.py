import random

import pytest

from bcpart import (Instance, Solution, SolverConfig, build_graph,
                    generate_solution, grow, init_growth, load_solution,
                    objective, save_solution, solution_from_json,
                    solution_to_json, verify_solution)
from bcpart.growth import INF, update_bfs_tree_delete
from oracles import random_instance, subgraph_members


def two_cycles_instance():
    edges = [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4),
             (5, 6), (6, 7), (7, 8), (8, 9), (5, 9)]
    g = build_graph(10, edges)
    return Instance(graph=g, roots=(0, 5), capacity=5)


def test_two_disjoint_cycles_fully_assigned():
    inst = two_cycles_instance()
    for seed in range(10):
        cfg = SolverConfig(p0=1.0, seed=seed)
        sol = generate_solution(inst, cfg, random.Random(seed))
        assert sol.objective == 10
        assert verify_solution(inst, sol).feasible


def test_single_root_matches_plain_growth():
    # with one root the parallel driver reduces to growing one subgraph
    g = build_graph(5, [(i, (i + 1) % 5) for i in range(5)])
    inst = Instance(graph=g, roots=(0,), capacity=5)
    cfg = SolverConfig(p0=1.0, seed=0)
    sol = generate_solution(inst, cfg, random.Random(0))
    st = init_growth(g, 0, 5, 1.0)
    rng = random.Random(0)
    while grow(st, rng):
        pass
    assert sol.objective == len(st.members) == 5
    assert subgraph_members(sol, 1)[0] == sorted(st.members)


def test_two_roots_share_one_cycle():
    # the only cycle needs all 5 nodes, but each root blocks the other:
    # both subgraphs stay at their root
    g = build_graph(5, [(i, (i + 1) % 5) for i in range(5)])
    inst = Instance(graph=g, roots=(0, 2), capacity=5)
    for seed in range(100):
        sol = generate_solution(inst, SolverConfig(seed=seed), random.Random(seed))
        report = verify_solution(inst, sol)
        assert report.feasible
        assert sol.objective == 2
        assert [u for u in range(5) if sol.assignment[u] == 0] == [0]
        assert [u for u in range(5) if sol.assignment[u] == 1] == [2]


def test_objective_counts_assigned():
    assert objective([0, 1, -1, 0, 1]) == 4
    sol = Solution(assignment=(0,) * 10)
    assert sol.objective == 10
    sol = Solution(assignment=(0, 1, 2, -1, -1, -1))
    assert sol.objective == 3


def test_delete_detaches_descendants():
    # tree 0-1 with children 2,3 under 1; deleting 1 resets its subtree
    g = build_graph(4, [(0, 1), (1, 2), (1, 3)])
    st = init_growth(g, 0, 4, 1.0)
    rng = random.Random(0)
    while grow(st, rng):   # builds the BFS tree, no ears
        pass
    assert st.parent[2] == 1 and st.parent[3] == 1
    st.owner[1] = 1          # a sibling subgraph claims 1
    update_bfs_tree_delete(st, [1])
    assert st.dist[1] == INF and st.parent[1] == -1
    assert 1 not in st.children[0]
    for u in (2, 3):
        assert st.dist[u] == INF
        assert st.parent[u] == -1
        assert st.evaluate[u] == 1


def test_delete_reenqueues_quiet_ancestors():
    # chain 0-1-2-3: after the BFS drains, deleting the leaf 3 wakes its
    # ancestors 1 and 2 exactly once
    g = build_graph(4, [(0, 1), (1, 2), (2, 3)])
    st = init_growth(g, 0, 4, 1.0)
    rng = random.Random(0)
    while grow(st, rng):
        pass
    assert list(st.queue) == []
    assert st.evaluate[1] == 0 and st.evaluate[2] == 0
    st.owner[3] = 1          # a sibling subgraph claims 3
    update_bfs_tree_delete(st, [3])
    assert st.dist[3] == INF
    assert st.evaluate[1] == 1 and st.evaluate[2] == 1
    assert sorted(st.queue) == [1, 2]


def test_delete_skips_already_awake_ancestors():
    g = build_graph(4, [(0, 1), (1, 2), (2, 3)])
    st = init_growth(g, 0, 4, 1.0)
    rng = random.Random(0)
    while grow(st, rng):
        pass
    st.evaluate[1] = 1
    st.evaluate[2] = 1
    st.owner[3] = 1
    update_bfs_tree_delete(st, [3])
    # still awake, but not re-enqueued a second time
    assert list(st.queue) == []


def test_delete_of_undiscovered_node_is_a_no_op():
    # the claim lives in the shared owner list; a tree that never reached
    # the claimed node is left exactly as it was
    g = build_graph(4, [(0, 1), (1, 2), (2, 3)])
    st = init_growth(g, 0, 4, 1.0)
    # 2 and 3 not explored yet
    st.owner[3] = 1

    def snapshot():
        return (list(st.parent), list(st.dist), bytes(st.evaluate), list(st.ear_root),
                {u: list(c) for u, c in st.children.items()}, list(st.queue))
    before = snapshot()
    update_bfs_tree_delete(st, [3])
    assert snapshot() == before
    assert st.dist[3] == INF
    assert list(st.queue) == [1]
    # the BFS then walks around the claimed node
    while grow(st, random.Random(0)):
        pass
    assert st.dist[3] == INF and st.parent[2] == 1


def test_roots_blocked_for_other_subgraphs():
    inst = two_cycles_instance()
    sol = generate_solution(inst, SolverConfig(p0=1.0, seed=0), random.Random(0))
    # no node of one cycle can end up in the other subgraph
    for u in range(5):
        assert sol.assignment[u] in (-1, 0)
    for u in range(5, 10):
        assert sol.assignment[u] in (-1, 1)


def test_generation_respects_capacity_everywhere():
    for seed in range(150):
        rng = random.Random(seed)
        inst = random_instance(rng, max_nodes=12)
        sol = generate_solution(inst, SolverConfig(seed=seed), random.Random(seed))
        report = verify_solution(inst, sol)
        assert report.feasible, report.violations
        assert sol.objective <= min(inst.graph.node_count,
                                    len(inst.roots) * inst.capacity)


def test_generation_is_deterministic():
    inst = two_cycles_instance()
    cfg = SolverConfig(seed=5)
    a = generate_solution(inst, cfg, random.Random(5))
    b = generate_solution(inst, cfg, random.Random(5))
    assert a.assignment == b.assignment


def test_solution_json_round_trip():
    sol = Solution(assignment=(0, 0, -1, 1, 1, -1))
    text = solution_to_json(sol, seed=42)
    back, seed = solution_from_json(text)
    assert back.assignment == sol.assignment
    assert back.objective == sol.objective == 4
    assert seed == 42


def test_solution_file_round_trip(tmp_path):
    sol = Solution(assignment=(0, -1, 0))
    path = tmp_path / "sol.json"
    save_solution(sol, 7, path)
    back, seed = load_solution(path)
    assert back.assignment == sol.assignment
    assert seed == 7


def test_solver_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(p0=1.5)
    with pytest.raises(ValueError):
        SolverConfig(max_exp_length=1)
    with pytest.raises(ValueError):
        SolverConfig(max_iterations=0)


@pytest.mark.parametrize("name, value", [
    ("max_iterations", 5.5),       # used to run 6 iterations
    ("max_iterations", True),      # used to run 1
    ("seed", None),                # used to run unseeded
    ("seed", 7.0),
    ("max_exp_length", 2.5),       # used to fail inside the search
    ("regrow_size", "9"),
    ("stagnation_limit", None),
    ("grow_n_attempts", 50.0),
])
def test_solver_config_rejects_non_integer_fields(name, value):
    with pytest.raises(ValueError, match=f"{name} must be an integer"):
        SolverConfig(**{name: value})


@pytest.mark.parametrize("value", ["0.5", None, True, float("nan"), float("inf")])
def test_solver_config_rejects_non_finite_or_non_number_p0(value):
    with pytest.raises(ValueError, match="p0 must be (a number|finite)"):
        SolverConfig(p0=value)
