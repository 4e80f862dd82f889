import json
import math
import random

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bcpart import (Instance, biconnected_components, build_graph, disc_radius,
                    instance_from_json, instance_to_json, is_biconnected,
                    unit_disc_graph)
from oracles import random_graph, ref_biconnected, two_disjoint_paths


def cycle_graph(n):
    return build_graph(n, [(i, (i + 1) % n) for i in range(n)])


def test_build_graph_adjacency_order():
    g = build_graph(3, [(0, 1), (1, 2)])
    assert list(g.adjacency[1]) == [0, 2]
    assert list(g.adjacency[0]) == [1]
    assert g.edge_count() == 2


def test_build_graph_rejects_self_loop():
    with pytest.raises(ValueError):
        build_graph(2, [(0, 0)])


def test_build_graph_rejects_duplicate_edge():
    with pytest.raises(ValueError):
        build_graph(3, [(0, 1), (0, 1)])
    with pytest.raises(ValueError):
        build_graph(3, [(0, 1), (1, 0)])


def test_build_graph_rejects_out_of_range():
    with pytest.raises(ValueError):
        build_graph(2, [(0, 2)])


def test_insertion_order_is_preserved():
    # neighbor lists follow first appearance in the edge sequence
    g = build_graph(4, [(2, 0), (0, 1), (3, 0)])
    assert list(g.adjacency[0]) == [2, 1, 3]


def test_unit_disc_basic():
    g = unit_disc_graph([(0.0, 0.0), (0.5, 0.0)], 0.6)
    assert sorted(g.edges()) == [(0, 1)]
    g = unit_disc_graph([(0.0, 0.0), (0.7, 0.0)], 0.6)
    assert sorted(g.edges()) == []


def test_unit_disc_boundary_inclusive():
    g = unit_disc_graph([(0.0, 0.0), (0.5, 0.0), (1.0, 0.0)], 0.5)
    assert sorted(g.edges()) == [(0, 1), (1, 2)]


def test_unit_disc_round_trip():
    rng = random.Random(7)
    for _ in range(30):
        pts = [(rng.random(), rng.random()) for _ in range(rng.randint(2, 25))]
        r = rng.uniform(0.05, 0.7)
        g = unit_disc_graph(pts, r)
        expected = set()
        for u in range(len(pts)):
            for v in range(u + 1, len(pts)):
                dx = pts[u][0] - pts[v][0]
                dy = pts[u][1] - pts[v][1]
                if dx * dx + dy * dy <= r * r:
                    expected.add((u, v))
        assert set(g.edges()) == expected
        assert g.coords is not None and len(g.coords) == len(pts)


def test_adjacency_symmetry():
    rng = random.Random(3)
    for seed in range(20):
        g = random_graph(random.Random(seed), 12, 0.4)
        for u in range(g.node_count):
            for v in g.adjacency[u]:
                assert u in g.adjacency[v]


def test_is_biconnected_conventions():
    g = cycle_graph(5)
    assert is_biconnected(g, range(5))
    assert is_biconnected(g, [2])           # singleton counts
    assert not is_biconnected(g, [])
    assert not is_biconnected(g, [0, 1])    # size two never counts
    p = build_graph(3, [(0, 1), (1, 2)])
    assert not is_biconnected(p, range(3))


def test_is_biconnected_disconnected():
    g = build_graph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
    assert not is_biconnected(g, range(6))
    assert is_biconnected(g, [0, 1, 2])
    assert is_biconnected(g, [3, 4, 5])


def test_is_biconnected_matches_reference():
    for seed in range(200):
        rng = random.Random(1000 + seed)
        g = random_graph(rng, rng.randint(3, 10), rng.uniform(0.2, 0.7))
        nodes = [u for u in range(g.node_count) if rng.random() < 0.8]
        assert is_biconnected(g, nodes) == ref_biconnected(g, nodes)


def test_biconnectivity_equals_two_disjoint_paths():
    # connected with no cut vertex <=> every pair joined by two
    # interior-disjoint paths (checked exhaustively on small graphs)
    for seed in range(60):
        rng = random.Random(seed)
        n = rng.randint(3, 8)
        g = random_graph(rng, n, rng.uniform(0.3, 0.7))
        nodes = set(range(n))
        lib = is_biconnected(g, nodes)
        pairs_ok = all(
            two_disjoint_paths(g, nodes, s, t)
            for s in range(n) for t in range(s + 1, n)
        )
        assert lib == pairs_ok


def test_biconnected_components_bowtie():
    g = build_graph(5, [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (2, 4)])
    comps = biconnected_components(g)
    assert sorted(sorted(c) for c in comps) == [[0, 1, 2], [2, 3, 4]]


def test_biconnected_components_bridge():
    g = build_graph(4, [(0, 1), (1, 2), (2, 3)])
    comps = biconnected_components(g)
    assert sorted(sorted(c) for c in comps) == [[0, 1], [1, 2], [2, 3]]


def test_biconnected_components_cover_members():
    for seed in range(80):
        rng = random.Random(seed)
        g = random_graph(rng, rng.randint(4, 12), rng.uniform(0.2, 0.5))
        for comp in biconnected_components(g):
            if len(comp) >= 3:
                assert is_biconnected(g, comp)
            else:
                assert len(comp) == 2


@st.composite
def induced_subgraphs(draw):
    """A random graph on up to 14 nodes and a random node subset of it;
    the subset may be empty, tiny or disconnected."""
    n = draw(st.integers(0, 14))
    density = draw(st.floats(0.0, 0.7))
    rnd = draw(st.randoms(use_true_random=False))
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rnd.random() < density]
    nodes = draw(st.sets(st.integers(0, n - 1), max_size=n)) if n else set()
    return build_graph(n, edges), nodes


def assert_block_functions_match_networkx(g, nodes):
    ref = nx.Graph()
    ref.add_nodes_from(nodes)
    ref.add_edges_from((u, v) for u, v in g.edges() if u in nodes and v in nodes)
    # the library's conventions: 0 nodes no, 1 node yes, 2 nodes never
    expected = len(nodes) == 1 if len(nodes) < 3 else nx.is_biconnected(ref)
    assert is_biconnected(g, nodes) == expected
    assert (sorted(sorted(c) for c in biconnected_components(g, nodes))
            == sorted(sorted(c) for c in nx.biconnected_components(ref)))


@settings(max_examples=400, deadline=None)
@given(induced_subgraphs())
def test_block_functions_match_networkx(case):
    assert_block_functions_match_networkx(*case)


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), count=st.integers(10, 120),
       radius=st.floats(0.08, 0.35), keep=st.floats(0.3, 1.0), hops=st.integers(1, 3))
def test_block_functions_match_networkx_on_disc_subsets(seed, count, radius, keep, hops):
    # as the generator's trim calls them: a random subset and a few-hop
    # ball of a larger disc graph, both with neighbours outside the set
    rng = random.Random(seed)
    g = unit_disc_graph([(rng.random(), rng.random()) for _ in range(count)], radius)
    subset = {u for u in range(count) if rng.random() < keep}
    assert_block_functions_match_networkx(g, subset)
    ball = {rng.randrange(count)}
    for _ in range(hops):
        ball |= {v for u in ball for v in g.adjacency[u] if v in subset}
    assert_block_functions_match_networkx(g, ball)


@pytest.mark.parametrize("nodes, named", [([0, 4], 4), ([-1, 2], -1), ([7], 7)])
def test_block_functions_reject_nodes_outside_the_graph(nodes, named):
    g = cycle_graph(4)
    for fn in (is_biconnected, biconnected_components):
        with pytest.raises(ValueError, match=f"node {named} not in graph"):
            fn(g, nodes)


def test_instance_validation():
    g = cycle_graph(5)
    with pytest.raises(ValueError):
        Instance(graph=g, roots=(0, 0), capacity=3)
    with pytest.raises(ValueError):
        Instance(graph=g, roots=(7,), capacity=3)
    with pytest.raises(ValueError):
        Instance(graph=g, roots=(0,), capacity=0)
    with pytest.raises(ValueError):
        Instance(graph=g, roots=(0,), capacity=3, known_optimum=6)


def test_instance_json_round_trip():
    pts = [(0.1, 0.2), (0.3, 0.2), (0.2, 0.4), (0.8, 0.9)]
    g = unit_disc_graph(pts, 0.3)
    inst = Instance(graph=g, roots=(0, 3), capacity=4, known_optimum=4,
                    meta={"alpha": 2.0, "seed": 9})
    text = instance_to_json(inst)
    back = instance_from_json(text)
    assert back.roots == inst.roots
    assert back.capacity == inst.capacity
    assert back.known_optimum == inst.known_optimum
    assert back.meta == inst.meta
    assert sorted(back.graph.edges()) == sorted(g.edges())
    assert back.graph.coords == g.coords
    # canonical form is stable
    assert instance_to_json(back) == text


def test_instance_json_minimal():
    g = build_graph(3, [(0, 1), (1, 2), (0, 2)])
    inst = Instance(graph=g, roots=(1,), capacity=3)
    back = instance_from_json(instance_to_json(inst))
    assert back.graph.coords is None
    assert back.known_optimum is None
    assert back.meta is None
    assert sorted(back.graph.edges()) == [(0, 1), (0, 2), (1, 2)]


def test_instance_json_edges_written_once_sorted():
    g = build_graph(3, [(2, 1), (1, 0), (2, 0)])
    inst = Instance(graph=g, roots=(0,), capacity=3)
    data = json.loads(instance_to_json(inst))
    assert data["edges"] == [[0, 1], [0, 2], [1, 2]]
    assert [nd["id"] for nd in data["nodes"]] == [0, 1, 2]


def test_disc_radius_formula():
    assert math.isclose(disc_radius(2.0, 5, 10), 1.0 / math.sqrt(100))
    assert math.isclose(disc_radius(1.5, 2, 5), 1.0 / math.sqrt(15))
