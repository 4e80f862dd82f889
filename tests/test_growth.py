import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs

import bcpart.growth as growth
import bcpart.solver as solver
from bcpart import (GROW_N, GROW_R, GenConfig, SolverConfig, build_graph, generate_instance,
                    generate_solution, grow, init_growth, is_biconnected, local_search)
from bcpart.growth import INF
from oracles import exact_hop_layers, random_biconnected_graph, random_graph


def cycle_graph(n):
    return build_graph(n, [(i, (i + 1) % n) for i in range(n)])


def drain_single_ears(st, rng):
    """Accept ears one at a time until no more growth; yields after each."""
    while True:
        added = grow(st, rng)
        if added == 0:
            return
        yield added


def record_folds(monkeypatch):
    """Wrap update_add_ear, the name grow folds each accepted ear through;
    returns the list of sequences it was handed, in order."""
    folds = []
    fold = growth.update_add_ear

    def recorded(st, seq):
        folds.append(list(seq))
        return fold(st, seq)

    monkeypatch.setattr(growth, "update_add_ear", recorded)
    return folds


def test_init_on_cycle():
    g = cycle_graph(5)
    st = init_growth(g, 0, 5, 1.0)
    assert st.members == [0]
    assert list(st.queue) == [1, 4]
    assert st.label == 0 and st.owner == [0, -1, -1, -1, -1]
    assert st.dist[0] == 0
    for u in (1, 4):
        assert st.ear_root[u] == u
        assert st.dist[u] == 0
    for u in (2, 3):
        assert st.dist[u] == INF
        assert st.parent[u] == -1
    assert all(st.evaluate[u] for u in range(5))


def test_init_isolated_root():
    g = build_graph(3, [(1, 2)])
    st = init_growth(g, 0, 4, 1.0)
    assert list(st.queue) == []
    assert sum(drain_single_ears(st, random.Random(0))) == 0
    assert st.members == [0]


def test_init_star_center():
    g = build_graph(4, [(0, 1), (0, 2), (0, 3)])
    st = init_growth(g, 0, 4, 1.0)
    assert list(st.queue) == [1, 2, 3]
    assert [st.ear_root[u] for u in (1, 2, 3)] == [1, 2, 3]


def test_init_validation():
    g = cycle_graph(4)
    with pytest.raises(ValueError):
        init_growth(g, 9, 4, 1.0)
    with pytest.raises(ValueError):
        init_growth(g, 0, 0, 1.0)
    with pytest.raises(ValueError):
        init_growth(g, 0, 4, 1.5)
    # the root must already carry its label in the shared owner list
    with pytest.raises(ValueError):
        init_growth(g, 3, 4, 1.0, [0, -1, -1, -1])
    assert init_growth(g, 3, 4, 1.0, [0, -1, -1, 5]).label == 5


def test_cycle_consumed_when_capacity_allows():
    g = cycle_graph(5)
    st = init_growth(g, 0, 5, 1.0)
    added = sum(drain_single_ears(st, random.Random(1)))
    assert added == 4
    assert sorted(st.members) == [0, 1, 2, 3, 4]
    assert is_biconnected(g, st.members)


def test_cycle_rejected_when_over_capacity():
    # the only closing ear needs |S| + 1 + 1 + 1 + 1 = 5 > 4
    g = cycle_graph(5)
    st = init_growth(g, 0, 4, 1.0)
    assert sum(drain_single_ears(st, random.Random(1))) == 0
    assert st.members == [0]


def test_try_make_ear_same_root_rejected():
    g = build_graph(4, [(0, 1), (1, 2), (1, 3), (2, 3)])
    st = init_growth(g, 0, 4, 1.0)
    rng = random.Random(0)
    # walk the BFS far enough to give 2 and 3 the same ear root 1
    st.queue.clear()
    st.queue.append(1)
    while grow(st, rng):  # no ear is admissible: roots collide
        pass
    assert st.ear_root[2] == 1 and st.ear_root[3] == 1
    assert st.members == [0]


def test_first_ear_closes_through_root(monkeypatch):
    g = cycle_graph(5)
    st = init_growth(g, 0, 5, 1.0)
    rng = random.Random(1)
    folds = record_folds(monkeypatch)
    before = set(st.members)
    added = grow(st, rng)
    assert added == 4
    assert len(folds) == 1
    seq = folds[0]
    assert before == {0}                   # S was {root}: the cycle ear
    assert seq[0] == 0                     # closed through the root
    assert sorted(seq) == [0, 1, 2, 3, 4]
    assert sorted(x for x in seq if x not in before) == [1, 2, 3, 4]


def test_complete_graph_always_fills():
    g = build_graph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])
    for seed in range(20):
        st = init_growth(g, 0, 4, 1.0)
        rng = random.Random(seed)
        while grow(st, rng):
            pass
        assert sorted(st.members) == [0, 1, 2, 3]


def test_path_graph_never_grows():
    g = build_graph(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
    for r in range(5):
        st = init_growth(g, r, 5, 1.0)
        assert sum(drain_single_ears(st, random.Random(0))) == 0
        assert st.members == [r]


def test_single_ear_mode_stops_after_each_ear():
    # K5: first the initial 3-cycle, then two one-node ears
    edges = [(u, v) for u in range(5) for v in range(u + 1, 5)]
    g = build_graph(5, edges)
    st = init_growth(g, 0, 5, 1.0)
    rng = random.Random(2)
    sizes = [added for added in drain_single_ears(st, rng)]
    assert sizes == [2, 1, 1]
    assert sorted(st.members) == [0, 1, 2, 3, 4]


def test_descendants_rebased_after_ear():
    # 5-cycle plus a pendant chain 1-5-6 hanging off the first ear
    g = build_graph(7, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4), (1, 5), (5, 6)])
    st = init_growth(g, 0, 7, 1.0)
    rng = random.Random(1)
    # BFS discovers 5 (and then 6) as tree descendants of 1 before the
    # cycle-closing ear gets accepted
    added = grow(st, rng)
    assert added == 4
    assert sorted(st.members) == [0, 1, 2, 3, 4]
    assert st.ear_root[5] == 1 and st.dist[5] == 1
    assert st.evaluate[5] == 1
    if st.dist[6] != INF:   # only discovered if BFS got that far
        assert st.ear_root[6] == 1 and st.dist[6] == 2
    # rebased nodes are queued again after the ear nodes; earlier stale
    # entries may remain (the eval flag sorts those out), so compare the
    # freshest occurrences
    tail = list(st.queue)
    last = {u: i for i, u in enumerate(tail)}
    assert 5 in last
    assert last[5] > last[1] and last[5] > last[2]


def test_rebased_depth_two_distance():
    # ear node 1 keeps a depth-2 chain: child 5 at dist 1, grandchild 6 at 2
    g = build_graph(7, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4), (1, 5), (5, 6)])
    st = init_growth(g, 0, 7, 1.0)
    rng = random.Random(1)
    # force full BFS discovery first: reject every ear (prob 0), then allow
    st.accept_prob = 0.0
    while grow(st, rng):
        pass
    assert st.dist[6] == 2
    st.accept_prob = 1.0
    for u in range(7):
        st.evaluate[u] = 1
    st.queue.extend([1, 2, 3, 4])
    added = grow(st, rng)
    assert added == 4
    assert st.ear_root[6] == 1
    assert st.dist[6] == 2
    assert st.evaluate[6] == 1


def test_far_nodes_skipped_but_kept():
    # dequeue guard: a node farther than the remaining capacity is not
    # processed and keeps its eval flag for later
    g = cycle_graph(8)
    st = init_growth(g, 0, 4, 1.0)
    rng = random.Random(0)
    while grow(st, rng):
        pass
    assert st.members == [0]
    far = [u for u in range(8) if st.dist[u] not in (0, INF) and st.dist[u] > 3]
    for u in far:
        assert st.evaluate[u] == 1


def test_every_accepted_ear_is_open(monkeypatch):
    folds = record_folds(monkeypatch)
    for seed in range(120):
        rng = random.Random(seed)
        g = random_graph(rng, rng.randint(4, 14), rng.uniform(0.25, 0.6))
        root = rng.randrange(g.node_count)
        cap = rng.randint(3, g.node_count)
        st = init_growth(g, root, cap, 1.0)
        before = set(st.members)
        for _ in drain_single_ears(st, rng):
            seq = folds.pop()
            assert not folds                # one fold per single-ear call
            assert len(seq) == len(set(seq))
            if before == {root}:            # S was {root}: the cycle ear
                assert root in seq
            else:
                assert seq[0] in before and seq[-1] in before
                for x in seq[1:-1]:
                    assert x not in before
            assert is_biconnected(g, st.members)
            assert len(st.members) <= cap
            before = set(st.members)


def test_biconnected_graphs_fill_to_capacity():
    # acceptance probability 1: a bi-connected graph within capacity is
    # always fully consumed
    for seed in range(60):
        rng = random.Random(seed)
        n = rng.randint(3, 12)
        g = random_biconnected_graph(rng, n, rng.randint(0, n))
        root = rng.randrange(n)
        st = init_growth(g, root, n, 1.0)
        while grow(st, rng):
            pass
        assert len(st.members) == n, f"seed {seed}: stuck at {len(st.members)}/{n}"


def test_distance_overestimates_true_distance():
    # after every accepted ear, stored dist may overestimate but never
    # underestimate the hop distance to the current subgraph
    for seed in range(80):
        rng = random.Random(seed)
        g = random_graph(rng, rng.randint(6, 16), rng.uniform(0.2, 0.5))
        root = rng.randrange(g.node_count)
        st = init_growth(g, root, g.node_count, 0.7)
        for _ in drain_single_ears(st, rng):
            in_s = {u for u in range(g.node_count) if st.owner[u] == st.label}
            allowed = {u for u in range(g.node_count) if st.owner[u] == -1}
            exact = exact_hop_layers(g, in_s, allowed)
            for u in allowed:
                if st.dist[u] != INF and u in exact:
                    assert st.dist[u] >= exact[u]


def test_growth_is_deterministic():
    for seed in range(10):
        rng_a = random.Random(seed)
        rng_b = random.Random(seed)
        g = random_graph(random.Random(99), 14, 0.4)
        st_a = init_growth(g, 0, 9, 0.5)
        st_b = init_growth(g, 0, 9, 0.5)
        while grow(st_a, rng_a):
            pass
        while grow(st_b, rng_b):
            pass
        assert st_a.members == st_b.members


def growth_snapshot(st, rng):
    return (st.members, st.owner, st.parent, st.dist, st.ear_root, st.evaluate,
            st.children, list(st.queue), rng.getstate())


@settings(max_examples=300, deadline=None)
@given(seed=hs.integers(0, 2**32 - 1), capacity=hs.integers(3, 15),
       p0=hs.sampled_from([0.3, 0.5, 1.0]), limits=hs.lists(hs.integers(1, 12), min_size=1,
                                                             max_size=4),
       shared=hs.booleans())
def test_one_burst_call_equals_single_ear_calls(seed, capacity, p0, limits, shared):
    """grow(st, rng, limit) makes the draws and leaves the state of
    grow(st, rng) calls until they sum to limit or one adds nothing, from
    a fresh state and from one left mid-scan by an earlier burst."""
    case = random.Random(seed)
    n = case.randint(4, 30)
    g = random_graph(case, n, case.uniform(0.1, 0.5))
    root = case.randrange(n)
    owner = None
    if shared:
        # other subgraphs hold some nodes of the shared owner list
        owner = [-1] * n
        for u in case.sample(range(n), case.randint(1, n // 2)):
            owner[u] = case.randint(1, 3)
        owner[root] = 0
    grow_seed = case.getrandbits(32)
    burst = init_growth(g, root, capacity, p0, None if owner is None else list(owner))
    single = init_growth(g, root, capacity, p0, None if owner is None else list(owner))
    burst_rng, single_rng = random.Random(grow_seed), random.Random(grow_seed)
    for limit in limits:
        got = grow(burst, burst_rng, limit)
        total = 0
        while total < limit:
            added = grow(single, single_rng)
            total += added
            if not added:
                break
        assert got == total
        assert growth_snapshot(burst, burst_rng) == growth_snapshot(single, single_rng)


def test_ear_counters_agree_with_grow(monkeypatch):
    """What a tracer wrapping the ear functions by name reads: every ear
    grow builds is valid, each one is folded once, and the folds add up to
    what grow reports, in construction and in the search of both modes."""
    calls = {"made": 0, "none": 0, "folded": 0, "fold_nodes": 0, "grow_nodes": 0}
    make, fold, burst = growth.try_make_ear, growth.update_add_ear, solver.grow

    def counted_make(st, u, v):
        seq = make(st, u, v)
        calls["made"] += 1
        calls["none"] += seq is None
        return seq

    def counted_fold(st, seq):
        added = fold(st, seq)
        calls["folded"] += 1
        calls["fold_nodes"] += added
        return added

    def counted_grow(st, rng, *limit):
        added = burst(st, rng, *limit)
        calls["grow_nodes"] += added
        return added

    monkeypatch.setattr(growth, "try_make_ear", counted_make)
    monkeypatch.setattr(growth, "update_add_ear", counted_fold)
    monkeypatch.setattr(solver, "grow", counted_grow)
    inst = generate_instance(GenConfig(n=5, capacity=10, alpha=2.0, seed=0)).instance
    generate_solution(inst, SolverConfig(seed=3), random.Random(3))
    for mode in (GROW_N, GROW_R):
        local_search(inst, SolverConfig(seed=3, max_iterations=60, stagnation_limit=60), mode)
    assert calls["made"] > 0 and calls["none"] == 0
    assert calls["made"] == calls["folded"]
    assert calls["fold_nodes"] == calls["grow_nodes"] > 0
