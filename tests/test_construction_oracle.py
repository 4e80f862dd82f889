"""Parallel construction against its build-before-draw, prune-every-sibling
reference (tests/oracles.py), and the BFS-tree invariant that the lazy
sibling prunes and the [-1]-initialised ear roots rely on.

Both cover construction from an all-free owner list and partial regrowth
from an incumbent with the chosen labels reset, on random instances.
"""

from random import Random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import bcpart.growth as growth
import bcpart.solver as solver
from bcpart import Instance, SolverConfig
from bcpart.growth import INF
from bcpart.solver import _grow_parallel
from oracles import random_graph, ref_grow_parallel

CASES = settings(max_examples=150, deadline=None,
                 suppress_health_check=[HealthCheck.too_slow])


def random_case(seed, k, capacity, p0):
    """A random instance with k roots, a config and three RNG seeds: one for
    construction, one for the regrow set and one for the regrowth."""
    rng = Random(seed)
    n = rng.randint(k + 2, 45)
    graph = random_graph(rng, n, min(1.0, rng.uniform(2.0, 7.0) / (n - 1)))
    instance = Instance(graph=graph, roots=tuple(rng.sample(range(n), k)), capacity=capacity)
    config = SolverConfig(p0=p0, max_exp_length=rng.randint(2, 12))
    return instance, config, [rng.getrandbits(32) for _ in range(3)]


def reset_labels(assignment, instance, seed):
    """The assignment with a random non-empty set of labels reset to -1."""
    rng = Random(seed)
    k = instance.subgraph_count
    chosen = sorted(rng.sample(range(k), rng.randint(1, k)))
    return [-1 if a in chosen else a for a in assignment], chosen


@CASES
@given(seed=st.integers(0, 2**32 - 1), k=st.integers(1, 12), capacity=st.integers(3, 15),
       p0=st.sampled_from([0.0, 0.3, 0.5, 1.0]))
def test_construction_and_regrowth_match_reference(seed, k, capacity, p0):
    instance, config, (s_build, s_pick, s_regrow) = random_case(seed, k, capacity, p0)
    n = instance.graph.node_count

    rng, ref_rng = Random(s_build), Random(s_build)
    built = [-1] * n
    claims = _grow_parallel(instance, built, range(k), config, rng)
    assert built == ref_grow_parallel(instance, [-1] * n, range(k), config, ref_rng)
    assert rng.getstate() == ref_rng.getstate()
    assert_claim_log(claims, [-1] * n, built, instance, range(k))

    owner, chosen = reset_labels(built, instance, s_pick)
    rng, ref_rng = Random(s_regrow), Random(s_regrow)
    regrown = list(owner)
    claims = _grow_parallel(instance, regrown, chosen, config, rng)
    assert regrown == ref_grow_parallel(instance, list(owner), chosen, config, ref_rng)
    assert rng.getstate() == ref_rng.getstate()
    assert_claim_log(claims, owner, regrown, instance, chosen)


def assert_claim_log(claims, before, after, instance, labels):
    """The log holds each node the growth labelled exactly once, roots aside."""
    roots = {instance.roots[a] for a in labels}
    changed = [u for u in range(len(after)) if after[u] != before[u] and u not in roots]
    assert sorted(claims) == changed


def assert_tree_invariant(state):
    """Every node with a finite dist is usable by the state and reaches its
    ear root, a dist-0 node usable by the state, in exactly dist parent
    steps through nodes outside S."""
    owner, label = state.owner, state.label
    for u, d in enumerate(state.dist):
        if d == INF:
            continue
        root = state.ear_root[u]
        assert root != -1, f"node {u} at dist {d} has no ear root"
        assert owner[u] in (-1, label) and owner[root] in (-1, label)
        assert state.dist[root] == 0 and state.ear_root[root] == root
        x = u
        for _ in range(d):
            assert owner[x] != label, f"node {x} in S below ear root {root}"
            x = state.parent[x]
        assert x == root, f"node {u}: {d} parent steps end at {x}, not {root}"


@CASES
@given(seed=st.integers(0, 2**32 - 1), k=st.integers(1, 12), capacity=st.integers(3, 15),
       p0=st.sampled_from([0.0, 0.3, 0.5, 1.0]))
def test_ear_roots_reachable_after_every_ear_and_prune(seed, k, capacity, p0):
    instance, config, (s_build, s_pick, s_regrow) = random_case(seed, k, capacity, p0)
    fold, prune = growth.update_add_ear, solver.update_bfs_tree_delete
    checks = [0]

    def checked_fold(state, seq):
        # grow folds each accepted ear through this name, mid-burst too
        added = fold(state, seq)
        assert_tree_invariant(state)
        checks[0] += 1
        return added

    def checked_prune(state, removed):
        prune(state, removed)
        assert_tree_invariant(state)
        checks[0] += 1

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(growth, "update_add_ear", checked_fold)
        mp.setattr(solver, "update_bfs_tree_delete", checked_prune)
        built = [-1] * instance.graph.node_count
        _grow_parallel(instance, built, range(k), config, Random(s_build))
        owner, chosen = reset_labels(built, instance, s_pick)
        _grow_parallel(instance, owner, chosen, config, Random(s_regrow))
    assert checks[0] >= 2   # at least one prune batch per run
