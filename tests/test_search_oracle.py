"""The in-place local search against its copy-every-candidate,
rebuild-every-accept reference (tests/oracles.py), on random instances.

Besides the outputs (solution bytes, accepted-objective trace, SearchStats
counts), two invariants of the in-place state are checked on every call:
after each accept the incremental neighbor graph equals a full rebuild of
the incumbent, and after each rejected candidate the working owner list is
the incumbent again.
"""

import importlib
from random import Random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from bcpart import GROW_N, GROW_R, Instance, Solution, SolverConfig, local_search
from oracles import random_graph, ref_build_neighbor_graph, ref_local_search

# the package re-exports a function named local_search, so the module is
# looked up by its full name
ls = importlib.import_module("bcpart.local_search")


def random_search(seed, k, capacity, cap):
    """A random instance with k roots and a search config capped at `cap`."""
    rng = Random(seed)
    n = rng.randint(k + 2, 45)
    graph = random_graph(rng, n, min(1.0, rng.uniform(2.0, 7.0) / (n - 1)))
    instance = Instance(graph=graph, roots=tuple(rng.sample(range(n), k)), capacity=capacity)
    config = SolverConfig(p0=rng.choice([0.3, 0.5, 1.0]), max_exp_length=rng.randint(2, 12),
                          regrow_size=rng.randint(2, 9), max_iterations=cap,
                          stagnation_limit=rng.randint(1, cap), seed=rng.getrandbits(32))
    return instance, config


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(0, 2**32 - 1), k=st.integers(1, 12), capacity=st.integers(3, 15),
       mode=st.sampled_from([GROW_R, GROW_N]), cap=st.integers(1, 60))
def test_local_search_matches_reference(seed, k, capacity, mode, cap):
    instance, config = random_search(seed, k, capacity, cap)
    build, regrow = ls.build_neighbor_graph, ls.regrow_partial
    calls = {"build": 0, "kept": 0, "undone": 0}

    def checked_build(instance, owner, members, free, links, labels):
        graph = build(instance, owner, members, free, links, labels)
        assert graph == ref_build_neighbor_graph(instance, Solution(owner))
        assert [sorted(nodes) for nodes in members] == [
            [u for u, a in enumerate(owner) if a == i] for i in range(k)]
        assert free == {u for u, a in enumerate(owner) if a == -1}
        calls["build"] += 1
        return graph

    def checked_regrow(instance, owner, members, pick, incumbent, config, rng, spare):
        before = list(owner)
        value, claims = regrow(instance, owner, members, pick, incumbent, config, rng, spare)
        if value < incumbent:
            assert owner == before
            calls["undone"] += 1
        else:
            assert value == len(owner) - owner.count(-1)
            calls["kept"] += 1
        return value, claims

    trace, ref_trace = [], []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ls, "build_neighbor_graph", checked_build)
        mp.setattr(ls, "regrow_partial", checked_regrow)
        sol, stats = local_search(instance, config, mode, trace=trace)
    ref_sol, ref_stats = ref_local_search(instance, config, mode, trace=ref_trace)
    assert sol.assignment == ref_sol.assignment
    assert trace == ref_trace
    assert ((stats.best_objective, stats.iterations, stats.iteration_of_best)
            == (ref_stats.best_objective, ref_stats.iterations, ref_stats.iteration_of_best))
    # one build at the start, one per kept candidate
    assert calls["build"] == 1 + calls["kept"] == len(trace)
    assert calls["kept"] + calls["undone"] == stats.iterations - 1
