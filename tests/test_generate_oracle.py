"""Block sampling, trimming and placement against their every-pair,
recheck-every-removal, probe-every-trial references (tests/oracles.py).

The trim is compared on the bi-connected components of random disc
graphs, and its neighbour test, separator search and refusals from
remembered separation pairs against the definition of bi-connectivity.
The block sampler is compared alone, down to the edge lists it builds its
graphs from, and the whole generator, draws included, is compared by
running it once with the library's functions and once with the references.
The references run on their own copy of the low-link walker.
"""

import math
from random import Random
from unittest.mock import patch

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import bcpart.generate as gen
import oracles
from bcpart import (GenConfig, GenerationError, biconnected_components, build_graph,
                    instance_to_json)
from bcpart.graph import unit_disc_graph
from oracles import (RefGenConfig, ref_assemble_instance, ref_biconnected,
                     ref_generate_block, ref_trim_to_size)

CASES = settings(max_examples=300, deadline=None,
                 suppress_health_check=[HealthCheck.too_slow])


def _knobs(**knobs):
    """generate's module constants patched to `knobs`, which are named as
    the fields of the references' config."""
    return patch.multiple(gen, **{name.upper(): value for name, value in knobs.items()})


def _generated(cfg, sample, assemble):
    """Instance JSON and block membership (or the error text) of a full
    generation with `sample` and `assemble` in place, and the final RNG
    state."""
    rng = Random(cfg.seed)
    try:
        blocks = [sample(cfg.capacity, cfg.n, cfg, rng) for _ in range(cfg.n)]
        result = assemble(blocks, cfg, rng)
        out = (instance_to_json(result.instance), result.block_membership)
    except GenerationError as exc:
        out = str(exc)
    return out, rng.getstate()


@CASES
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 12), capacity=st.integers(3, 15),
       trials=st.integers(1, 60), alpha=st.sampled_from([1.5, 2.0, 3.0]))
def test_generation_matches_reference(seed, n, capacity, trials, alpha):
    knobs = dict(position_trials=trials, block_attempt_budget=300)
    cfg = GenConfig(n=n, capacity=capacity, alpha=alpha, seed=seed)
    ref_cfg = RefGenConfig(n=n, capacity=capacity, alpha=alpha, seed=seed, **knobs)
    with _knobs(**knobs):
        lib = _generated(cfg, gen.generate_block, gen.assemble_instance)
    assert lib == _generated(ref_cfg, ref_generate_block, ref_assemble_instance)


def _sampled(cfg, sample, module):
    """Coordinates, graph, root and box of one block drawn by `sample` (or
    the error text), every edge list it passed to `module.build_graph`,
    and the final RNG state."""
    rng = Random(cfg.seed)
    edge_lists = []

    def recorded(node_count, edges, coords=None):
        edge_lists.append((node_count, list(edges)))
        return build_graph(node_count, edges, coords)
    with patch.object(module, "build_graph", recorded):
        try:
            block = sample(cfg.capacity, cfg.n, cfg, rng)
            out = (block.coords, block.graph.adjacency, block.root, block.box)
        except GenerationError as exc:
            out = str(exc)
    return out, edge_lists, rng.getstate()


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 40), capacity=st.integers(3, 40),
       alpha=st.sampled_from([1.0, 1.5, 2.0, 3.0]), delta=st.floats(1.0, 1.5),
       batches=st.integers(1, 16), budget=st.integers(1, 40))
def test_block_matches_reference(seed, n, capacity, alpha, delta, batches, budget):
    knobs = dict(delta=delta, block_attempt_budget=budget, max_batches_per_box=batches)
    cfg = GenConfig(n=n, capacity=capacity, alpha=alpha, seed=seed)
    ref_cfg = RefGenConfig(n=n, capacity=capacity, alpha=alpha, seed=seed, **knobs)
    with _knobs(**knobs):
        lib = _sampled(cfg, gen.generate_block, gen)
    assert lib == _sampled(ref_cfg, ref_generate_block, oracles)


def _disc_components(seed, count, radius):
    rng = Random(seed)
    pts = [(rng.random(), rng.random()) for _ in range(count)]
    g = unit_disc_graph(pts, radius)
    return g, pts, biconnected_components(g)


def _sparse_components(seed, count, scale):
    # radius scale / sqrt(count): about pi * scale**2 neighbours per point
    return _disc_components(seed, count, scale / math.sqrt(count))


@CASES
@given(seed=st.integers(0, 2**32 - 1), count=st.integers(3, 160),
       scale=st.floats(0.9, 3.5), data=st.data())
def test_trim_matches_reference(seed, count, scale, data):
    g, pts, comps = _sparse_components(seed, count, scale)
    comp = max(comps, key=len, default=set())
    if len(comp) < 3:
        return
    target = data.draw(st.integers(3, len(comp)))
    assert gen._trim_to_size(g, comp, target, pts) == ref_trim_to_size(g, comp, target, pts)


@CASES
@given(seed=st.integers(0, 2**32 - 1), count=st.integers(4, 50),
       radius=st.floats(0.12, 0.5))
def test_neighbour_verdict_is_exact_and_covers_bi_connected_neighbours(seed, count, radius):
    # every removal from every bi-connected component S of 4 or more nodes:
    # a verdict must equal the definition, and v's neighbours being
    # bi-connected among themselves (the test it widens) must give one
    g, _pts, comps = _disc_components(seed, count, radius)
    for comp in comps:
        if len(comp) < 4:
            continue
        for v in sorted(comp):
            rest = comp - {v}
            near = rest.intersection(g.adjacency[v])
            verdict = gen._neighbour_walk(g, rest, v)[0]
            if verdict is not None:
                assert verdict == ref_biconnected(g, rest), (sorted(comp), v)
            if (len(near) >= 3 and ref_biconnected(g, near)
                    and all(len(rest.intersection(g.adjacency[w])) >= 2 for w in near)):
                assert verdict is True, (sorted(comp), v)


def _separates(g, rest, u, side):
    """Whether u is in `rest` and `side` and the rest of `rest` - u are
    nonempty with no edge between them."""
    other = rest - side - {u}
    return (u in rest and side and side <= rest - {u} and other
            and not any(other.intersection(g.adjacency[x]) for x in side))


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(0, 2**32 - 1), count=st.integers(60, 160),
       scale=st.floats(1.0, 1.5))
def test_separator_is_exact(seed, count, scale):
    # every removal from every bi-connected component S of 4 or more
    # nodes, in sparse disc graphs where near often splits across T: the
    # separator search settles what the neighbour test leaves open as the
    # definition does, and every refusal names a separation pair {v, u}
    # of S with its smaller side
    g, _pts, comps = _sparse_components(seed, count, scale)
    for comp in comps:
        if len(comp) < 4:
            continue
        for v in sorted(comp):
            rest = comp - {v}
            verdict = gen._neighbour_walk(g, rest, v)[0]
            pair = gen._separator(g, rest, v)
            if verdict is None:
                assert (pair is None) == ref_biconnected(g, rest), (sorted(comp), v)
            else:
                assert (pair is None) == verdict, (sorted(comp), v)
            if pair is not None:
                u, side = pair
                assert _separates(g, rest, u, side), (sorted(comp), v, pair)
                assert 2 * len(side) <= len(rest) - 1, (sorted(comp), v, pair)


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(0, 2**32 - 1), count=st.integers(20, 160),
       scale=st.floats(1.2, 2.0), data=st.data())
def test_refusals_from_memory_are_exact(seed, count, scale, data):
    # a trim refuses a removal from a remembered separation pair only when
    # the set at that moment minus the node is not bi-connected
    g, pts, comps = _sparse_components(seed, count, scale)
    comp = max(comps, key=len, default=set())
    if len(comp) < 4:
        return
    refused = []

    def recorded(pairs, nodes, v):
        found = remembered(pairs, nodes, v)
        if found:
            refused.append((nodes - {v}, v))
        return found
    remembered = gen._remembered
    target = data.draw(st.integers(3, len(comp)))
    with patch.object(gen, "_remembered", recorded):
        gen._trim_to_size(g, comp, target, pts)
    for rest, v in refused:
        assert not ref_biconnected(g, rest), (sorted(comp), target, v)
