"""Block sampling, trimming and placement against their every-pair,
recheck-every-removal, probe-every-trial references (tests/oracles.py).

The trim is compared on the bi-connected components of random disc
graphs, and its removal test and refusals from remembered separation
pairs against the definition of bi-connectivity.
The block sampler is compared alone, down to the edge lists it builds its
graphs from, and the whole generator, draws included, is compared by
running it once with the library's functions and once with the references.
The references run on their own copy of the low-link walker and of the
first release's cross-edge probe.  The placement's skip of trials that
cannot touch the placed graph is checked against an every-pair search.
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


def _unreached(*args):
    raise AssertionError("v's neighbours alone should have settled the removal")


@CASES
@given(seed=st.integers(0, 2**32 - 1), count=st.integers(4, 50),
       radius=st.floats(0.12, 0.5))
def test_neighbour_verdict_is_exact_and_covers_bi_connected_neighbours(seed, count, radius):
    # every removal from every bi-connected component S of 4 or more nodes
    # in dense disc graphs: the removal test must equal the definition, and
    # v's neighbours being bi-connected among themselves (the test it
    # widens) must accept from the neighbours alone, with neither the
    # separator search nor the whole-set recheck
    g, _pts, comps = _disc_components(seed, count, radius)
    for comp in comps:
        if len(comp) < 4:
            continue
        for v in sorted(comp):
            rest = comp - {v}
            near = rest.intersection(g.adjacency[v])
            pair = gen._separator(g, rest, v)
            assert (pair is None) == ref_biconnected(g, rest), (sorted(comp), v)
            if (len(near) >= 3 and ref_biconnected(g, near)
                    and all(len(rest.intersection(g.adjacency[w])) >= 2 for w in near)):
                with patch.object(gen, "_stray_component", _unreached), \
                        patch.object(gen, "is_biconnected", _unreached):
                    assert gen._separator(g, rest, v) is None, (sorted(comp), v)


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
    # removal test settles every removal as the definition does, and every
    # refusal names a separation pair {v, u} of S with its smaller side
    g, _pts, comps = _sparse_components(seed, count, scale)
    for comp in comps:
        if len(comp) < 4:
            continue
        for v in sorted(comp):
            rest = comp - {v}
            pair = gen._separator(g, rest, v)
            assert (pair is None) == ref_biconnected(g, rest), (sorted(comp), v)
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


def _edge_coord(inv):
    """A coordinate on a cell edge k / inv, moved off it by up to 3 ulps
    or by a relative amount up to the cells' 1e-9 widening."""
    def nudged(k, ulps, rel):
        x = k / inv * (1.0 + rel)
        for _ in range(abs(ulps)):
            x = math.nextafter(x, math.copysign(math.inf, ulps))
        return x
    return st.builds(nudged, st.integers(0, int(inv) + 1), st.integers(-3, 3),
                     st.just(0.0) | st.floats(-2e-9, 2e-9))


def _coord(inv):
    return st.floats(0.0, 1.0) | _edge_coord(inv)


@settings(max_examples=1000, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(d=st.floats(0.004, 0.25), data=st.data())
def test_placement_skip_is_exact(d, data):
    # placed points keyed as assemble_instance keys them, a renormalized
    # block and a translation, some aimed to put a block point about d
    # from a placed point: the probe finds exactly the pairs within d, and
    # none at all when _may_touch skips the trial
    inv = gen._inverse_cell_width(d)
    pts = data.draw(st.lists(st.tuples(_coord(inv), _coord(inv)), max_size=30))
    grid = {}
    for j, (x, y) in enumerate(pts):
        grid.setdefault((int(x * inv), int(y * inv)), []).append(j)
    span = data.draw(st.floats(0.0, 0.4))
    raw = data.draw(st.lists(st.tuples(st.floats(0.0, span), st.floats(0.0, span)),
                             min_size=1, max_size=10))
    min_x = min(x for x, _ in raw)
    min_y = min(y for _, y in raw)
    coords = [(x - min_x, y - min_y) for x, y in raw]
    box = (max(x for x, _ in coords), max(y for _, y in coords))
    if pts and data.draw(st.booleans()):
        px, py = data.draw(st.sampled_from(pts))
        bx, by = data.draw(st.sampled_from(coords))
        angle = data.draw(st.sampled_from([0.0, 0.5 * math.pi, math.pi, 1.5 * math.pi])
                          | st.floats(0.0, 2 * math.pi))
        r = d * (1.0 - data.draw(st.sampled_from([0.0, 1e-15, 1e-9, -1e-15])
                                 | st.floats(-1e-8, 0.5)))
        tx, ty = px + r * math.cos(angle) - bx, py + r * math.sin(angle) - by
    else:
        tx = data.draw(_coord(inv).map(lambda x: x * (1.0 - box[0])) | _edge_coord(inv))
        ty = data.draw(_coord(inv).map(lambda y: y * (1.0 - box[1])) | _edge_coord(inv))
    abs_coords = [(x + tx, y + ty) for x, y in coords]
    d2 = d * d
    within = set()
    for li, (x, y) in enumerate(abs_coords):
        for j, (ox, oy) in enumerate(pts):
            dx, dy = x - ox, y - oy
            if dx * dx + dy * dy <= d2:
                within.add((li, j))
    cross = [(li, j) for li, (x, y) in enumerate(abs_coords)
             for j in gen._near(grid, pts, x, y, d2, inv)]
    assert sorted(cross) == sorted(within)
    if not gen._may_touch(grid, inv, tx, ty, box):
        assert cross == []
