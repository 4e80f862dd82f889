import math
import random
from unittest.mock import patch

import pytest

from bcpart import (GenConfig, GenerationError, brute_force_optimum,
                    certificate_solution, disc_radius, generate_instance,
                    instance_to_json, is_biconnected, reduce_mpgsd_star,
                    verify_solution)
from bcpart.generate import GAMMA, MAX_CAPACITY, MAX_NODES, generate_block
from oracles import best_subset_sum


def test_blocks_are_biconnected_and_exact_size():
    for seed in range(100):
        rng = random.Random(seed)
        cfg = GenConfig(n=2, capacity=5 + seed % 4, alpha=2.0, seed=seed)
        block = generate_block(cfg.capacity, cfg.n, cfg, rng)
        assert block.graph.node_count == cfg.capacity
        assert is_biconnected(block.graph, range(cfg.capacity))
        assert 0 <= block.root < cfg.capacity
        bw, bh = block.box
        for (x, y) in block.coords:
            assert -1e-9 <= x <= bw + 1e-9
            assert -1e-9 <= y <= bh + 1e-9


def test_block_box_bounded_by_sampling_area():
    # sampling boxes have area 1/n; the trimmed block's bounding box can
    # only be smaller
    for seed in range(10):
        rng = random.Random(seed)
        cfg = GenConfig(n=4, capacity=6, alpha=2.0, seed=seed)
        block = generate_block(cfg.capacity, cfg.n, cfg, rng)
        bw, bh = block.box
        assert bw * bh <= 1.0 / cfg.n + 1e-9
        assert bh <= 1.0 / math.sqrt(cfg.n) + 1e-9


def test_generated_instance_certificate():
    gen = generate_instance(GenConfig(n=2, capacity=5, alpha=2.0, seed=0))
    inst = gen.instance
    assert inst.graph.node_count == 10
    assert inst.known_optimum == 10
    cert = certificate_solution(gen)
    report = verify_solution(inst, cert)
    assert report.feasible
    assert cert.objective == 10


def test_generated_instance_meta_and_radius():
    cfg = GenConfig(n=3, capacity=5, alpha=1.5, seed=9)
    gen = generate_instance(cfg)
    meta = gen.instance.meta
    assert meta["alpha"] == 1.5
    assert meta["seed"] == 9
    assert math.isclose(meta["radius"], disc_radius(1.5, 3, 5))


def test_generated_edges_match_disc_rule():
    # the assembled graph must be exactly the disc graph of its coords
    gen = generate_instance(GenConfig(n=3, capacity=6, alpha=2.0, seed=4))
    g = gen.instance.graph
    r2 = gen.instance.meta["radius"] ** 2
    expected = set()
    for u in range(g.node_count):
        for v in range(u + 1, g.node_count):
            dx = g.coords[u][0] - g.coords[v][0]
            dy = g.coords[u][1] - g.coords[v][1]
            if dx * dx + dy * dy <= r2:
                expected.add((u, v))
    assert set(g.edges()) == expected


def test_cross_edge_minimum_per_block():
    cfg = GenConfig(n=4, capacity=6, alpha=2.0, seed=12)
    gen = generate_instance(cfg)
    g = gen.instance.graph
    member = gen.block_membership
    internal = [0] * cfg.n
    cross_before = [0] * cfg.n
    for (u, v) in g.edges():
        bu, bv = member[u], member[v]
        if bu == bv:
            internal[bu] += 1
        else:
            cross_before[max(bu, bv)] += 1
    # every block after the first joined with enough contact edges to all
    # previously placed blocks together
    for i in range(1, cfg.n):
        need = max(3, math.ceil(GAMMA * internal[i]))
        assert cross_before[i] >= need, f"block {i}: {cross_before[i]} < {need}"


def test_roots_one_per_block():
    gen = generate_instance(GenConfig(n=5, capacity=5, alpha=2.0, seed=21))
    member = gen.block_membership
    roots = gen.instance.roots
    assert len(roots) == 5
    assert sorted(member[r] for r in roots) == [0, 1, 2, 3, 4]


def test_all_coords_inside_unit_box():
    gen = generate_instance(GenConfig(n=4, capacity=7, alpha=1.5, seed=33))
    for (x, y) in gen.instance.graph.coords:
        assert -1e-9 <= x <= 1 + 1e-9
        assert -1e-9 <= y <= 1 + 1e-9


def test_generation_is_deterministic():
    a = generate_instance(GenConfig(n=3, capacity=5, alpha=2.0, seed=7))
    b = generate_instance(GenConfig(n=3, capacity=5, alpha=2.0, seed=7))
    assert instance_to_json(a.instance) == instance_to_json(b.instance)
    assert a.block_membership == b.block_membership


def test_relabeling_preserves_structure():
    gen = generate_instance(GenConfig(n=2, capacity=5, alpha=2.0, seed=2))
    g = gen.instance.graph
    rng = random.Random(5)
    perm = list(range(g.node_count))
    rng.shuffle(perm)
    remapped = sorted(
        (min(perm[u], perm[v]), max(perm[u], perm[v])) for (u, v) in g.edges())
    # degree multiset survives any relabeling
    def degrees(edges, n):
        d = [0] * n
        for (u, v) in edges:
            d[u] += 1
            d[v] += 1
        return sorted(d)
    assert degrees(remapped, g.node_count) == degrees(list(g.edges()), g.node_count)


def test_small_generated_instance_optimum_is_exact():
    gen = generate_instance(GenConfig(n=2, capacity=5, alpha=2.0, seed=13))
    assert gen.instance.graph.node_count == 10
    assert brute_force_optimum(gen.instance) == 10


def test_generation_budget_failure_raises():
    cfg = GenConfig(n=2, capacity=30, alpha=2.0, seed=0)
    rng = random.Random(0)
    with patch.multiple("bcpart.generate", BLOCK_ATTEMPT_BUDGET=1, MAX_BATCHES_PER_BOX=1):
        with pytest.raises(GenerationError):
            generate_block(cfg.capacity, cfg.n, cfg, rng)


def test_gen_config_validation():
    with pytest.raises(ValueError):
        GenConfig(n=0, capacity=5, alpha=2.0)
    with pytest.raises(ValueError):
        GenConfig(n=1, capacity=2, alpha=2.0)
    with pytest.raises(ValueError):
        GenConfig(n=1, capacity=5, alpha=0.0)
    for bad in (math.inf, -math.inf, math.nan, 10**400):
        with pytest.raises(ValueError, match="alpha must be finite"):
            GenConfig(n=1, capacity=5, alpha=bad)
    # every integer field, seed included, must be an int (bools rejected);
    # these used to be accepted or to fail late
    wrong_types = [("capacity", 10.0), ("n", 2.0), ("seed", None), ("seed", 1.5),
                   ("n", True)]
    for name, value in wrong_types:
        with pytest.raises(ValueError, match=f"{name} must be an integer"):
            GenConfig(**{"n": 1, "capacity": 5, "alpha": 2.0, name: value})
    # more than MAX_NODES nodes in all are refused before any sampling;
    # exactly MAX_NODES are allowed
    for n, capacity in ((1, MAX_NODES + 1), (MAX_NODES // 3 + 1, 3), (2_000_000, 3)):
        with pytest.raises(ValueError, match=f"at most {MAX_NODES} nodes"):
            GenConfig(n=n, capacity=capacity, alpha=2.0)
    cfg = GenConfig(n=1_000, capacity=100, alpha=2.0)
    assert cfg.n * cfg.capacity == MAX_NODES
    # one block of more than MAX_CAPACITY nodes is refused too; exactly
    # MAX_CAPACITY is allowed
    for n in (1, 50):
        with pytest.raises(ValueError, match=f"capacity must be at most {MAX_CAPACITY}"):
            GenConfig(n=n, capacity=MAX_CAPACITY + 1, alpha=2.0)
    assert GenConfig(n=100, capacity=MAX_CAPACITY, alpha=2.0).capacity == MAX_CAPACITY


def test_reduction_example_values():
    inst = reduce_mpgsd_star(5, [3, 2, 4])
    assert inst.graph.node_count == 12      # 3 hub nodes + 9 path nodes
    assert inst.capacity == 8
    assert inst.known_optimum == 8          # best demand subset 3+2 = 5
    assert inst.roots == (0,)


def test_reduction_single_full_demand():
    inst = reduce_mpgsd_star(4, [4])
    assert inst.capacity == 7
    assert inst.known_optimum == 7          # the whole cycle fits exactly


def test_reduction_infeasible_demands():
    inst = reduce_mpgsd_star(3, [5, 7])
    assert inst.known_optimum == 1          # no demand fits: root stays alone


def test_reduction_capacity_convention():
    # capacity 8 pairs with budget 5
    inst = reduce_mpgsd_star(5, [2, 2])
    assert inst.capacity == inst.meta["sup"] + 3 == 8


def test_reduction_matches_subset_sum_oracle():
    for seed in range(25):
        rng = random.Random(seed)
        sup = rng.randint(1, 8)
        demands = [rng.randint(1, sup + 2) for _ in range(rng.randint(1, 4))]
        while sum(demands) > 13:
            demands.pop()
        if not demands:
            demands = [1]
        inst = reduce_mpgsd_star(sup, demands)
        best = best_subset_sum(sup, demands)
        expected = 3 + best if best > 0 else 1
        assert inst.known_optimum == expected
        assert brute_force_optimum(inst) == expected


def test_reduction_validation():
    with pytest.raises(ValueError):
        reduce_mpgsd_star(0, [1])
    with pytest.raises(ValueError):
        reduce_mpgsd_star(3, [])
    with pytest.raises(ValueError):
        reduce_mpgsd_star(3, [0])
    with pytest.raises(ValueError, match="more than 100000 nodes"):
        reduce_mpgsd_star(3, [50_000, 49_998])
