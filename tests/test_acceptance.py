"""End-to-end acceptance checks for the whole suite.

Run with `pytest -v tests/test_acceptance.py` to get one pass/fail line per
bar: fuzzed feasibility, exactness at tiny scale, accuracy and hit rate at
small scale, neighborhood-grow dominance, large-instance throughput,
admissible distance labels, per-ear structural invariants, star-reduction
soundness, and byte-level determinism.  The module takes a few minutes; the
large-instance check alone builds and solves a 10,000-node instance.
"""
import random
import time

from bcpart import (GROW_N, GROW_R, GenConfig, SolverConfig,
                    brute_force_optimum, generate_instance, generate_solution,
                    grow, init_growth, instance_to_json, is_biconnected,
                    local_search, reduce_mpgsd_star, rows_to_csv, run_bench,
                    solution_to_json, verify_solution)
from bcpart.growth import INF
from oracles import (best_subset_sum, exact_hop_layers, random_biconnected_graph,
                     random_graph, random_instance)


def pct_err(optimum, found):
    return (optimum - found) / optimum * 100.0


def solve_err(gen, mode, seed):
    sol, _ = local_search(gen.instance, SolverConfig(seed=seed), mode)
    assert verify_solution(gen.instance, sol).feasible
    return pct_err(gen.instance.known_optimum, sol.objective)


def test_all_solver_output_verifies_across_small_grid():
    # >= 1000 (instance, seed) pairs over n 2..5, M 5..10, alpha {1.5, 2},
    # every single-pass and search solution must verify; whole sweep < 2 min
    t0 = time.perf_counter()
    pairs = 0
    gen_seed = 0
    for n in (2, 3, 4, 5):
        for m in (5, 6, 7, 8, 9, 10):
            for alpha in (1.5, 2.0):
                for _ in range(3):
                    gen = generate_instance(
                        GenConfig(n=n, capacity=m, alpha=alpha, seed=gen_seed))
                    gen_seed += 1
                    for s in range(7):
                        cfg = SolverConfig(seed=s, max_iterations=30,
                                           stagnation_limit=12)
                        one = generate_solution(gen.instance, cfg,
                                                random.Random(s))
                        assert verify_solution(gen.instance, one).feasible
                        mode = GROW_N if s % 2 == 0 else GROW_R
                        best, _ = local_search(gen.instance, cfg, mode)
                        assert verify_solution(gen.instance, best).feasible
                        pairs += 1
    elapsed = time.perf_counter() - t0
    assert pairs >= 1000
    assert elapsed < 120.0, f"sweep took {elapsed:.1f}s"


def test_tiny_instances_never_beat_and_mostly_match_brute_force():
    # 100 random instances with <= 12 nodes, neighborhood grow at defaults
    matches = 0
    for i in range(100):
        inst = random_instance(random.Random(5000 + i), 12)
        opt = brute_force_optimum(inst)
        sol, _ = local_search(inst, SolverConfig(seed=i), GROW_N)
        assert verify_solution(inst, sol).feasible
        assert sol.objective <= opt
        matches += sol.objective == opt
    assert matches >= 80, f"matched optimum on {matches}/100"


def test_small_scale_accuracy_and_hit_rate():
    # 40 instances at (5 subgraphs, capacity 10, alpha 2): average error
    # within 2%, at least 32 exact hits, every solve under 5 s
    errs = []
    hits = 0
    for i in range(40):
        gen = generate_instance(GenConfig(n=5, capacity=10, alpha=2.0,
                                          seed=100 + i))
        t0 = time.perf_counter()
        err = solve_err(gen, GROW_N, seed=i)
        assert time.perf_counter() - t0 < 5.0
        errs.append(err)
        hits += err == 0.0
    avg = sum(errs) / len(errs)
    assert avg <= 2.0, f"avg error {avg:.3f}%"
    assert hits >= 32, f"{hits}/40 exact"


def test_neighborhood_grow_beats_random_grow_on_average():
    # 40 instances at (25, 10, alpha 2); compare the two regrow strategies
    errs_n = []
    errs_r = []
    for i in range(40):
        gen = generate_instance(GenConfig(n=25, capacity=10, alpha=2.0,
                                          seed=300 + i))
        errs_n.append(solve_err(gen, GROW_N, seed=i))
        errs_r.append(solve_err(gen, GROW_R, seed=i))
    avg_n = sum(errs_n) / 40
    avg_r = sum(errs_r) / 40
    assert avg_n <= avg_r, f"GrowN {avg_n:.3f}% vs GrowR {avg_r:.3f}%"


def test_large_instance_full_run_within_budget():
    # one (100, 100, alpha 2) instance: a full default search finishes in
    # <= 10 min and lands within 8% of the certificate optimum
    gen = generate_instance(GenConfig(n=100, capacity=100, alpha=2.0, seed=42))
    t0 = time.perf_counter()
    sol, stats = local_search(gen.instance, SolverConfig(seed=7), GROW_N)
    elapsed = time.perf_counter() - t0
    assert verify_solution(gen.instance, sol).feasible
    err = pct_err(gen.instance.known_optimum, sol.objective)
    assert elapsed <= 600.0, f"solve took {elapsed:.1f}s"
    assert err <= 8.0, f"error {err:.2f}%"


def test_distance_labels_never_underestimate():
    # 100 growth traces; at every snapshot the stored hop label of each
    # discovered node is an upper bound on its true distance to the subgraph
    for trial in range(100):
        rng = random.Random(9000 + trial)
        if trial % 2 == 0:
            g = random_graph(rng, rng.randint(8, 18), rng.uniform(0.25, 0.5))
        else:
            g = random_biconnected_graph(rng, rng.randint(6, 14),
                                         rng.randint(0, 4))
        root = rng.randrange(g.node_count)
        st = init_growth(g, root, g.node_count, 0.7)
        while grow(st, rng) > 0:
            in_s = {u for u in range(g.node_count) if st.owner[u] == st.label}
            allowed = {u for u in range(g.node_count) if st.owner[u] == -1}
            exact = exact_hop_layers(g, in_s, allowed)
            for u in allowed:
                if st.dist[u] != INF and u in exact:
                    assert st.dist[u] >= exact[u]


def test_every_accepted_ear_keeps_biconnectivity_and_capacity():
    # 1000 growth runs; after each accepted ear the subgraph must stay
    # bi-connected and within capacity
    for trial in range(1000):
        rng = random.Random(40000 + trial)
        if trial % 3 == 0:
            g = random_biconnected_graph(rng, rng.randint(5, 14),
                                         rng.randint(0, 5))
        else:
            g = random_graph(rng, rng.randint(6, 16), rng.uniform(0.2, 0.5))
        root = rng.randrange(g.node_count)
        cap = rng.randint(3, g.node_count)
        st = init_growth(g, root, cap, rng.uniform(0.4, 1.0))
        while grow(st, rng) > 0:
            assert len(st.members) <= cap
            assert is_biconnected(g, st.members)


def test_star_reduction_agrees_with_subset_sum():
    # 50 random star instances (sup <= 10, at most 5 demands): exhaustive
    # search over the reduced instance must equal the subset-sum answer
    for trial in range(50):
        rng = random.Random(7000 + trial)
        sup = rng.randint(3, 10)
        budget = 13
        demands = []
        for _ in range(rng.randint(1, 5)):
            if budget == 0:
                break
            d = rng.randint(1, min(6, budget))
            demands.append(d)
            budget -= d
        inst = reduce_mpgsd_star(sup, demands)
        best = best_subset_sum(sup, demands)
        expected = 3 + best if best > 0 else 1
        assert inst.known_optimum == expected
        assert brute_force_optimum(inst) == expected


def test_fixed_seed_runs_are_byte_identical():
    # same seeds in, same bytes out: instances, solutions, and CSV reports
    gen_a = generate_instance(GenConfig(n=3, capacity=6, alpha=2.0, seed=11))
    gen_b = generate_instance(GenConfig(n=3, capacity=6, alpha=2.0, seed=11))
    assert instance_to_json(gen_a.instance) == instance_to_json(gen_b.instance)

    cfg = SolverConfig(seed=5, max_iterations=300, stagnation_limit=80)
    sol_a, _ = local_search(gen_a.instance, cfg, GROW_N)
    sol_b, _ = local_search(gen_b.instance, cfg, GROW_N)
    assert solution_to_json(sol_a, 5) == solution_to_json(sol_b, 5)

    spec = {"pairs": [[2, 5], [3, 6]], "alpha": 2.0, "instancesPerPair": 2,
            "baseSeed": 1, "modes": [GROW_R, GROW_N],
            "config": {"maxIterations": 40, "stagnationLimit": 15}}
    csv_a = rows_to_csv(run_bench(spec, include_timing=False))
    csv_b = rows_to_csv(run_bench(spec, include_timing=False))
    assert csv_a == csv_b
