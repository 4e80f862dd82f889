"""Committed sha256 digests of fixed-seed outputs.

Each case recomputes one output and compares its digest with the
value recorded below, so a change that alters any instance, solution or
`--no-timing` CSV byte fails here even when two runs inside one process still
agree with each other.  `python tests/test_golden.py` prints the current
digests; update the table only for an output change that is intended and
stated.
"""
import hashlib
import json
from functools import lru_cache
from random import Random

import pytest

from bcpart import (GROW_N, GROW_R, GenConfig, SolverConfig, generate_instance,
                    generate_solution, instance_to_json, local_search, rows_to_csv,
                    run_bench, solution_to_json)


@lru_cache(maxsize=None)
def _instance(n, capacity, alpha, seed):
    return generate_instance(GenConfig(n=n, capacity=capacity, alpha=alpha, seed=seed)).instance


def _single_pass(seed):
    config = SolverConfig(seed=seed)
    sol = generate_solution(_instance(5, 10, 2.0, 0), config, Random(seed))
    return solution_to_json(sol, seed)


def _search(dims, mode, config):
    # the accepted-objective trace pins the search path, not only its end:
    # small instances often end at the same optimum whatever the draws
    trace = []
    sol, stats = local_search(_instance(*dims), config, mode, trace=trace)
    path = json.dumps({"trace": trace, "iterations": stats.iterations,
                       "iterationOfBest": stats.iteration_of_best})
    return solution_to_json(sol, config.seed) + "\n" + path


def _bench_csv():
    spec = {
        "pairs": [[3, 6], [4, 8]],
        "alpha": 2.0,
        "instancesPerPair": 3,
        "baseSeed": 20,
        "modes": [GROW_R, GROW_N],
        "config": {"maxIterations": 200, "stagnationLimit": 60},
    }
    return rows_to_csv(run_bench(spec, include_timing=False))


CASES = {
    "instance-5x10-a2.0-s0": lambda: instance_to_json(_instance(5, 10, 2.0, 0)),
    "instance-4x7-a1.5-s11": lambda: instance_to_json(_instance(4, 7, 1.5, 11)),
    # placement-heavy: 29 placements of 1,000 position trials each
    "instance-30x20-a2.0-s7": lambda: instance_to_json(_instance(30, 20, 2.0, 7)),
    # trim-heavy: about 2,000 candidate removals in block trimming
    "instance-2x60-a2.0-s5": lambda: instance_to_json(_instance(2, 60, 2.0, 5)),
    # the second generate-m100 instance: ten 100-node blocks, the block
    # sampler's grid and the trim's neighbour test at the paper's capacity
    "instance-10x100-a2.0-s1": lambda: instance_to_json(_instance(10, 100, 2.0, 1)),
    # the set-up instances of the solve-25x10 and search-100x30 benchmarks,
    # placement-heavy at small M
    "instance-25x10-a2.0-s300": lambda: instance_to_json(_instance(25, 10, 2.0, 300)),
    "instance-100x30-a2.0-s42": lambda: instance_to_json(_instance(100, 30, 2.0, 42)),
    "single-pass-5x10-seed3": lambda: _single_pass(3),
    "grow-r-5x10-default-seed1": lambda: _search((5, 10, 2.0, 0), GROW_R, SolverConfig(seed=1)),
    "grow-n-5x10-default-seed1": lambda: _search((5, 10, 2.0, 0), GROW_N, SolverConfig(seed=1)),
    "grow-n-4x7-default-seed5": lambda: _search((4, 7, 1.5, 11), GROW_N, SolverConfig(seed=5)),
    "grow-n-8x10-default-seed1": lambda: _search((8, 10, 2.0, 1), GROW_N, SolverConfig(seed=1)),
    "grow-n-25x10-s300-capped400": lambda: _search(
        (25, 10, 2.0, 300), GROW_N,
        SolverConfig(seed=0, max_iterations=400, stagnation_limit=400)),
    "grow-r-25x10-s300-capped400": lambda: _search(
        (25, 10, 2.0, 300), GROW_R,
        SolverConfig(seed=0, max_iterations=400, stagnation_limit=400)),
    # 100 subgraphs: every accept refreshes the neighbour-graph rows of
    # many labels at once
    "grow-n-100x30-s42-capped100": lambda: _search(
        (100, 30, 2.0, 42), GROW_N,
        SolverConfig(seed=7, max_iterations=100, stagnation_limit=100)),
    "bench-csv-no-timing": _bench_csv,
}

GOLDEN = {
    "bench-csv-no-timing":
        "8eaf54ea5ae25bfad183c7ef7e9e4a3e3eb1169e9699d6d238e5300c1b966999",
    "grow-n-100x30-s42-capped100":
        "2c88201aa5bb6171583fc2eda920cb114635732ddad1bc1994fbae7d426b596e",
    "grow-n-25x10-s300-capped400":
        "348d4bc05b6e8c74927029f8f75fc49aae6d2d72e1761287945bb3d04db07eb8",
    "grow-n-4x7-default-seed5":
        "d12bcabe831dcceb528506f74138b39d7190e34834c397664427545fc18526de",
    "grow-n-5x10-default-seed1":
        "f6bb604aea72b733f999fd38e7ed9e3624eb5f6f744faadec7992f9762f0fdc9",
    "grow-n-8x10-default-seed1":
        "b7ca8b902e3342ec4b124aae1cbaee1fca75fb0728e68218eaa6d04c196232a6",
    "grow-r-25x10-s300-capped400":
        "57e873242e5568add918a394ea1e4668f6678d5e6c41462d6ef129b33502fede",
    "grow-r-5x10-default-seed1":
        "e62f4a862111eec490fe07ef93e456bf396f72d88c247eb99097f2007cd90164",
    "instance-10x100-a2.0-s1":
        "a3bac65e4b843ce2bcc78603ea41519961a8a14f9a253f126f607561a43d604a",
    "instance-100x30-a2.0-s42":
        "35dc892f7cacb59f15a25fdf1de2a237631926816f6932155ee24d44215696e3",
    "instance-25x10-a2.0-s300":
        "e4141a6bc9219632d0bdb3a542b72488c761a2d04ddd0651bd6064cd4e9a096d",
    "instance-2x60-a2.0-s5":
        "228dd1eee72a19cb3dd91a19686aa857ce279e4edfa8ea458aaf10c83540725e",
    "instance-30x20-a2.0-s7":
        "a48e11a3acef59e718032cc63c67b74516fb6e22ac54f092b5d7c9468b61c7e9",
    "instance-4x7-a1.5-s11":
        "814193eeffba08e6c50b41ce7235059e35368e002fa3ba24acb7c571c1cbbd76",
    "instance-5x10-a2.0-s0":
        "37ad0ce01991ca09f78f3e184025cc105830f064c875a1e7bb273c7fe7c4ca43",
    "single-pass-5x10-seed3":
        "e17bcb8effd6fd92a11d93b5b7d888d45455341fcea209395bc39c371c580b83",
}


def _digest(name):
    return hashlib.sha256(CASES[name]().encode("utf-8")).hexdigest()


@pytest.mark.parametrize("name", sorted(CASES))
def test_output_matches_golden_digest(name):
    assert _digest(name) == GOLDEN[name]


def test_every_case_has_a_digest():
    assert set(GOLDEN) == set(CASES)


if __name__ == "__main__":
    for case in sorted(CASES):
        print(f'    "{case}":\n        "{_digest(case)}",')
