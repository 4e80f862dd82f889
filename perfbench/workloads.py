"""The benchmark's workloads: generate -> local_search -> verify_solution.

Each workload has a set-up (a small warm-up pipeline plus the instances its
timed panel solves) and a timed panel of items.  Every item returns a
record: timings, quality, sha256 digests of the instance and solution JSON,
and a list of problems (any problem makes the operation count as failed).

The timed panels are fixed.  Instance cost varies up to 3x across generator
seeds and full-solve time 20x across 25x10 solver seeds, so seed-dependent
panels would measure the seed, not the code.  `--seed` instead picks the
probe: one fresh 5x10 instance that is generated, certificate-checked,
solved in both modes and verified after the timed part, so every seed checks
new inputs end to end.

The runner samples the item with the least time spent so far, so short
items get many samples spread over the run.
"""

from __future__ import annotations

import hashlib
import time
import traceback

import bcpart
from bcpart import GROW_N, GROW_R, GenConfig, SolverConfig

ALPHA = 2.0
# generate-m100: 10 blocks of 100 nodes, as in the paper's large family.
# Fewer blocks would give more samples per run but shift the time from
# block sampling to placement (60% of an instance at 3 blocks).  Each
# instance also gets a short capped search so the solve metrics exist on
# every workload; generation stays over 80% of the item.
GEN_BLOCKS = 10
GEN_SEEDS = (0, 1)
GEN_SEARCH_CAP = 150
# solve-25x10: the acceptance panel's first instance under SolverConfig()
# in both modes.  GROW-N is the select-heavy 15-20 s solve; a second
# instance would get one sample of each solve per run, too few for a
# steady median behind that solve.
SOLVE_SEED = 300
# search-100x30: fixed iteration cap, stagnation limit equal to it
SEARCH_SEED = 42
SEARCH_SOLVER_SEED = 7
SEARCH_CAP = 500
WARM_UP = GenConfig(n=5, capacity=10, alpha=ALPHA, seed=0)
PROBE_CAP = 200


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def generated(cfg: GenConfig):
    """Generate one instance and check its certificate and JSON round trip."""
    t0 = time.perf_counter()
    gen = bcpart.generate_instance(cfg)
    gen_s = time.perf_counter() - t0
    inst = gen.instance
    problems = []
    cert = bcpart.certificate_solution(gen)
    if (cert.objective != inst.known_optimum
            or not bcpart.verify_solution(inst, cert).feasible):
        problems.append(f"instance seed {cfg.seed}: certificate is not a verified optimum")
    text = bcpart.instance_to_json(inst)
    if bcpart.instance_to_json(bcpart.instance_from_json(text)) != text:
        problems.append(f"instance seed {cfg.seed}: JSON round trip changed the bytes")
    return inst, {"gen_s": gen_s, "instance_sha": sha256(text), "problems": problems}


def solved(inst, inst_rec: dict, config: SolverConfig, mode: str) -> dict:
    """One local search, verified independently of the solver."""
    t0 = time.perf_counter()
    sol, stats = bcpart.local_search(inst, config, mode, trace=[])
    solve_s = time.perf_counter() - t0
    problems = list(inst_rec["problems"])
    if not bcpart.verify_solution(inst, sol).feasible:
        problems.append(f"{mode} seed {config.seed}: solution fails verification")
    opt = inst.known_optimum
    return {
        "solve_s": solve_s,
        "best_s": stats.wall_millis / 1000.0,
        "iterations": stats.iterations,
        "err_pct": (opt - sol.objective) / opt * 100.0,
        "hit": sol.objective == opt,
        "instance_sha": inst_rec["instance_sha"],
        "solution_sha": sha256(bcpart.solution_to_json(sol, config.seed)),
        "problems": problems,
    }


def capped(seed: int, cap: int) -> SolverConfig:
    return SolverConfig(seed=seed, max_iterations=cap, stagnation_limit=cap)


def warm_up() -> dict:
    """First calls of every stage, so none of them is paid inside timing."""
    return solved(*generated(WARM_UP), capped(0, PROBE_CAP), GROW_N)


def _gen_item(cfg: GenConfig, search: SolverConfig):
    def run():
        inst, rec = generated(cfg)
        out = solved(inst, rec, search, GROW_N)
        out["gen_s"] = rec["gen_s"]
        return out
    return f"gen-{cfg.n}x{cfg.capacity}-s{cfg.seed}", run


def _solve_item(inst, rec: dict, config: SolverConfig, mode: str, name: str):
    return f"{name}-{mode}-seed{config.seed}", lambda: solved(inst, rec, config, mode)


def build_generate():
    return [], [_gen_item(GenConfig(n=GEN_BLOCKS, capacity=100, alpha=ALPHA, seed=s),
                          capped(s, GEN_SEARCH_CAP)) for s in GEN_SEEDS]


def build_solve():
    inst, rec = generated(GenConfig(n=25, capacity=10, alpha=ALPHA, seed=SOLVE_SEED))
    return [rec], [_solve_item(inst, rec, SolverConfig(), mode, f"25x10-s{SOLVE_SEED}")
                   for mode in (GROW_N, GROW_R)]


def build_search():
    inst, rec = generated(GenConfig(n=100, capacity=30, alpha=ALPHA, seed=SEARCH_SEED))
    return [rec], [_solve_item(inst, rec, capped(SEARCH_SOLVER_SEED, SEARCH_CAP), GROW_N,
                               f"100x30-s{SEARCH_SEED}")]


def probe(seed: int) -> list[tuple[str, dict]]:
    """The seeded probe: a fresh 5x10 instance through the whole pipeline."""
    label = f"probe-5x10-s{seed}"
    try:
        inst, rec = generated(GenConfig(n=5, capacity=10, alpha=ALPHA, seed=seed))
        return [(f"{label}-{mode}", solved(inst, rec, capped(seed, PROBE_CAP), mode))
                for mode in (GROW_N, GROW_R)]
    except Exception:  # a failed operation is counted, not fatal
        return [(label, {"problems": [traceback.format_exc()]})]


# name -> build(): (set-up records, timed panel items)
WORKLOADS = {
    "generate-m100": build_generate,
    "solve-25x10": build_solve,
    "search-100x30": build_search,
}
