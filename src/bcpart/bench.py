"""Batch experiment harness: generate known-optimum instances, solve them,
aggregate normalized error / hit / iteration statistics into CSV rows.

A bench spec is a dict (usually loaded from JSON):

    {
      "pairs": [[5, 10], [25, 10]],      # (n, M) per row group
      "alpha": 2.0,
      "instancesPerPair": 40,
      "baseSeed": 100,                    # instance seeds base..base+k-1
      "modes": ["grow-r", "grow-n"],     # default ["grow-n"]
      "config": {"p0": 0.5, "maxExpLength": 12, ...}   # optional overrides
    }

The "config" keys are SolverConfig field names in camelCase; a key left out
keeps the field's default.  An unknown key at either level or a field of
the wrong type raises ValueError.

The solver seed for every run equals the instance seed, so a spec pins the
whole experiment; rows come out in (pair, mode) order.  Timing columns are
wall-clock and can be zeroed (include_timing=False) when byte-stable output
matters more than speed measurements.
"""

from __future__ import annotations

import os
import statistics
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, fields, replace

from .generate import GenConfig, GenerationError, generate_instance
from .graph import check_finite, check_type
from .local_search import GROW_N, GROW_R, local_search
from .solver import SolverConfig

_MODE_LETTER = {GROW_R: "R", GROW_N: "N"}
_SPEC_KEYS = ("pairs", "alpha", "instancesPerPair", "baseSeed", "modes", "config")
MAX_INSTANCES_PER_PAIR = 10_000

CSV_HEADER = ("n,M,alpha,mode,avgErrPct,stdevErrPct,maxErrPct,"
              "hits,avgIter,stdevIter,avgTimeMs")


@dataclass(frozen=True)
class BenchRow:
    n: int
    capacity: int
    alpha: float
    mode: str            # "R" or "N"
    avg_err_pct: float
    stdev_err_pct: float
    max_err_pct: float
    hits: int
    avg_iter: float
    stdev_iter: float
    avg_time_ms: float

    def to_csv(self) -> str:
        return (f"{self.n},{self.capacity},{self.alpha},{self.mode},"
                f"{self.avg_err_pct:.4f},{self.stdev_err_pct:.4f},"
                f"{self.max_err_pct:.4f},{self.hits},"
                f"{self.avg_iter:.2f},{self.stdev_iter:.2f},"
                f"{self.avg_time_ms:.1f}")


def _config_from_spec(cfg: dict) -> SolverConfig:
    """SolverConfig from a spec's "config" object.  The seed is not read
    here: every run uses its instance seed.  An unknown key raises
    ValueError."""
    known = {}
    for f in fields(SolverConfig):
        head, *rest = f.name.split("_")
        known[head + "".join(part.capitalize() for part in rest)] = f
    del known["seed"]
    kwargs = {}
    for key, value in cfg.items():
        if key not in known:
            raise ValueError(f"unknown config key {key!r}")
        kind = (int, float) if isinstance(known[key].default, float) else int
        kwargs[known[key].name] = check_type(value, kind, f"config {key}")
    return SolverConfig(**kwargs)


def _run_one(job) -> list[tuple] | None:
    """Generate one instance and solve it in every mode: one
    (err_pct, iteration_of_best, wall_millis) per mode, or None when
    generation fails."""
    gen_config, modes, base_config = job
    try:
        gen = generate_instance(gen_config)
    except GenerationError as exc:
        print(f"skip n={gen_config.n} M={gen_config.capacity} seed={gen_config.seed}: "
              f"{exc}", file=sys.stderr)
        return None
    instance = gen.instance
    opt = instance.known_optimum
    config = replace(base_config, seed=gen_config.seed)
    results = []
    for mode in modes:
        best, stats = local_search(instance, config, mode)
        err_pct = (opt - best.objective) / opt * 100.0
        results.append((err_pct, stats.iteration_of_best, stats.wall_millis))
    return results


def run_bench(spec: dict, workers: int = 1, include_timing: bool = True) -> list[BenchRow]:
    """Execute a bench spec; returns rows in (pair, mode) order.

    An unknown key, a spec field of the wrong type, an unknown mode, a
    pair that GenConfig refuses (more than MAX_NODES nodes, for one),
    instancesPerPair outside [1, MAX_INSTANCES_PER_PAIR] or workers < 1
    raises ValueError before any instance is generated.  The process pool
    never gets more workers than there are instances or cores.
    """
    if workers < 1:
        raise ValueError("workers must be >= 1")
    for key in check_type(spec, dict, "bench spec"):
        if key not in _SPEC_KEYS:
            raise ValueError(f"unknown bench spec key {key!r}")
    alpha = float(check_finite(spec.get("alpha", 2.0), "alpha"))
    pairs = []
    for pair in check_type(spec.get("pairs"), list, "pairs"):
        if not isinstance(pair, list) or len(pair) != 2:
            raise ValueError(f"pair {pair!r} must be a pair [n, M]")
        pairs.append(GenConfig(n=pair[0], capacity=pair[1], alpha=alpha))
    count = check_type(spec.get("instancesPerPair", 10), int, "instancesPerPair")
    if not 1 <= count <= MAX_INSTANCES_PER_PAIR:
        raise ValueError(f"instancesPerPair must be in [1, {MAX_INSTANCES_PER_PAIR}]")
    base_seed = check_type(spec.get("baseSeed", 0), int, "baseSeed")
    modes = check_type(spec.get("modes", [GROW_N]), list, "modes")
    for mode in modes:
        if check_type(mode, str, "mode") not in _MODE_LETTER:
            raise ValueError(f"unknown mode in bench spec: {mode}")
    config = _config_from_spec(check_type(spec.get("config", {}), dict, "config"))
    jobs = [(replace(pair, seed=base_seed + idx), modes, config)
            for pair in pairs for idx in range(count)]
    workers = min(workers, len(jobs), os.cpu_count() or 1)
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as executor:
            results = list(executor.map(_run_one, jobs))
    else:
        results = [_run_one(job) for job in jobs]
    rows: list[BenchRow] = []
    for p, pair in enumerate(pairs):
        n, capacity = pair.n, pair.capacity
        solved = [r for r in results[p * count:(p + 1) * count] if r is not None]
        for mode_idx, mode in enumerate(modes):
            chunk = [r[mode_idx] for r in solved]
            if not chunk:
                raise GenerationError(
                    f"all {count} instances failed for n={n} M={capacity}")
            errs = [r[0] for r in chunk]
            iters = [float(r[1]) for r in chunk]
            times = [r[2] for r in chunk]
            rows.append(BenchRow(
                n=n,
                capacity=capacity,
                alpha=alpha,
                mode=_MODE_LETTER[mode],
                avg_err_pct=statistics.mean(errs),
                stdev_err_pct=statistics.pstdev(errs),
                max_err_pct=max(errs),
                hits=sum(1 for e in errs if e == 0.0),
                avg_iter=statistics.mean(iters),
                stdev_iter=statistics.pstdev(iters),
                avg_time_ms=statistics.mean(times) if include_timing else 0.0,
            ))
    return rows


def rows_to_csv(rows) -> str:
    return "\n".join([CSV_HEADER] + [row.to_csv() for row in rows]) + "\n"
