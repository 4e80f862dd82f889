"""Command line front end.

Subcommands: generate, solve, verify, reduce, bench, oracle.  Every command
exits 0 on success; failures (unreadable or malformed input, invalid
parameters, instance generation out of budget) print one JSON object
{"error": ...} to stderr and exit 2.  verify exits 1 when the solution is
infeasible.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import fields

from .bench import run_bench, rows_to_csv
from .generate import (GenConfig, GenerationError, certificate_solution, generate_instance,
                       reduce_mpgsd_star)
from .graph import load_instance, parse_json, save_instance
from .local_search import GROW_N, GROW_R, SearchStats, local_search
from .solver import (SolverConfig, generate_solution, load_solution,
                     save_solution, solution_to_json)
from .verify import brute_force_optimum, verify_solution

SINGLE_PASS = "single-pass"


def _cert_path(out: str) -> str:
    base = out[:-5] if out.endswith(".json") else out
    return base + ".cert.json"


def _cmd_generate(args) -> int:
    cfg = GenConfig(n=args.n, capacity=args.m, alpha=args.alpha, seed=args.seed)
    gen = generate_instance(cfg)
    save_instance(gen.instance, args.out)
    cert = {"blockMembership": list(gen.block_membership)}
    with open(_cert_path(args.out), "w", encoding="utf-8") as fh:
        json.dump(cert, fh)
        fh.write("\n")
    info = {
        "nodes": gen.instance.graph.node_count,
        "edges": gen.instance.graph.edge_count(),
        "optimum": gen.instance.known_optimum,
        "out": args.out,
    }
    print(json.dumps(info))
    return 0


def _cmd_solve(args) -> int:
    instance = load_instance(args.instance)
    # flags left out keep the SolverConfig defaults
    config = SolverConfig(**{f.name: getattr(args, f.name) for f in fields(SolverConfig)
                             if getattr(args, f.name) is not None})
    if args.mode == SINGLE_PASS:
        import random
        import time
        start = time.perf_counter()
        solution = generate_solution(instance, config, random.Random(config.seed))
        millis = (time.perf_counter() - start) * 1000.0
        stats = SearchStats(best_objective=solution.objective, iterations=1,
                            iteration_of_best=1, wall_millis=millis, seed=config.seed,
                            mode=SINGLE_PASS, total_millis=millis)
    else:
        solution, stats = local_search(instance, config, args.mode)
    if args.out:
        save_solution(solution, config.seed, args.out)
    else:
        print(solution_to_json(solution, config.seed))
    print(json.dumps(stats.as_dict()))
    return 0


def _cmd_verify(args) -> int:
    instance = load_instance(args.instance)
    solution, _seed = load_solution(args.solution)
    report = verify_solution(instance, solution)
    out = {
        "feasible": report.feasible,
        "objective": solution.objective,
        "violations": [
            {"kind": v.kind, "subgraph": v.subgraph_index, "detail": v.detail}
            for v in report.violations
        ],
    }
    print(json.dumps(out))
    return 0 if report.feasible else 1


def _cmd_reduce(args) -> int:
    demands = [int(tok) for tok in args.demands.split(",") if tok.strip()]
    instance = reduce_mpgsd_star(args.sup, demands)
    save_instance(instance, args.out)
    info = {
        "nodes": instance.graph.node_count,
        "capacity": instance.capacity,
        "optimum": instance.known_optimum,
        "out": args.out,
    }
    print(json.dumps(info))
    return 0


def _cmd_bench(args) -> int:
    with open(args.spec, "r", encoding="utf-8") as fh:
        spec = parse_json(fh.read())
    rows = run_bench(spec, workers=args.workers, include_timing=not args.no_timing)
    csv_text = rows_to_csv(rows)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(csv_text)
    else:
        sys.stdout.write(csv_text)
    return 0


def _cmd_oracle(args) -> int:
    instance = load_instance(args.instance)
    optimum = brute_force_optimum(instance)
    print(json.dumps({"optimum": optimum}))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bcpart",
        description="rooted bi-connected partitioning: generate, solve, verify, bench",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="generate a known-optimum instance")
    p.add_argument("--n", type=int, required=True, help="number of subgraphs")
    p.add_argument("--m", type=int, required=True, help="size cap per subgraph")
    p.add_argument("--alpha", type=float, default=2.0, help="density knob (> 0, larger = sparser)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="instance JSON path")
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("solve", help="solve an instance")
    p.add_argument("--instance", required=True)
    p.add_argument("--mode", choices=[GROW_R, GROW_N, SINGLE_PASS], default=GROW_N)
    # solver knobs: dest is the SolverConfig field, the default is the field's
    p.add_argument("--seed", type=int, dest="seed")
    p.add_argument("--p0", type=float, dest="p0")
    p.add_argument("--max-exp-length", type=int, dest="max_exp_length")
    p.add_argument("--regrow-size", type=int, dest="regrow_size")
    p.add_argument("--max-iters", type=int, dest="max_iterations")
    p.add_argument("--stagnation", type=int, dest="stagnation_limit")
    p.add_argument("--grow-n-attempts", type=int, dest="grow_n_attempts")
    p.add_argument("--out", default=None, help="solution JSON path (default: stdout)")
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("verify", help="check a solution; exit 1 if infeasible")
    p.add_argument("--instance", required=True)
    p.add_argument("--solution", required=True)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("reduce", help="encode a supply/demand splitting problem")
    p.add_argument("--sup", type=int, required=True, help="supply budget")
    p.add_argument("--demands", required=True, help="comma separated demands")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_reduce)

    p = sub.add_parser("bench", help="run a bench spec, emit CSV")
    p.add_argument("--spec", required=True, help="bench spec JSON path")
    p.add_argument("--out", default=None, help="CSV path (default: stdout)")
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--no-timing", action="store_true",
                   help="zero the timing column for reproducible output")
    p.set_defaults(func=_cmd_bench)

    p = sub.add_parser("oracle", help="exact optimum by exhaustive search (<= 16 nodes)")
    p.add_argument("--instance", required=True)
    p.set_defaults(func=_cmd_oracle)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, KeyError, GenerationError) as exc:
        print(json.dumps({"error": str(exc)}), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
