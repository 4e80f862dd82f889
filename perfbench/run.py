"""Seeded generate -> solve -> verify benchmark for bcpart.

    python3 perfbench/run.py --workload solve-25x10 --seed 1 --seconds 10 --trace 0

Run from the repository root; the library is imported from ./src.  The
report lines come first, and the last line of stdout is one JSON object
with `correct`, `attempted`, `failed` and `metrics`.

--trace 0: set up at least SETUP_REPEATS times (median set-up time), then
sample the timed panel until --seconds have passed and every item ran; report
the end-to-end metrics.  --trace 1: set up once under tracing, run one untraced
pass and two traced passes of the panel, require the exact counters of the
two traced passes to match, and report the per-module metrics with the
tracing overhead.  Full results and spans go to .bench_build/perfbench/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".bench_build" / "perfbench"
# set-up runs at least SETUP_REPEATS times and for at least SETUP_MIN_S, so
# a short set-up still has a median over several samples while the 10 s
# set-up of search-100x30 runs twice
SETUP_REPEATS = 2
SETUP_MIN_S = 4.0


def median_of(values):
    return statistics.median(values) if values else 0.0


def environment(args) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "commit": git_commit(),
        "source_sha256": source_digest(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def git_commit() -> str:
    """HEAD of the checkout when it is a git work tree, else "unknown"."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def source_digest() -> str:
    """sha256 over the library's and the benchmark's source files.

    Names the code measured where the checkout is not a git work tree.
    """
    h = hashlib.sha256()
    here = Path(__file__).resolve().parent
    for path in sorted((ROOT / "src" / "bcpart").glob("*.py")) + sorted(here.glob("*.py")):
        h.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


class Ledger:
    """Every operation attempted, and the problems of those that failed."""

    def __init__(self):
        self.attempted = 0
        self.problems: list[str] = []
        self.failed = 0

    def add(self, label: str, record: dict) -> None:
        self.attempted += 1
        if record["problems"]:
            self.failed += 1
            self.problems.extend(f"{label}: {p}" for p in record["problems"])


def run_timed(items, seconds: float, ledger: Ledger, tracer=None) -> dict:
    """Sample the panel for `seconds` and until every item ran at least once.

    Each step runs the item with the least time spent so far, so short items
    collect many samples spread over the whole run, while a long one runs
    as often as its share of the time allows.
    """
    records = {label: [] for label, _ in items}
    spent = dict.fromkeys(records, 0.0)
    t0 = time.perf_counter()
    k = 0
    while not all(records.values()) or time.perf_counter() - t0 < seconds:
        label, fn = min(items, key=lambda item: spent[item[0]])
        if tracer is not None:
            tracer.run_id = k
        t = time.perf_counter()
        try:
            rec = fn()
        except Exception:  # a failed operation is counted, not fatal
            rec = {"problems": [traceback.format_exc()]}
        rec["item_s"] = time.perf_counter() - t
        spent[label] += rec["item_s"]
        first = records[label][0] if records[label] else None
        if first is not None and any(rec.get(key) != first.get(key)
                                     for key in ("instance_sha", "solution_sha")):
            rec["problems"].append("output bytes differ from the first repeat")
        records[label].append(rec)
        ledger.add(label, rec)
        k += 1
    return records


def item_median(recs, key):
    values = [r[key] for r in recs if key in r]
    return statistics.median(values) if values else None


def end_to_end(setup_times, setup_records, records) -> dict:
    """Metric name -> (value, unit, sample note)."""
    per_item = {label: {key: item_median(recs, key)
                        for key in ("item_s", "gen_s", "solve_s", "best_s", "iterations",
                                    "err_pct", "hit")}
                for label, recs in records.items()}
    rows = [r for r in per_item.values() if r["solve_s"] is not None]
    passes = min(len(recs) for recs in records.values())
    gen = [r["gen_s"] for r in per_item.values() if r["gen_s"] is not None]
    gen_note = f"median of {len(gen)} timed instances, >= {passes} samples each"
    if not gen:
        by_sha: dict[str, list[float]] = {}
        for rec in setup_records:
            if "gen_s" in rec:
                by_sha.setdefault(rec["instance_sha"], []).append(rec["gen_s"])
        gen = [statistics.median(v) for v in by_sha.values()]
        gen_note = f"median of {len(gen)} set-up instances x {len(setup_times)} set-ups"
    search_s = sum(r["solve_s"] for r in rows)
    items_note = f"{len(rows)} items, >= {passes} samples each"
    return {
        "setup_s": (median_of(setup_times), "s", f"median of {len(setup_times)} set-ups"),
        "wall_s": (sum(r["item_s"] for r in per_item.values()), "s",
                   f"one pass: sum of item medians, {items_note}"),
        "gen_s_p50": (median_of(gen), "s", gen_note),
        "solve_s_p50": (median_of([r["solve_s"] for r in rows]), "s",
                        f"median over {items_note}"),
        "time_to_best_s_p50": (median_of([r["best_s"] for r in rows]), "s",
                               f"median over {items_note}"),
        "iters_per_s": (sum(r["iterations"] for r in rows) / search_s if search_s else 0.0,
                        "1/s", f"iterations / search time over {len(rows)} items"),
        "err_pct": (statistics.fmean(r["err_pct"] for r in rows) if rows else 0.0, "%",
                    f"mean over {len(rows)} solves"),
        "hits": (sum(1 for r in rows if r["hit"]), "count", f"of {len(rows)} solves"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB",
                        "ru_maxrss of the process"),
    }


def item_summary(records) -> dict[str, dict]:
    """Per panel item: its sample count and median time."""
    return {label: {"samples": len(recs), "item_s_p50": item_median(recs, "item_s")}
            for label, recs in records.items()}


def digests(records) -> dict[str, dict]:
    return {label: {key: recs[0].get(key) for key in ("instance_sha", "solution_sha")}
            for label, recs in records.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "bcpart" / "__init__.py").is_file():
        print(f"perfbench: no library source at {ROOT / 'src' / 'bcpart'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import spans
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(workloads.WORKLOADS)}")
    build = workloads.WORKLOADS[args.workload]
    ledger = Ledger()
    env = environment(args)
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    result: dict = {"env": env}

    if args.trace == 0:
        setup_times, setup_records, first_shas = [], [], None
        while len(setup_times) < SETUP_REPEATS or sum(setup_times) < SETUP_MIN_S:
            t0 = time.perf_counter()
            recs = [workloads.warm_up()]
            built, items = build()
            setup_times.append(time.perf_counter() - t0)
            shas = [r["instance_sha"] for r in recs + built]
            if first_shas is None:
                first_shas = shas
            elif shas != first_shas:
                recs[0]["problems"].append("set-up instance bytes differ between set-ups")
            setup_records.extend(recs + built)
    else:
        origin = time.perf_counter()
        setup_records = [workloads.warm_up()]
        traced_setup = spans.instrument(spans.Tracer())
        built, items = build()
        traced_setup.restore()
        setup_records.extend(built)
    for rec in setup_records:
        ledger.add("setup", rec)

    if args.trace == 0:
        records = run_timed(items, args.seconds, ledger)
    else:
        untraced = run_timed(items, 0, ledger)
        first = spans.instrument(spans.Tracer())
        records = run_timed(items, 0, ledger, first)
        first.restore()
        metrics = spans.layer_metrics([traced_setup, first])
        traced_wall = sum(r["item_s"] for recs in records.values() for r in recs)
        untraced_wall = sum(r["item_s"] for recs in untraced.values() for r in recs)
        metrics["trace.wall_s"] = (traced_wall, "s")
        metrics["trace.overhead_s"] = (traced_wall - untraced_wall, "s")
        metrics["trace.spans"] = (len(traced_setup.start) + len(first.start), "count")
        metrics = {name: (value, unit, spans.tie(name))
                   for name, (value, unit) in metrics.items()}
        second = spans.instrument(spans.Tracer())
        again = run_timed(items, 0, ledger, second)
        second.restore()
        exact = first.exact_counts()
        problems = []
        if second.exact_counts() != exact:
            problems.append("exact counters differ between the two traced passes")
        if not digests(untraced) == digests(records) == digests(again):
            problems.append("output bytes differ between the untraced and traced passes")
        ledger.add("trace", {"problems": problems})
        result["exact_counts"] = exact
        traced_setup.write(OUT_DIR / f"{stem}-setup-spans.tsv.gz", origin)
        first.write(OUT_DIR / f"{stem}-pass-spans.tsv.gz", origin)

    probed = {}
    for label, rec in workloads.probe(args.seed):
        ledger.add(label, rec)
        probed[label] = [rec]
    if args.trace == 0:
        metrics = end_to_end(setup_times, setup_records, records)
        result["items"] = item_summary(records)

    result.update(metrics={k: dict(zip(("value", "unit", "note"), v))
                           for k, v in metrics.items()},
                  digests=digests(records | probed), problems=ledger.problems)
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(result, indent=1) + "\n")

    print(f"# perfbench {args.workload} seed={args.seed} trace={args.trace}")
    print("env " + json.dumps(env))
    for name, (value, unit, *note) in metrics.items():
        print(f"metric {name} {value:.6g} {unit}" + (f"  ({note[0]})" if note else ""))
    if args.trace == 0:
        print(f"metric fail_ratio {ledger.failed / ledger.attempted:.6g} failed/attempted  "
              f"({ledger.failed} of {ledger.attempted} operations)")
    for label, d in result["digests"].items():
        print(f"digest {label} instance={d['instance_sha']} solution={d['solution_sha']}")
    print("digest all " + workloads.sha256(json.dumps(result["digests"], sort_keys=True)))
    for problem in ledger.problems:
        print(f"problem {problem}")

    # the JSON line carries exactly the metrics BENCHMARK.json declares
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    out = {}
    for spec in declared["per_layer" if args.trace else "end_to_end"]:
        value, unit = metrics[spec["name"]][:2]
        if unit != spec["unit"]:
            raise ValueError(f"{spec['name']}: unit {unit} != declared {spec['unit']}")
        out[spec["name"]] = {"value": value, "unit": unit}
    print(json.dumps({"correct": ledger.failed == 0, "attempted": ledger.attempted,
                      "failed": ledger.failed, "metrics": out}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
