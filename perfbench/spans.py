"""Span recording for the traced benchmark run.

A span is one call across a module boundary: name, start, end, the span
that was open when it started (its parent) and the run id of the panel item
being processed.  Spans are kept in flat arrays while the run lasts and are
written out once at the end.  A span's self time is its duration minus the
time of the calls made inside it.

Calls that happen once per ear or per trim candidate (grow, sibling prunes,
init_growth, is_biconnected) are timed but not stored one by one: a
solve-25x10 pass makes about 3.7 million of them.  Their count and total
time are kept per name and their time is charged to the enclosing span.
Exact counters (ears tested, no-op prunes, ...) come from the same wrappers.

Every wrapper replaces the name in the module that *calls* it, for example
`bcpart.solver.grow` rather than `bcpart.growth.grow`: the library binds
names with `from ... import`, so patching the defining module would miss
those calls.  No library file changes; `Tracer.restore` undoes the patches.
"""

from __future__ import annotations

import gzip
import importlib
import statistics
import time
from array import array
from collections import Counter

import bcpart

MODULES = ("graph", "generate", "solver", "growth", "local_search", "verify")


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.child = array("d")    # time of the calls made inside each span
        self.parent = array("q")
        self.run = array("q")
        self.stack: list[int] = []
        self.run_id = -1
        self.timed: dict[str, list] = {}   # name -> [calls, seconds], not stored
        self.counts: Counter = Counter()
        self._patches: list = []

    def span(self, module, attr: str, name: str, after=None):
        """Store a span for every call of `module.attr`.

        `after(result, None, args, kwargs)` runs once the span has closed.
        """
        fn = getattr(module, attr)
        nid = self._name_ids.setdefault(name, len(self.names))
        if nid == len(self.names):
            self.names.append(name)
        name_id, start, end, child = self.name_id, self.start, self.end, self.child
        parent, run, stack = self.parent, self.run, self.stack
        clock = time.perf_counter
        tracer = self

        def wrapper(*args, **kwargs):
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1] if stack else -1)
            run.append(tracer.run_id)
            end.append(0.0)
            child.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
                if stack:
                    child[stack[-1]] += end[idx] - start[idx]
            if after is not None:
                after(result, None, args, kwargs)
            return result

        self._patch(module, attr, fn, wrapper)

    def timer(self, module, attr: str, name: str, before=None, after=None):
        """Count and time every call of `module.attr` without storing spans.

        `before(*args)` runs untimed and its value is handed to
        `after(result, flag, args, kwargs)`, which also runs untimed.
        """
        fn = getattr(module, attr)
        rec = self.timed.setdefault(name, [0, 0.0])
        child, stack = self.child, self.stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            flag = before(*args) if before is not None else None
            t0 = clock()
            result = fn(*args, **kwargs)
            dt = clock() - t0
            rec[0] += 1
            rec[1] += dt
            if stack:
                child[stack[-1]] += dt
            if after is not None:
                after(result, flag, args, kwargs)
            return result

        self._patch(module, attr, fn, wrapper)

    def count(self, module, attr: str, key: str, not_none_key: str | None = None):
        """Count calls of `module.attr` (and non-None results); no timing."""
        fn = getattr(module, attr)
        counts = self.counts

        def wrapper(*args):
            result = fn(*args)
            counts[key] += 1
            if not_none_key is not None and result is not None:
                counts[not_none_key] += 1
            return result

        self._patch(module, attr, fn, wrapper)

    def _patch(self, module, attr, original, wrapper):
        self._patches.append((module, attr, original))
        setattr(module, attr, wrapper)

    def restore(self) -> None:
        while self._patches:
            module, attr, original = self._patches.pop()
            setattr(module, attr, original)

    def exact_counts(self) -> dict[str, int]:
        """Calls per name plus every counter: what must repeat exactly."""
        out = {f"calls:{self.names[i]}": c for i, c in Counter(self.name_id).items()}
        out.update((f"calls:{name}", rec[0]) for name, rec in self.timed.items())
        out.update(self.counts)
        return dict(sorted(out.items()))

    def totals(self):
        """Per name: [calls, total s, self s]; and the durations of regrow spans."""
        out = {name: [calls, secs, secs] for name, (calls, secs) in self.timed.items()}
        regrow = self._name_ids.get("local_search.regrow")
        regrow_s = []
        for i in range(len(self.start)):
            dur = self.end[i] - self.start[i]
            rec = out.setdefault(self.names[self.name_id[i]], [0, 0.0, 0.0])
            rec[0] += 1
            rec[1] += dur
            rec[2] += dur - self.child[i]
            if self.name_id[i] == regrow:
                regrow_s.append(dur)
        return out, regrow_s

    def write(self, path, origin: float) -> None:
        """Gzipped TSV, one line per stored span; times in s from `origin`."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write("run\tid\tparent\tname\tstart_s\tend_s\n")
            for i in range(len(self.start)):
                fh.write(f"{self.run[i]}\t{i}\t{self.parent[i]}\t"
                         f"{self.names[self.name_id[i]]}\t"
                         f"{self.start[i] - origin:.9f}\t{self.end[i] - origin:.9f}\n")


def instrument(tracer: Tracer) -> Tracer:
    """Install every wrapper the per-module metrics read."""
    counts = tracer.counts
    # the package re-exports a function named local_search, so look the
    # modules up by their full names
    gen, ls, sv, gr = (importlib.import_module(f"bcpart.{m}")
                       for m in ("generate", "local_search", "solver", "growth"))
    inf = gr.INF

    def bytes_written(result, _flag, _args, _kwargs):
        counts["graph.instance_bytes"] += len(result)

    def bytes_read(_result, _flag, args, _kwargs):
        counts["graph.instance_bytes"] += len(args[0])

    def search_counts(result, _flag, _args, kwargs):
        # the public trace= list holds (iteration, objective) per accepted solution
        trace = kwargs.get("trace") or []
        counts["local_search.iterations"] += result[1].iterations
        counts["local_search.accepted"] += max(len(trace) - 1, 0)
        counts["local_search.improved"] += sum(
            1 for a, b in zip(trace, trace[1:]) if b[1] > a[1])

    def is_biconnected_true(result, _flag, _args, _kwargs):
        counts["generate.is_biconnected_true"] += bool(result)

    def select_none(result, _flag, _args, _kwargs):
        counts["local_search.select_none"] += result is None

    def nodes_added(result, _flag, _args, _kwargs):
        counts["growth.nodes_added"] += result

    def prune_noop(st, removed):
        # a prune is a no-op when this tree never reached any removed node;
        # INF is the largest distance, so that holds when the least is INF
        return min(map(st.dist.__getitem__, removed), default=inf) == inf

    def prune_counted(_result, noop, _args, _kwargs):
        counts["solver.bfs_delete_noops"] += noop

    tracer.span(bcpart, "generate_instance", "generate.instance")
    tracer.span(bcpart, "instance_to_json", "graph.instance_to_json", after=bytes_written)
    tracer.span(bcpart, "instance_from_json", "graph.instance_from_json", after=bytes_read)
    tracer.span(bcpart, "local_search", "local_search.search", after=search_counts)
    tracer.span(bcpart, "verify_solution", "verify.solution")
    tracer.span(gen, "generate_block", "generate.block")
    tracer.span(gen, "assemble_instance", "generate.assemble")
    tracer.span(gen, "biconnected_components", "generate.biconnected_components")
    tracer.timer(gen, "is_biconnected", "generate.is_biconnected", after=is_biconnected_true)
    tracer.span(ls, "generate_solution", "solver.generate_solution")
    tracer.span(ls, "select_regrow_set", "local_search.select", after=select_none)
    tracer.span(ls, "regrow_partial", "local_search.regrow")
    tracer.span(ls, "build_neighbor_graph", "local_search.neighbor_graph")
    tracer.timer(sv, "init_growth", "solver.init_growth")
    tracer.timer(sv, "update_bfs_tree_delete", "solver.bfs_delete",
                 before=prune_noop, after=prune_counted)
    tracer.timer(sv, "grow", "growth.grow", after=nodes_added)
    tracer.count(gr, "try_make_ear", "growth.ears_tested", "growth.ears_valid")
    tracer.count(gr, "update_add_ear", "growth.ears_accepted")
    return tracer


# which end-to-end metric each per-module metric should move, on which
# workload, and where it should stay flat (matched by name prefix).  The
# shares are from traced runs on a 2-core Xeon with CPython 3.11.
TIES = (
    (("generate.assemble_s",),
     "moves setup_s on search-100x30 (about 80% of it) and gen_s_p50 on solve-25x10 "
     "(about 95%); a third of gen_s_p50 on generate-m100"),
    (("generate.",),
     "moves gen_s_p50 on generate-m100 (block sampling about two thirds of it, "
     "mostly is_biconnected); about a fifth of setup_s on search-100x30"),
    (("graph.io_s", "graph.instance_bytes"),
     "moves wall_s on generate-m100 (JSON round trip, under 1% today)"),
    (("solver.",),
     "moves iters_per_s on search-100x30; nearly flat on solve-25x10"),
    (("growth.",),
     "moves iters_per_s on both search workloads and solve_s_p50 on solve-25x10"),
    (("local_search.select",),
     "moves solve_s_p50 and time_to_best_s_p50 on solve-25x10 (the GROW-N "
     "solve); flat on search-100x30"),
    (("local_search.regrow", "local_search.neighbor_graph"),
     "moves iters_per_s on search-100x30; a smaller share on solve-25x10"),
    (("local_search.iterations", "local_search.accepted", "local_search.improved"),
     "guards err_pct and hits; exactly unchanged by a refactor that keeps the "
     "output bytes"),
    (("verify.calls", "verify.s"), "guards fail_ratio; not a speed target"),
    (("trace.",), "tracing cost: overhead_s is wall_s of the traced pass minus the "
                  "untraced pass; spans counts the stored spans"),
)


def tie(name: str) -> str:
    if name.endswith(".self_s"):
        return "self time of the module's spans in the traced set-up and pass"
    return next(text for prefixes, text in TIES if name.startswith(prefixes))


def _ratio(num, den) -> float:
    # a ratio over zero attempts reads 0 (the layer did no work here)
    return num / den if den else 0.0


def _percentile(values, q: float) -> float:
    """Nearest-rank percentile; 0 when there are no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def layer_metrics(tracers) -> dict[str, tuple[float, str]]:
    """The per-module metrics, summed over the given tracers."""
    calls: Counter = Counter()
    total: Counter = Counter()
    self_s: Counter = Counter()
    regrow_ms: list[float] = []
    counts: Counter = Counter()
    for tr in tracers:
        per_name, regrow_s = tr.totals()
        for name, (c, t, s) in per_name.items():
            calls[name] += c
            total[name] += t
            self_s[name] += s
        regrow_ms.extend(d * 1000.0 for d in regrow_s)
        counts.update(tr.counts)
    module_self: Counter = Counter()
    for name, s in self_s.items():
        module_self[name.split(".", 1)[0]] += s
    blocks = calls["generate.block"]
    batches = calls["generate.biconnected_components"]
    bic = calls["generate.is_biconnected"]
    prunes = calls["solver.bfs_delete"]
    tested = counts["growth.ears_tested"]
    valid = counts["growth.ears_valid"]
    m = {
        "generate.block_s": (total["generate.block"], "s"),
        "generate.blocks": (blocks, "count"),
        "generate.batches": (batches, "count"),
        "generate.batch_yield": (_ratio(blocks, batches), "blocks/batch"),
        "generate.is_biconnected_calls": (bic, "count"),
        "generate.is_biconnected_s": (total["generate.is_biconnected"], "s"),
        "generate.trim_keep_ratio": (
            _ratio(counts["generate.is_biconnected_true"], bic), "true/calls"),
        "generate.assemble_s": (self_s["generate.assemble"], "s"),
        "graph.io_s": (total["graph.instance_to_json"]
                       + total["graph.instance_from_json"], "s"),
        "graph.instance_bytes": (counts["graph.instance_bytes"], "bytes"),
        "solver.construct_s": (total["solver.generate_solution"], "s"),
        "solver.init_growth_calls": (calls["solver.init_growth"], "count"),
        "solver.init_growth_s": (total["solver.init_growth"], "s"),
        "solver.bfs_delete_calls": (prunes, "count"),
        "solver.bfs_delete_s": (total["solver.bfs_delete"], "s"),
        "solver.bfs_delete_noops": (counts["solver.bfs_delete_noops"], "count"),
        "solver.bfs_delete_noop_ratio": (
            _ratio(counts["solver.bfs_delete_noops"], prunes), "noops/calls"),
        "growth.grow_calls": (calls["growth.grow"], "count"),
        "growth.grow_s": (total["growth.grow"], "s"),
        "growth.ears_tested": (tested, "count"),
        "growth.ears_valid": (valid, "count"),
        "growth.ears_accepted": (counts["growth.ears_accepted"], "count"),
        "growth.ear_valid_ratio": (_ratio(valid, tested), "valid/tested"),
        "growth.ear_accept_ratio": (
            _ratio(counts["growth.ears_accepted"], valid), "accepted/valid"),
        "growth.nodes_added": (counts["growth.nodes_added"], "count"),
        "local_search.select_calls": (calls["local_search.select"], "count"),
        "local_search.select_none": (counts["local_search.select_none"], "count"),
        "local_search.select_s": (total["local_search.select"], "s"),
        "local_search.regrow_s": (total["local_search.regrow"], "s"),
        "local_search.regrow_self_s": (self_s["local_search.regrow"], "s"),
        "local_search.regrow_ms_p50": (
            statistics.median(regrow_ms) if regrow_ms else 0.0, "ms"),
        "local_search.regrow_ms_p99": (_percentile(regrow_ms, 99), "ms"),
        "local_search.neighbor_graph_calls": (calls["local_search.neighbor_graph"], "count"),
        "local_search.neighbor_graph_s": (total["local_search.neighbor_graph"], "s"),
        "local_search.iterations": (counts["local_search.iterations"], "count"),
        "local_search.accepted": (counts["local_search.accepted"], "count"),
        "local_search.improved": (counts["local_search.improved"], "count"),
        "verify.calls": (calls["verify.solution"], "count"),
        "verify.s": (total["verify.solution"], "s"),
    }
    for mod in MODULES:
        m[f"{mod}.self_s"] = (module_self[mod], "s")
    return m
