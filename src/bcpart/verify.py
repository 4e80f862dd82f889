"""Ground-truth feasibility checking and an exact optimum for tiny inputs.

verify_solution re-derives every constraint from scratch (root membership,
capacity, bi-connectivity of each induced subgraph) so solver bugs cannot
hide behind shared bookkeeping.  brute_force_optimum enumerates bi-connected
candidate sets per subgraph and maximizes total size over disjoint picks;
it is deliberately guarded to at most 16 nodes.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graph import Instance, is_biconnected
from .solver import Solution


@dataclass(frozen=True)
class Violation:
    kind: str              # "root-count" | "capacity" | "biconnectivity" | "structure"
    subgraph_index: int    # -1 for instance-wide problems
    detail: str


@dataclass(frozen=True)
class VerifyReport:
    feasible: bool
    violations: tuple[Violation, ...]

    def kinds(self) -> set[str]:
        return {v.kind for v in self.violations}


def verify_solution(instance: Instance, solution: Solution) -> VerifyReport:
    """Check a solution against every constraint; never trusts the solver.

    Raises ValueError on malformed input (wrong assignment length or
    out-of-range subgraph ids); constraint failures are reported, not
    raised.
    """
    g = instance.graph
    n = g.node_count
    k = instance.subgraph_count
    assignment = solution.assignment
    if len(assignment) != n:
        raise ValueError(
            f"assignment length {len(assignment)} != node count {n}")
    for u, a in enumerate(assignment):
        if a != -1 and not (0 <= a < k):
            raise ValueError(f"node {u} assigned to unknown subgraph {a}")
    violations: list[Violation] = []
    root_set = set(instance.roots)
    groups: list[list[int]] = [[] for _ in range(k)]
    for u, a in enumerate(assignment):
        if a != -1:
            groups[a].append(u)
    for i in range(k):
        nodes = groups[i]
        roots_inside = [u for u in nodes if u in root_set]
        if roots_inside != [instance.roots[i]]:
            violations.append(Violation(
                "root-count", i,
                f"subgraph {i} must contain exactly its own root "
                f"{instance.roots[i]}, found roots {roots_inside}"))
        if len(nodes) > instance.capacity:
            violations.append(Violation(
                "capacity", i,
                f"|S_{i}| = {len(nodes)} exceeds capacity {instance.capacity}"))
        if nodes and not is_biconnected(g, nodes):
            violations.append(Violation(
                "biconnectivity", i,
                f"subgraph {i} ({len(nodes)} nodes) is not bi-connected"))
    return VerifyReport(feasible=not violations, violations=tuple(violations))


def _candidate_sets(instance: Instance, root: int, non_roots: list[int]):
    """All bi-connected sets {root} ∪ T with T ⊆ non_roots, |set| <= M,
    as (bitmask over non_roots, size) pairs.  The singleton always
    qualifies."""
    g = instance.graph
    m = len(non_roots)
    cap = instance.capacity
    out = [(0, 1)]
    for mask in range(1, 1 << m):
        size = mask.bit_count() + 1
        if size > cap:
            continue
        nodes = [root] + [non_roots[i] for i in range(m) if mask >> i & 1]
        if is_biconnected(g, nodes):
            out.append((mask, size))
    return out


def brute_force_optimum(instance: Instance) -> int:
    """Exact optimum by exhaustive search; only for tiny instances.

    Equivalent to enumerating every assignment of non-root nodes to
    {subgraph 0..k-1, unassigned} and keeping the feasible maximum, but
    organized as one candidate-set enumeration per subgraph followed by a
    disjointness search with memoization and an upper-bound cutoff.
    """
    g = instance.graph
    if g.node_count > 16:
        raise ValueError("brute force is limited to instances with <= 16 nodes")
    root_set = set(instance.roots)
    non_roots = [u for u in range(g.node_count) if u not in root_set]
    k = instance.subgraph_count
    cands = [
        sorted(_candidate_sets(instance, instance.roots[i], non_roots),
               key=lambda t: -t[1])
        for i in range(k)
    ]
    best_tail = [0] * (k + 1)   # upper bound on what subgraphs i.. can add
    for i in range(k - 1, -1, -1):
        best_tail[i] = best_tail[i + 1] + cands[i][0][1]
    best = 0
    memo: dict[tuple[int, int], int] = {}

    def search(i: int, used: int) -> int:
        if i == k:
            return 0
        key = (i, used)
        hit = memo.get(key)
        if hit is not None:
            return hit
        best_here = 0
        for mask, size in cands[i]:
            if size + best_tail[i + 1] <= best_here:
                break   # candidates are size-sorted; nothing better follows
            if mask & used:
                continue
            got = size + search(i + 1, used | mask)
            if got > best_here:
                best_here = got
        memo[key] = best_here
        return best_here

    best = search(0, 0)
    return best
