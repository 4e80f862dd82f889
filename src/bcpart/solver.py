"""Randomized construction of full solutions: many subgraphs grow in
parallel around their roots, interleaved in random bursts.

Each outer step draws a burst length MaxL in [2, max_exp_length], picks a
random still-expandable subgraph and lets it add ears, in one grow call,
until the burst is filled or it cannot continue.  All subgraphs share one
owner list (node -> subgraph label, -1 = free), which is also the resulting
assignment: every accepted ear writes its label over its new nodes and
appends them to one claim log.  When a subgraph starts a burst it prunes
the claims it has not seen from its BFS tree in one batch; a prune touches
only that subgraph's tree and queue, so deferring it changes nothing.  A
subgraph retires once its queue runs dry or it is full.

The claim log is also what a caller gets back: the grown subgraphs are
exactly their roots plus the logged nodes, so local search reads the
candidate's objective and its new member lists from it without a scan of
the whole owner list.

RNG consumption order per outer step: burst length, subgraph pick, then
one draw per valid ear found while growing.  Identical seeds give
identical solutions.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields

from .graph import Instance, check_finite, check_type, parse_json
from .growth import grow, init_growth, update_bfs_tree_delete

__all__ = [
    "SolverConfig", "Solution", "objective", "generate_solution",
    "solution_to_json", "solution_from_json", "save_solution", "load_solution",
]


@dataclass(frozen=True)
class SolverConfig:
    """Knobs shared by construction and local search."""

    p0: float = 0.5                # ear acceptance probability
    max_exp_length: int = 12       # upper bound for burst length MaxL
    regrow_size: int = 9           # upper bound for regrown subset size
    max_iterations: int = 10_000   # generated solutions cap
    stagnation_limit: int = 2_000  # iterations without strict improvement
    grow_n_attempts: int = 50      # tries per size before the subset grows
    seed: int = 0

    def __post_init__(self):
        for f in fields(self):
            if f.type == "int":
                check_type(getattr(self, f.name), int, f.name)
        if not (0.0 <= check_finite(self.p0, "p0") <= 1.0):
            raise ValueError("p0 must be in [0, 1]")
        if self.max_exp_length < 2:
            raise ValueError("max_exp_length must be >= 2")
        if self.regrow_size < 2:
            raise ValueError("regrow_size must be >= 2")
        if self.max_iterations < 1 or self.stagnation_limit < 1:
            raise ValueError("iteration limits must be positive")
        if self.grow_n_attempts < 1:
            raise ValueError("grow_n_attempts must be positive")


@dataclass(frozen=True)
class Solution:
    """Node-to-subgraph assignment; -1 marks unassigned nodes."""

    assignment: tuple[int, ...]
    objective: int = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "assignment", tuple(self.assignment))
        object.__setattr__(self, "objective", objective(self.assignment))


def objective(assignment) -> int:
    """Number of assigned nodes (the quantity being maximized)."""
    return len(assignment) - assignment.count(-1)


def _grow_parallel(instance: Instance, owner: list[int], labels, config: SolverConfig,
                   rng) -> list[int]:
    """Grow subgraph L around instance.roots[L] for every L in `labels`.

    `owner` maps each node to the label of the subgraph holding it, -1 when
    free; the roots to grow must be free.  The grown subgraphs may take free
    nodes only; every node holding another label is off limits.  `owner` is
    updated in place and becomes the new assignment.  Returns the claim
    log: every node the ears took, in claim order, roots excluded, each
    now holding its subgraph's label in `owner`.
    """
    roots = instance.roots
    for label in labels:
        owner[roots[label]] = label
    states = [init_growth(instance.graph, roots[label], instance.capacity, config.p0, owner)
              for label in labels]
    claimed: list[int] = []       # every node an ear took, in claim order
    seen = [0] * len(states)      # per state: log length its tree has pruned
    expandable = list(range(len(states)))
    while expandable:
        max_l = rng.randint(2, config.max_exp_length)
        i = expandable[rng.randrange(len(expandable))]
        st = states[i]
        update_bfs_tree_delete(st, claimed[seen[i]:])
        start = len(st.members)
        if grow(st, rng, max_l) < max_l or len(st.members) >= instance.capacity:
            expandable.remove(i)
        # only this state claimed during its burst: it needs no prune of them
        claimed += st.members[start:]
        seen[i] = len(claimed)
    return claimed


def generate_solution(instance: Instance, config: SolverConfig, rng) -> Solution:
    """Build one full solution by parallel randomized growth."""
    owner = [-1] * instance.graph.node_count
    _grow_parallel(instance, owner, range(instance.subgraph_count), config, rng)
    return Solution(owner)


def solution_to_json(solution: Solution, seed: int) -> str:
    payload = {
        "assignment": list(solution.assignment),
        "objective": solution.objective,
        "seed": seed,
    }
    return json.dumps(payload)


def solution_from_json(text: str) -> tuple[Solution, int | None]:
    """Parse a solution; a missing field or a wrong type raises ValueError."""
    payload = check_type(parse_json(text), dict, "solution")
    assignment = check_type(payload.get("assignment"), list, "assignment")
    sol = Solution(tuple(check_type(a, int, "assignment entry") for a in assignment))
    seed = payload.get("seed")
    return sol, None if seed is None else check_type(seed, int, "seed")


def save_solution(solution: Solution, seed: int, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(solution_to_json(solution, seed))
        fh.write("\n")


def load_solution(path) -> tuple[Solution, int | None]:
    with open(path, "r", encoding="utf-8") as fh:
        return solution_from_json(fh.read())
