"""Block trimming and placement against their recheck-every-removal,
probe-every-trial references (tests/oracles.py).

The trim is compared on the bi-connected components of random disc
graphs; the whole generator, draws included, is compared by running it
once with the library's functions and once with the references bound in
their place.
"""

from random import Random
from unittest.mock import patch

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import bcpart.generate as gen
from bcpart import GenConfig, GenerationError, biconnected_components, instance_to_json
from bcpart.graph import unit_disc_graph
from oracles import ref_assemble_instance, ref_trim_to_size

CASES = settings(max_examples=300, deadline=None,
                 suppress_health_check=[HealthCheck.too_slow])


def _generated(cfg, trim, assemble):
    """Instance JSON and block membership (or the error text) of a full
    generation with `trim` and `assemble` in place, and the final RNG
    state."""
    rng = Random(cfg.seed)
    with patch.object(gen, "_trim_to_size", trim):
        try:
            blocks = [gen.generate_block(cfg.capacity, cfg.n, cfg, rng) for _ in range(cfg.n)]
            result = assemble(blocks, cfg, rng)
            out = (instance_to_json(result.instance), result.block_membership)
        except GenerationError as exc:
            out = str(exc)
    return out, rng.getstate()


@CASES
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 12), capacity=st.integers(3, 15),
       trials=st.integers(1, 60), alpha=st.sampled_from([1.5, 2.0, 3.0]))
def test_generation_matches_reference(seed, n, capacity, trials, alpha):
    cfg = GenConfig(n=n, capacity=capacity, alpha=alpha, position_trials=trials,
                    seed=seed, block_attempt_budget=300)
    assert (_generated(cfg, gen._trim_to_size, gen.assemble_instance)
            == _generated(cfg, ref_trim_to_size, ref_assemble_instance))


@CASES
@given(seed=st.integers(0, 2**32 - 1), count=st.integers(3, 60),
       radius=st.floats(0.15, 0.5), data=st.data())
def test_trim_matches_reference(seed, count, radius, data):
    rng = Random(seed)
    pts = [(rng.random(), rng.random()) for _ in range(count)]
    g = unit_disc_graph(pts, radius)
    comp = max(biconnected_components(g), key=len, default=set())
    if len(comp) < 3:
        return
    target = data.draw(st.integers(3, len(comp)))
    assert gen._trim_to_size(g, comp, target, pts) == ref_trim_to_size(g, comp, target, pts)
