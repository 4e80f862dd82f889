"""Input fuzz for the loaders and the bench spec: any JSON value, and
near-valid documents with one part replaced, removed or added, either load
or raise ValueError, never anything else.

Integers come from a small range, so a bench spec that happens to be valid
generates and solves only a few tiny instances.
"""

import copy
import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from bcpart import instance_from_json, run_bench, solution_from_json

TRIANGLE = {"nodes": [{"id": 0, "x": 0.0, "y": 0.0}, {"id": 1, "x": 1.0, "y": 0.0},
                      {"id": 2, "x": 0.0, "y": 1.0}],
            "edges": [[0, 1], [0, 2], [1, 2]], "roots": [0], "capacity": 3,
            "optimum": 3, "meta": {"seed": 0}}
SOLUTION = {"assignment": [0, 0, -1], "objective": 2, "seed": 0}
SPEC = {"pairs": [[2, 3]], "alpha": 2.0, "instancesPerPair": 1, "baseSeed": 0,
        "modes": ["grow-r", "grow-n"],
        "config": {"p0": 0.5, "maxIterations": 3, "stagnationLimit": 3}}
KEYS = sorted({*TRIANGLE, *TRIANGLE["nodes"][0], *SOLUTION, *SPEC, *SPEC["config"]})

scalars = (st.none() | st.booleans() | st.integers(-2, 6)
           | st.floats(-3.0, 6.0, allow_nan=False) | st.sampled_from(["", "0", "grow-n"]))
json_values = st.recursive(
    scalars,
    lambda inner: (st.lists(inner, max_size=4)
                   | st.dictionaries(st.sampled_from(KEYS) | st.text(max_size=3), inner,
                                     max_size=4)),
    max_leaves=10)


@st.composite
def near_valid(draw, base):
    """`base` with one value replaced, one entry removed or one entry added,
    at the end of a random path into the document."""
    doc = copy.deepcopy(base)
    node = doc
    while True:
        container = node
        key = draw(st.sampled_from(list(node) if isinstance(node, dict) else range(len(node))))
        node = node[key]
        if not (isinstance(node, (dict, list)) and node and draw(st.booleans())):
            break
    action = draw(st.sampled_from(["replace", "remove", "add"]))
    if action == "replace":
        container[key] = draw(json_values)
    elif action == "remove":
        del container[key]
    elif isinstance(container, dict):
        container[draw(st.sampled_from(KEYS) | st.text(max_size=3))] = draw(json_values)
    else:
        container.insert(key, draw(json_values))
    return doc


@st.composite
def near_valid_text(draw, base):
    """The JSON text of `base` with one character replaced, removed or added."""
    text = json.dumps(base)
    i = draw(st.integers(0, len(text) - 1))
    char = draw(st.sampled_from('[]{}",:0-.eE ') | st.characters())
    return draw(st.sampled_from([text[:i] + char + text[i + 1:], text[:i] + text[i + 1:],
                                 text[:i] + char + text[i:]]))


def loads_or_value_error(load, text):
    try:
        load(text)
    except ValueError:
        pass


FUZZ = settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])


@FUZZ
@given(json_values | near_valid(TRIANGLE))
def test_instance_loader_only_raises_value_error(doc):
    loads_or_value_error(instance_from_json, json.dumps(doc))


@FUZZ
@given(json_values | near_valid(SOLUTION))
def test_solution_loader_only_raises_value_error(doc):
    loads_or_value_error(solution_from_json, json.dumps(doc))


@FUZZ
@given(st.sampled_from([(instance_from_json, TRIANGLE), (solution_from_json, SOLUTION)])
       .flatmap(lambda pair: st.tuples(st.just(pair[0]), near_valid_text(pair[1]))))
def test_loaders_on_mangled_text_only_raise_value_error(case):
    loads_or_value_error(*case)


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(json_values | near_valid(SPEC))
def test_bench_spec_only_raises_value_error(spec):
    loads_or_value_error(run_bench, spec)


@pytest.mark.parametrize("load", [instance_from_json, solution_from_json])
def test_deeply_nested_json_is_a_value_error(load):
    with pytest.raises(ValueError):
        load("[" * 200_000)
