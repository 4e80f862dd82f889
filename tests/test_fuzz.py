"""Input fuzz for the loaders, the bench spec and the CLI: any JSON value,
and near-valid documents with one part replaced, removed or added, either
load or raise ValueError, never anything else; the CLI subcommands turn
every such file into exit 2 with a JSON {"error"} on stderr, or into a
report (exit 0, or 1 for an infeasible verify), never a traceback.

Integers come from a small range, so a bench spec that happens to be valid
generates and solves only a few tiny instances; a separate test draws the
spec's sizes up to 2**63 and expects exit 2.  Loader inputs also get
numbers no float holds (a 401-digit integer, infinities, NaN).
"""

import copy
import io
import json
import math
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from unittest.mock import patch

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from bcpart import instance_from_json, run_bench, solution_from_json
from bcpart.bench import MAX_INSTANCES_PER_PAIR, MAX_NODES
from bcpart.cli import main

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
# json.dumps writes these as a 401-digit integer, Infinity and NaN
UNFIT = [10 ** 400, -10 ** 400, math.inf, -math.inf, math.nan]


def json_documents(leaves):
    return st.recursive(
        leaves,
        lambda inner: (st.lists(inner, max_size=4)
                       | st.dictionaries(st.sampled_from(KEYS) | st.text(max_size=3), inner,
                                         max_size=4)),
        max_leaves=10)


json_values = json_documents(scalars)
loader_values = json_documents(scalars | st.sampled_from(UNFIT))


@st.composite
def near_valid(draw, base, values=json_values):
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
        container[key] = draw(values)
    elif action == "remove":
        del container[key]
    elif isinstance(container, dict):
        container[draw(st.sampled_from(KEYS) | st.text(max_size=3))] = draw(values)
    else:
        container.insert(key, draw(values))
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
@given(loader_values | near_valid(TRIANGLE, loader_values))
def test_instance_loader_only_raises_value_error(doc):
    loads_or_value_error(instance_from_json, json.dumps(doc))


@FUZZ
@given(loader_values | near_valid(SOLUTION, loader_values))
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


UNFIT_LITERALS = ["1" + "0" * 400, "-1" + "0" * 400, "1e400", "-1e400",
                  "NaN", "Infinity", "-Infinity"]


@FUZZ
@given(node=st.integers(0, 2), axis=st.sampled_from("xy"),
       literal=(st.sampled_from(UNFIT_LITERALS) | st.integers().map(str)
                | st.floats().map(json.dumps)))
def test_coordinates_load_iff_finite(node, axis, literal):
    doc = copy.deepcopy(TRIANGLE)
    doc["nodes"][node][axis] = "PLACEHOLDER"
    text = json.dumps(doc).replace('"PLACEHOLDER"', literal)
    value = json.loads(literal)
    if -sys.float_info.max <= value <= sys.float_info.max:
        assert instance_from_json(text).graph.coords[node]["xy".index(axis)] == float(value)
    else:
        with pytest.raises(ValueError, match=f"node {axis}"):
            instance_from_json(text)


def run_main(*argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def assert_cli_contract(code, out, err):
    """Exit 2 ends stderr with one JSON {"error"} line; 0 and 1 (an
    infeasible verify) print their JSON report to stdout."""
    if code == 2:
        assert list(json.loads(err.splitlines()[-1])) == ["error"], err
    else:
        assert code in (0, 1) and out, (code, out, err)


def file_texts(base, values=json_values):
    """JSON texts: any value, a near-valid document or a mangled text."""
    return (values | near_valid(base, values)).map(json.dumps) | near_valid_text(base)


CLI_FUZZ = settings(max_examples=150, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])


@CLI_FUZZ
@given(instance=file_texts(TRIANGLE, loader_values), solution=file_texts(SOLUTION, loader_values),
       mutate=st.sampled_from(["instance", "solution"]),
       mode=st.sampled_from(["grow-n", "grow-r", "single-pass"]))
def test_cli_on_mutated_instance_and_solution_files(instance, solution, mutate, mode):
    # one file mutated at a time, so the other one is valid and the command
    # gets past loading it
    with tempfile.TemporaryDirectory() as tmp:
        inst_path, sol_path = Path(tmp) / "i.json", Path(tmp) / "s.json"
        inst_path.write_text(instance if mutate == "instance" else json.dumps(TRIANGLE))
        sol_path.write_text(solution if mutate == "solution" else json.dumps(SOLUTION))
        commands = [("verify", "--instance", str(inst_path), "--solution", str(sol_path))]
        if mutate == "instance":
            commands += [("solve", "--instance", str(inst_path), "--mode", mode,
                          "--max-iters", "3", "--stagnation", "3"),
                         ("oracle", "--instance", str(inst_path))]
        for argv in commands:
            assert_cli_contract(*run_main(*argv))


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(spec=file_texts(SPEC))
def test_cli_on_mutated_bench_specs(spec):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "spec.json"
        path.write_text(spec)
        assert_cli_contract(*run_main("bench", "--spec", str(path), "--no-timing"))


def _never_generate(cfg):
    raise AssertionError(f"generated {cfg.n}x{cfg.capacity} from an oversized spec")


oversized_specs = (
    st.integers(MAX_INSTANCES_PER_PAIR + 1, 2**63).map(
        lambda count: {**SPEC, "instancesPerPair": count})
    | st.tuples(st.integers(1, 2**63), st.integers(1, 2**63))
    .filter(lambda pair: pair[0] * pair[1] > MAX_NODES)
    .map(lambda pair: {**SPEC, "pairs": [[2, 3], list(pair)]}))


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(spec=oversized_specs)
def test_cli_rejects_oversized_bench_specs_before_generating(spec):
    with tempfile.TemporaryDirectory() as tmp, \
            patch("bcpart.bench.generate_instance", _never_generate):
        path = Path(tmp) / "spec.json"
        path.write_text(json.dumps(spec))
        code, out, err = run_main("bench", "--spec", str(path), "--no-timing")
    assert code == 2 and out == "", (code, out, err)
    assert list(json.loads(err.splitlines()[-1])) == ["error"], err
