import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import bcpart
from bcpart import (GenerationError, Solution, generate_instance, instance_from_json,
                    load_instance, load_solution, run_bench, solution_from_json,
                    verify_solution)
from bcpart.cli import main


def run_cli(capsys, *args):
    code = main(list(args))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_generate_writes_instance_and_certificate(tmp_path, capsys):
    out = tmp_path / "inst.json"
    code, stdout, _ = run_cli(capsys, "generate", "--n", "2", "--m", "5",
                              "--alpha", "2.0", "--seed", "3",
                              "--out", str(out))
    assert code == 0
    info = json.loads(stdout)
    assert info["nodes"] == 10 and info["optimum"] == 10
    inst = load_instance(out)
    assert inst.known_optimum == 10
    cert_path = tmp_path / "inst.cert.json"
    cert = json.loads(cert_path.read_text())
    assert len(cert["blockMembership"]) == 10


@pytest.mark.parametrize("alpha", ["1.0", "0.5"])
def test_generate_takes_any_positive_alpha(tmp_path, capsys, alpha):
    # GenConfig takes any positive finite alpha, so the help says "> 0"
    out = tmp_path / "inst.json"
    code, stdout, _ = run_cli(capsys, "generate", "--n", "2", "--m", "10",
                              "--alpha", alpha, "--out", str(out))
    assert code == 0 and json.loads(stdout)["optimum"] == 20
    cert = json.loads((tmp_path / "inst.cert.json").read_text())
    assert verify_solution(load_instance(out), Solution(cert["blockMembership"])).feasible
    with pytest.raises(SystemExit):
        main(["generate", "--help"])
    assert "density knob (> 0, larger = sparser)" in capsys.readouterr().out


def test_solve_single_pass_to_stdout(tmp_path, capsys):
    inst_path = tmp_path / "i.json"
    run_cli(capsys, "generate", "--n", "2", "--m", "5", "--seed", "1",
            "--out", str(inst_path))
    code, stdout, _ = run_cli(capsys, "solve", "--instance", str(inst_path),
                              "--mode", "single-pass", "--seed", "2")
    assert code == 0
    lines = stdout.strip().splitlines()
    solution = json.loads(lines[0])
    stats = json.loads(lines[1])
    assert len(solution["assignment"]) == 10
    assert stats["mode"] == "single-pass"
    assert stats["iterations"] == 1
    assert solution["objective"] == stats["bestObjective"]


def test_solve_and_verify_round_trip(tmp_path, capsys):
    inst_path = tmp_path / "i.json"
    sol_path = tmp_path / "s.json"
    run_cli(capsys, "generate", "--n", "2", "--m", "5", "--seed", "4",
            "--out", str(inst_path))
    code, stdout, _ = run_cli(capsys, "solve", "--instance", str(inst_path),
                              "--mode", "grow-n", "--seed", "4",
                              "--max-iters", "200", "--stagnation", "60",
                              "--out", str(sol_path))
    assert code == 0
    stats = json.loads(stdout.strip().splitlines()[-1])
    assert stats["mode"] == "grow-n"
    inst = load_instance(inst_path)
    sol, seed = load_solution(sol_path)
    assert seed == 4
    assert verify_solution(inst, sol).feasible
    code, stdout, _ = run_cli(capsys, "verify", "--instance", str(inst_path),
                              "--solution", str(sol_path))
    assert code == 0
    report = json.loads(stdout)
    assert report["feasible"] is True
    assert report["violations"] == []


def test_verify_flags_bad_solution(tmp_path, capsys):
    inst_path = tmp_path / "i.json"
    run_cli(capsys, "generate", "--n", "2", "--m", "5", "--seed", "5",
            "--out", str(inst_path))
    bad = tmp_path / "bad.json"
    # a 4-node path shape cannot be bi-connected; force labels by hand
    inst = load_instance(inst_path)
    assignment = [-1] * 10
    assignment[inst.roots[0]] = 0
    assignment[inst.roots[1]] = 1
    # grab two more nodes into subgraph 0 to break bi-connectivity
    extra = [u for u in range(10) if u not in inst.roots][:1]
    for u in extra:
        assignment[u] = 0
    bad.write_text(json.dumps({"assignment": assignment,
                               "objective": sum(a != -1 for a in assignment),
                               "seed": 0}))
    code, stdout, _ = run_cli(capsys, "verify", "--instance", str(inst_path),
                              "--solution", str(bad))
    report = json.loads(stdout)
    if report["feasible"]:     # the extra node happened to pair legally
        pytest.skip("randomly feasible; structure covered elsewhere")
    assert code == 1
    assert report["violations"]


def test_reduce_command(tmp_path, capsys):
    out = tmp_path / "r.json"
    code, stdout, _ = run_cli(capsys, "reduce", "--sup", "5",
                              "--demands", "3,2,4", "--out", str(out))
    assert code == 0
    info = json.loads(stdout)
    assert info["nodes"] == 12
    assert info["capacity"] == 8
    assert info["optimum"] == 8
    inst = load_instance(out)
    assert inst.capacity == 8


def test_reduce_command_sizes_nothing_by_sup(tmp_path, capsys):
    # no subset of the demands sums past 5, so a huge sup must not size
    # the subset-sum bitset
    out = tmp_path / "r.json"
    code, stdout, _ = run_cli(capsys, "reduce", "--sup", str(10**20),
                              "--demands", "3,2", "--out", str(out))
    assert code == 0
    info = json.loads(stdout)
    assert info["optimum"] == 8
    assert info["capacity"] == 10**20 + 3
    assert load_instance(out).known_optimum == 8


def test_reduce_command_rejects_more_than_max_nodes(tmp_path, capsys):
    # 3 + 100,001 nodes: refused before any edge is built
    out = tmp_path / "r.json"
    code, stdout, stderr = run_cli(capsys, "reduce", "--sup", "5",
                                   "--demands", "100001", "--out", str(out))
    assert code == 2
    assert stdout == ""
    assert "100000 nodes" in json.loads(stderr)["error"]
    assert not out.exists()


def test_oracle_command(tmp_path, capsys):
    out = tmp_path / "r.json"
    run_cli(capsys, "reduce", "--sup", "4", "--demands", "2,3", "--out", str(out))
    code, stdout, _ = run_cli(capsys, "oracle", "--instance", str(out))
    assert code == 0
    assert json.loads(stdout)["optimum"] == 6   # 3 hub nodes + 3 path nodes


def test_bench_command_csv(tmp_path, capsys):
    spec = {
        "pairs": [[2, 5]],
        "alpha": 2.0,
        "instancesPerPair": 2,
        "baseSeed": 0,
        "modes": ["grow-r", "grow-n"],
        "config": {"maxIterations": 40, "stagnationLimit": 15},
    }
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec))
    csv_path = tmp_path / "rows.csv"
    code, _, _ = run_cli(capsys, "bench", "--spec", str(spec_path),
                         "--out", str(csv_path), "--no-timing")
    assert code == 0
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0] == ("n,M,alpha,mode,avgErrPct,stdevErrPct,maxErrPct,"
                        "hits,avgIter,stdevIter,avgTimeMs")
    assert len(lines) == 3
    assert lines[1].startswith("2,5,2.0,R,")
    assert lines[2].startswith("2,5,2.0,N,")
    for line in lines[1:]:
        assert line.endswith(",0.0")    # timing suppressed
    # identical rerun
    csv2 = tmp_path / "rows2.csv"
    run_cli(capsys, "bench", "--spec", str(spec_path), "--out", str(csv2),
            "--no-timing")
    assert csv2.read_text() == csv_path.read_text()


def test_bench_generates_each_instance_once_for_all_modes(monkeypatch, capsys):
    calls = []

    def counted(cfg):
        calls.append((cfg.n, cfg.seed))
        if cfg.seed == 1:
            raise GenerationError("out of budget")
        return generate_instance(cfg)
    monkeypatch.setattr("bcpart.bench.generate_instance", counted)
    spec = {"pairs": [[2, 5], [3, 5]], "instancesPerPair": 3, "modes": ["grow-r", "grow-n"],
            "config": {"maxIterations": 30, "stagnationLimit": 10}}
    rows = run_bench(spec, include_timing=False)
    assert calls == [(2, 0), (2, 1), (2, 2), (3, 0), (3, 1), (3, 2)]
    assert [(row.n, row.mode) for row in rows] == [(2, "R"), (2, "N"), (3, "R"), (3, "N")]
    assert capsys.readouterr().err.count("seed=1") == 2
    # the skipped seed is dropped from every mode: each row is the mean of seeds 0 and 2
    single = [run_bench({**spec, "instancesPerPair": 1, "baseSeed": seed}, include_timing=False)
              for seed in (0, 2)]
    for row, first, last in zip(rows, *single):
        assert row.avg_iter == (first.avg_iter + last.avg_iter) / 2
        assert row.avg_err_pct == pytest.approx((first.avg_err_pct + last.avg_err_pct) / 2)


def stub_pool(monkeypatch, cores):
    """Replace the process pool with an in-process stand-in that records
    its size, and report `cores` cores; no real pool is started."""
    sizes = []

    class InProcessPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, jobs):
            return map(fn, jobs)
    monkeypatch.setattr("bcpart.bench.ProcessPoolExecutor", InProcessPool)
    monkeypatch.setattr("bcpart.bench.os.cpu_count", lambda: cores)
    return sizes


def test_bench_pool_is_capped_at_the_job_count(monkeypatch, tmp_path, capsys):
    sizes = stub_pool(monkeypatch, cores=64)
    spec = {"pairs": [[2, 5]], "instancesPerPair": 2, "modes": ["grow-r", "grow-n"],
            "config": {"maxIterations": 30, "stagnationLimit": 10}}
    rows = run_bench(spec, workers=5000, include_timing=False)
    assert sizes == [2]
    assert rows == run_bench(spec, workers=1, include_timing=False)
    assert sizes == [2]
    with pytest.raises(ValueError):
        run_bench(spec, workers=0)
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec))
    code, _, stderr = run_cli(capsys, "bench", "--spec", str(spec_path), "--workers", "0")
    assert code == 2
    assert "workers" in json.loads(stderr)["error"]
    assert sizes == [2]


@pytest.mark.parametrize("cores, pool", [(3, [3]), (1, []), (None, [])])
def test_bench_pool_is_capped_at_the_core_count(monkeypatch, cores, pool):
    # a core count the platform cannot tell (None) counts as one core
    sizes = stub_pool(monkeypatch, cores)
    spec = {"pairs": [[2, 5]], "instancesPerPair": 4, "modes": ["grow-r"],
            "config": {"maxIterations": 10, "stagnationLimit": 5}}
    assert run_bench(spec, workers=5000, include_timing=False) == run_bench(
        spec, workers=1, include_timing=False)
    assert sizes == pool


def test_missing_file_gives_json_error(capsys):
    code, _, stderr = run_cli(capsys, "solve", "--instance", "/nonexistent.json")
    assert code == 2
    assert "error" in json.loads(stderr)


def test_bad_bench_mode_gives_json_error(tmp_path, capsys):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps({"pairs": [[2, 5]], "modes": ["warp"]}))
    code, _, stderr = run_cli(capsys, "bench", "--spec", str(spec_path))
    assert code == 2
    assert "error" in json.loads(stderr)


SPEC = {"pairs": [[2, 5]], "instancesPerPair": 1, "config": {"maxIterations": 5}}

BAD_SPECS = {
    "pairs-not-list": {**SPEC, "pairs": 5},
    "alpha-list": {**SPEC, "alpha": [2.0]},
    "instances-per-pair-list": {**SPEC, "instancesPerPair": [1]},
    "base-seed-list": {**SPEC, "baseSeed": [0]},
    "modes-not-list": {**SPEC, "modes": 5},
    "config-not-object": {**SPEC, "config": [1]},
    "config-value-string": {**SPEC, "config": {"p0": "a"}},
    "unknown-key": {**SPEC, "mode": "grow-r"},
    "config-unknown-keys": {**SPEC, "config": {"maxIters": 5, "stagnation": 3}},
    "config-seed": {**SPEC, "config": {"seed": 3}},
    "instances-per-pair-zero": {**SPEC, "instancesPerPair": 0},
    "instances-per-pair-too-many": {**SPEC, "instancesPerPair": 10_001},
    "pair-too-large": {**SPEC, "pairs": [[2, 5], [1_001, 100]]},
    "alpha-too-large-for-float": {**SPEC, "alpha": 10 ** 400},
    "alpha-infinite": {**SPEC, "alpha": float("inf")},
}


@pytest.mark.parametrize("case", sorted(BAD_SPECS))
def test_mistyped_bench_spec_gives_value_error_and_json_exit_2(case, tmp_path, capsys):
    with pytest.raises(ValueError):
        run_bench(BAD_SPECS[case])
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(BAD_SPECS[case]))
    code, stdout, stderr = run_cli(capsys, "bench", "--spec", str(spec_path))
    assert code == 2 and stdout == ""
    assert "error" in json.loads(stderr)


def test_unknown_bench_spec_key_is_named():
    with pytest.raises(ValueError, match="'mode'"):
        run_bench(BAD_SPECS["unknown-key"])
    with pytest.raises(ValueError, match="'maxIters'"):
        run_bench(BAD_SPECS["config-unknown-keys"])


def test_console_entry_point(tmp_path):
    # one end-to-end subprocess run through the installed script
    out = tmp_path / "inst.json"
    # the child imports the same bcpart as this process, installed or not
    src = str(Path(bcpart.__file__).resolve().parent.parent)
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-m", "bcpart.cli", "generate", "--n", "2", "--m", "5",
         "--seed", "0", "--out", str(out)],
        capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["optimum"] == 10


TRIANGLE = {"nodes": [{"id": 0}, {"id": 1}, {"id": 2}],
            "edges": [[0, 1], [1, 2], [0, 2]], "roots": [0], "capacity": 3}

BAD_INSTANCES = {
    "payload-not-object": [TRIANGLE],
    "nodes-not-list": {**TRIANGLE, "nodes": 5},
    "nodes-missing": {k: v for k, v in TRIANGLE.items() if k != "nodes"},
    "node-not-object": {**TRIANGLE, "nodes": [0, 1, 2]},
    "node-id-string": {**TRIANGLE, "nodes": [{"id": "0"}, {"id": 1}, {"id": 2}]},
    "node-x-string": {**TRIANGLE, "nodes": [{"id": i, "x": "a", "y": 0} for i in range(3)]},
    "edges-not-list": {**TRIANGLE, "edges": 3},
    "edge-not-pair": {**TRIANGLE, "edges": [[0, 1, 2]]},
    "edge-endpoint-float": {**TRIANGLE, "edges": [[0, 1.5]]},
    "roots-not-list": {**TRIANGLE, "roots": 0},
    "root-string": {**TRIANGLE, "roots": ["0"]},
    "capacity-string": {**TRIANGLE, "capacity": "3"},
    "capacity-float": {**TRIANGLE, "capacity": 3.0},
    "capacity-missing": {k: v for k, v in TRIANGLE.items() if k != "capacity"},
    "optimum-string": {**TRIANGLE, "optimum": "x"},
    "optimum-bool": {**TRIANGLE, "optimum": True},
    "meta-not-object": {**TRIANGLE, "meta": [1]},
}


def test_triangle_instance_is_valid(tmp_path, capsys):
    # the base of every malformed case below loads and solves
    path = tmp_path / "i.json"
    path.write_text(json.dumps({**TRIANGLE, "optimum": 3, "meta": {}}))
    code, stdout, _ = run_cli(capsys, "solve", "--instance", str(path), "--max-iters", "5")
    assert code == 0 and json.loads(stdout.splitlines()[0])["objective"] == 3


@pytest.mark.parametrize("case", sorted(BAD_INSTANCES))
def test_malformed_instance_gives_value_error_and_json_exit_2(case, tmp_path, capsys):
    text = json.dumps(BAD_INSTANCES[case])
    with pytest.raises(ValueError):
        instance_from_json(text)
    path = tmp_path / "i.json"
    path.write_text(text)
    for command in ("solve", "oracle"):
        code, stdout, stderr = run_cli(capsys, command, "--instance", str(path))
        assert code == 2 and stdout == ""
        assert "error" in json.loads(stderr)


@pytest.mark.parametrize("literal", ["1" + "0" * 400, "1e400", "NaN", "-Infinity"],
                         ids=["int401", "1e400", "NaN", "-Infinity"])
def test_coordinate_no_float_holds_gives_json_exit_2(literal, tmp_path, capsys):
    nodes = json.dumps([{"id": i, "x": "X" if i else 0, "y": 0} for i in range(3)])
    inst_path = tmp_path / "i.json"
    inst_path.write_text(json.dumps({**TRIANGLE, "nodes": "NODES"})
                         .replace('"NODES"', nodes).replace('"X"', literal))
    sol_path = tmp_path / "s.json"
    sol_path.write_text(json.dumps({"assignment": [0, 0, 0]}))
    for argv in (("solve", "--instance", str(inst_path)),
                 ("verify", "--instance", str(inst_path), "--solution", str(sol_path))):
        code, stdout, stderr = run_cli(capsys, *argv)
        assert code == 2 and stdout == ""
        assert "node x" in json.loads(stderr)["error"]


@pytest.mark.parametrize("payload", [
    {"assignment": 5},
    {"assignment": [0, "0", -1]},
    {"assignment": [0, 0, 0], "seed": "7"},
    [0, 0, 0],
])
def test_malformed_solution_gives_value_error_and_json_exit_2(payload, tmp_path, capsys):
    text = json.dumps(payload)
    with pytest.raises(ValueError):
        solution_from_json(text)
    inst_path = tmp_path / "i.json"
    inst_path.write_text(json.dumps(TRIANGLE))
    sol_path = tmp_path / "s.json"
    sol_path.write_text(text)
    code, _, stderr = run_cli(capsys, "verify", "--instance", str(inst_path),
                              "--solution", str(sol_path))
    assert code == 2
    assert "error" in json.loads(stderr)


def test_generation_failure_gives_json_exit_2(tmp_path, capsys, monkeypatch):
    def out_of_budget(cfg):
        raise GenerationError("block sampling exceeded its attempt budget")
    monkeypatch.setattr("bcpart.cli.generate_instance", out_of_budget)
    code, _, stderr = run_cli(capsys, "generate", "--n", "2", "--m", "5",
                              "--out", str(tmp_path / "i.json"))
    assert code == 2
    assert "budget" in json.loads(stderr)["error"]


@pytest.mark.parametrize("alpha", ["inf", "nan"])
def test_non_finite_alpha_gives_json_exit_2_before_sampling(alpha, tmp_path, capsys, monkeypatch):
    def sampled(cfg):
        raise AssertionError("generation started")
    monkeypatch.setattr("bcpart.cli.generate_instance", sampled)
    code, stdout, stderr = run_cli(capsys, "generate", "--n", "2", "--m", "5", "--alpha", alpha,
                                   "--out", str(tmp_path / "i.json"))
    assert code == 2 and stdout == ""
    assert "alpha must be finite" in json.loads(stderr)["error"]


@pytest.mark.parametrize("n, m", [(1, 100_001), (2_000_000, 3)])
def test_oversized_generate_gives_json_exit_2_before_sampling(n, m, tmp_path, capsys,
                                                              monkeypatch):
    def sampled(cfg):
        raise AssertionError("generation started")
    monkeypatch.setattr("bcpart.cli.generate_instance", sampled)
    out = tmp_path / "i.json"
    code, stdout, stderr = run_cli(capsys, "generate", "--n", str(n), "--m", str(m),
                                   "--out", str(out))
    assert code == 2 and stdout == ""
    assert "100000 nodes" in json.loads(stderr)["error"]
    assert not out.exists()


def test_over_capacity_generate_and_bench_give_json_exit_2_before_sampling(
        tmp_path, capsys, monkeypatch):
    # one block costs about M^2 or more, so M is bounded on its own
    def sampled(cfg):
        raise AssertionError("generation started")
    monkeypatch.setattr("bcpart.cli.generate_instance", sampled)
    monkeypatch.setattr("bcpart.bench.generate_instance", sampled)
    out = tmp_path / "i.json"
    code, stdout, stderr = run_cli(capsys, "generate", "--n", "1", "--m", "1001",
                                   "--out", str(out))
    assert code == 2 and stdout == ""
    assert "capacity must be at most 1000" in json.loads(stderr)["error"]
    assert not out.exists()
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({**SPEC, "pairs": [[2, 5], [1, 1001]]}))
    code, stdout, stderr = run_cli(capsys, "bench", "--spec", str(spec), "--no-timing")
    assert code == 2 and stdout == ""
    assert "capacity must be at most 1000" in json.loads(stderr)["error"]


# the file-reading subcommands and the files each one reads
READS = {"solve": ("instance",), "oracle": ("instance",),
         "verify": ("instance", "solution"), "bench": ("spec",)}


@pytest.mark.parametrize("command,nested", [
    (command, name) for command, names in READS.items() for name in names])
def test_deeply_nested_json_gives_json_exit_2(command, nested, tmp_path, capsys):
    texts = {"instance": json.dumps(TRIANGLE), "solution": json.dumps({"assignment": [0, 0, 0]}),
             "spec": json.dumps(SPEC), nested: "[" * 200_000}
    argv = [command]
    for name in READS[command]:
        path = tmp_path / f"{name}.json"
        path.write_text(texts[name])
        argv += [f"--{name}", str(path)]
    code, stdout, stderr = run_cli(capsys, *argv)
    assert code == 2 and stdout == ""
    assert "error" in json.loads(stderr)
