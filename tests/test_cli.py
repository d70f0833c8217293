"""Command-line plumbing: artifacts, exit codes, determinism."""
from __future__ import annotations

import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import fbauction
import fbauction.cli as fb_cli
from fbauction import example_1, save_instance
from fbauction.cli import main


def _solve_args(out, extra=()):
    return ["solve", "--example", "1", "--max-iters", "400", "--check-interval", "100", "--out", str(out), *extra]


@pytest.fixture()
def solved(tmp_path):
    out = tmp_path / "run"
    assert main(_solve_args(out)) == 0
    return out


def test_solve_writes_all_artifacts(solved):
    for name in ["strategies.csv", "payoffs.csv", "certificate.json", "manifest.json"]:
        assert (solved / name).exists(), name

    with open(solved / "strategies.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 4 * 401
    for agent in range(4):
        cdf = [float(r["cdf"]) for r in rows if int(r["agent_id"]) == agent]
        assert all(b >= a - 1e-12 for a, b in zip(cdf, cdf[1:]))
        assert cdf[-1] == pytest.approx(1.0, abs=1e-9)

    with open(solved / "payoffs.csv", newline="") as fh:
        payoff_rows = list(csv.DictReader(fh))
    assert len(payoff_rows) == 4 * 401
    assert set(payoff_rows[0]) == {"agent_id", "bid", "expected_payoff"}

    cert = json.loads((solved / "certificate.json").read_text())
    assert set(cert) == {"epsilon", "gaps", "payoffs", "best_response_bids", "iterations", "config_echo"}
    assert cert["iterations"] == 400

    manifest = json.loads((solved / "manifest.json").read_text())
    assert manifest["instance"]["name"] == "example-1"
    assert manifest["config"]["max_iterations"] == 400
    assert manifest["config"]["schedule"] == {"kind": "harmonic", "coefficient": 1.0}
    assert manifest["iterations_run"] == 400
    assert [k for k, _ in manifest["trajectory"]] == [100, 200, 300, 400]


def test_solve_reruns_byte_identically(tmp_path):
    first, second = tmp_path / "a", tmp_path / "b"
    assert main(_solve_args(first)) == 0
    assert main(_solve_args(second)) == 0
    for name in ["strategies.csv", "payoffs.csv", "certificate.json"]:
        assert (first / name).read_bytes() == (second / name).read_bytes(), name


def test_verify_reproduces_certificate(solved, capsys):
    cert = json.loads((solved / "certificate.json").read_text())
    capsys.readouterr()
    assert main(["verify", "--example", "1", str(solved / "strategies.csv")]) == 0
    replay = json.loads(capsys.readouterr().out)
    assert abs(replay["epsilon"] - cert["epsilon"]) <= 1e-12
    assert replay["gaps"] == cert["gaps"]


def test_verify_hand_written_equilibrium(tmp_path, capsys):
    doc = {
        "values": [1.0, 0.5],
        "scenarios": [{"members": [0, 1], "prob": 1.0}],
        "grid": {"max": 1.0, "steps": 4},
    }
    instance_file = tmp_path / "duel.json"
    instance_file.write_text(json.dumps(doc))
    # mutual pure best responses: undercut at 0.25 vs priced-out at 0
    lines = ["agent_id,bid,pdf,cdf"]
    grid = [0.0, 0.25, 0.5, 0.75, 1.0]
    masses = {0: 1, 1: 0}
    for agent, at in masses.items():
        running = 0.0
        for j, b in enumerate(grid):
            w = 1.0 if j == at else 0.0
            running += w
            lines.append(f"{agent},{b},{w},{running}")
    strategies = tmp_path / "strategies.csv"
    strategies.write_text("\n".join(lines) + "\n")
    assert main(["verify", "--file", str(instance_file), str(strategies)]) == 0
    replay = json.loads(capsys.readouterr().out)
    assert replay["epsilon"] == 0.0


def test_verify_rejects_garbage_csv(tmp_path):
    garbage = tmp_path / "garbage.csv"
    garbage.write_text("who,what\n1,2\n")
    assert main(["verify", "--example", "1", str(garbage)]) == 2
    short = tmp_path / "short.csv"
    short.write_text("agent_id,bid,pdf\n0,0.0,1.0\n")
    assert main(["verify", "--example", "1", str(short)]) == 2


def test_verify_unreadable_strategies_exits_1(solved, capsys):
    assert main(["verify", "--example", "1", str(solved / "missing.csv")]) == 1
    truncated = solved / "truncated.csv"
    truncated.write_text("agent_id,bid,pdf\n0,0.0\n")  # a row without its pdf
    assert main(["verify", "--example", "1", str(truncated)]) == 1
    assert all(line.startswith("error: cannot read input") for line in capsys.readouterr().err.splitlines())


@pytest.mark.parametrize("field, value, message", [
    ("pdf", "nan", "weights must be finite"),
    ("bid", "0.0126", "not on the instance grid"),  # grid steps are 0.0025: between 0.0125 and 0.015
])
def test_verify_rejects_bad_row(solved, capsys, field, value, message):
    strategies = solved / "strategies.csv"
    with open(strategies, newline="") as fh:
        rows = list(csv.DictReader(fh))
    rows[5][field] = value
    with open(strategies, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)
    capsys.readouterr()
    assert main(["verify", "--example", "1", str(strategies)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""  # no certificate is printed
    assert message in captured.err


_BAD_PROBABILITIES = {
    "values": [0.5, 0.5],
    "scenarios": [{"members": [0, 1], "prob": 0.5}, {"members": [0], "prob": 0.6}],
    "grid": {"max": 1.0, "steps": 10},
}
_NAN_VALUE = {
    "values": [float("nan"), 1.0],  # written as the JSON extension NaN, which json.load accepts
    "scenarios": [{"members": [0, 1], "prob": 1.0}],
    "grid": {"max": 1.0, "steps": 10},
}


@pytest.mark.parametrize("doc, flags, message", [
    pytest.param(_BAD_PROBABILITIES, [], "sum to 1.1", id="probabilities"),
    pytest.param(_NAN_VALUE, ["--eps-target", "1e-3"], "agents [0] have non-finite values", id="nan-value"),
    pytest.param(None, ["--alpha", "2"], "invalid input: --alpha 2.0: alpha 2.0 outside [0, 1]", id="alpha"),
    pytest.param(None, ["--max-iters", "-1"], "invalid input: --max-iters -1: max_iterations must be >= 0",
                 id="max-iters"),
    pytest.param(None, ["--grid-steps", "0"], "invalid input: --grid-steps 0: steps must be >= 1", id="grid-steps"),
    pytest.param(None, ["--eta-c", "0"], "invalid input: --eta-c 0.0: coefficient must lie in (0, 1]", id="eta-c"),
    pytest.param(None, ["--check-interval", "0"], "invalid input: --check-interval 0: check_interval must be >= 1",
                 id="check-interval"),
    pytest.param(None, ["--eps-target", "-1"], "invalid input: --eps-target -1.0: epsilon_target must be >= 0",
                 id="eps-target"),
])
def test_solve_invalid_instance_exits_2(tmp_path, capsys, doc, flags, message):
    source = ["--example", "1"]
    if doc is not None:
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        source = ["--file", str(bad)]
    out = tmp_path / "out"
    assert main(["solve", *source, *flags, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert message in err
    assert len(err.splitlines()) == 1
    assert "Traceback" not in err
    assert not out.exists()  # rejected before anything is solved or written


def test_solve_oversized_grid_exits_2_before_allocating(tmp_path, capsys):
    # the limit is read first, so a build without it fails here instead of
    # allocating the 8 GB grid
    assert fbauction.model.MAX_TABLE_CELLS < 10**9
    out = tmp_path / "out"
    assert main(["solve", "--example", "1", "--grid-steps", "1000000000", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.splitlines() == ["invalid input: --grid-steps 1000000000: "
                                f"1000000001 grid levels exceed the {fbauction.model.MAX_TABLE_CELLS}-cell table limit"]
    assert not out.exists()


def test_solve_grid_steps_above_the_table_limit_exits_2(tmp_path, capsys, monkeypatch):
    # 1001 levels fit the limit alone; 4 agents x 1001 levels do not, which
    # only the instance built with the new grid can see
    monkeypatch.setattr(fbauction.model, "MAX_TABLE_CELLS", 3000)
    out = tmp_path / "out"
    assert main(["solve", "--example", "1", "--grid-steps", "1000", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.splitlines() == ["invalid instance: 4 agents x 1001 grid levels exceed the 3000-cell table limit"]
    assert not out.exists()


def test_solve_oversized_aggregation_matrix_exits_2(tmp_path, capsys, monkeypatch):
    # example 1 on a 2-level grid: 4 agents x 2 levels fit the limit, the
    # engine's 4 agents x 5 rival sets do not (a file, because the bundled
    # builder's 401-level grid would not fit)
    named = example_1().instance
    path = tmp_path / "ex1.json"
    grid = fbauction.BidGrid.uniform(1.0, 1)
    save_instance(fbauction.AuctionInstance(named.values, named.scenarios, grid, named.rule), path)
    monkeypatch.setattr(fbauction.model, "MAX_TABLE_CELLS", 10)
    out = tmp_path / "out"
    assert main(["solve", "--file", str(path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.splitlines() == ["invalid instance: 4 agents x 5 rival sets exceed the 10-cell table limit"]
    assert not out.exists()


def test_solve_oversized_rival_gather_exits_2(tmp_path, capsys, monkeypatch):
    # example 4's engine gathers 27 rival sets x 2 rivals x 402 levels
    monkeypatch.setattr(fbauction.model, "MAX_TABLE_CELLS", 20_000)
    out = tmp_path / "out"
    assert main(["solve", "--example", "4", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.splitlines() == ["invalid instance: 27 rival sets x 2 rivals x 402 levels exceed the 20000-cell table limit"]
    assert not out.exists()


def test_solve_oversized_random_instance_exits_2(tmp_path, capsys, monkeypatch):
    # one pair of 10 agents keeps 2 agents, well inside the limit; the generator
    # must refuse the 10 agents it draws values for, before drawing them
    monkeypatch.setattr(fbauction.model, "MAX_TABLE_CELLS", 1000)
    out = tmp_path / "out"
    argv = ["solve", "--example", "random", "--n-agents", "10", "--n-scenarios", "1", "--max-iters", "10"]
    assert main([*argv, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.splitlines() == ["invalid input: 10 agents x 101 grid levels exceed the 1000-cell table limit"]
    assert not out.exists()


def test_solve_unreadable_file_exits_1(tmp_path):
    broken = tmp_path / "broken.json"
    broken.write_text("{oops")
    assert main(["solve", "--file", str(broken), "--out", str(tmp_path / "out")]) == 1
    assert main(["solve", "--file", str(tmp_path / "missing.json"), "--out", str(tmp_path / "out")]) == 1
    # structurally incomplete document: independent players need their probs
    partial = tmp_path / "partial.json"
    partial.write_text(json.dumps({"players": [{"values": [0.1, 0.2]}], "grid": {"max": 1.0, "steps": 4}}))
    assert main(["solve", "--file", str(partial), "--out", str(tmp_path / "out")]) == 1


def test_solve_unreached_target_exits_3(tmp_path):
    out = tmp_path / "out"
    code = main(["solve", "--example", "1", "--max-iters", "0", "--eps-target", "1e-9", "--out", str(out)])
    assert code == 3
    assert (out / "certificate.json").exists()  # artifacts still written


def test_solve_file_instance_with_overrides(tmp_path):
    source = tmp_path / "ex1.json"
    save_instance(example_1().instance, source)
    out = tmp_path / "out"
    code = main([
        "solve", "--file", str(source), "--grid-steps", "50", "--alpha", "0.5",
        "--eta-kind", "harmonic", "--eta-c", "1.0", "--max-iters", "200", "--out", str(out),
    ])
    assert code == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["instance"]["grid"] == {"max": 1.0, "steps": 50}
    assert manifest["instance"]["alpha"] == 0.5
    assert manifest["instance"]["sha256"]
    assert manifest["config"]["schedule"] == {"kind": "harmonic", "coefficient": 1.0}


def test_batch_runs_each_seed(tmp_path):
    out = tmp_path / "batch"
    code = main([
        "batch", "--seed-start", "0", "--seed-count", "2",
        "--max-iters", "300", "--check-interval", "100", "--out", str(out),
    ])
    assert code == 0
    with open(out / "batch.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [r["seed"] for r in rows] == ["0", "1"]
    assert all(float(r["epsilon"]) > 0 for r in rows)

    # determinism: re-running a seed reproduces its epsilon exactly
    out2 = tmp_path / "batch2"
    assert main([
        "batch", "--seed-start", "0", "--seed-count", "1",
        "--max-iters", "300", "--check-interval", "100", "--out", str(out2),
    ]) == 0
    with open(out2 / "batch.csv", newline="") as fh:
        repeat = list(csv.DictReader(fh))
    assert repeat[0]["epsilon"] == rows[0]["epsilon"]


@pytest.mark.parametrize("flag, value, message", [
    pytest.param("--alpha", "2", "alpha 2.0 outside [0, 1]", id="alpha"),
    pytest.param("--n-scenarios", "0", "need at least two agents and one scenario", id="n-scenarios"),
])
def test_batch_bad_flag_exits_2_before_any_seed(tmp_path, capsys, flag, value, message):
    out = tmp_path / "batch"
    assert main(["batch", "--seed-count", "2", flag, value, "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""  # no seed ran
    assert len(captured.err.splitlines()) == 1
    assert message in captured.err
    assert not out.exists()


def test_batch_records_a_failing_seed_and_goes_on(tmp_path, monkeypatch):
    solve = fb_cli.run
    calls = []

    def fail_first(instance, config):
        calls.append(instance)
        if len(calls) == 1:
            raise RuntimeError("solver failed")
        return solve(instance, config)

    monkeypatch.setattr(fb_cli, "run", fail_first)
    out = tmp_path / "batch"
    assert main(["batch", "--seed-count", "2", "--max-iters", "10", "--out", str(out)]) == 0
    with open(out / "batch.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [(r["seed"], r["epsilon"] == "") for r in rows] == [("0", True), ("1", False)]


def test_batch_empty_seed_range(tmp_path):
    out = tmp_path / "empty"
    assert main(["batch", "--seed-count", "0", "--out", str(out)]) == 0
    assert (out / "batch.csv").read_text().strip() == "seed,epsilon,duration_seconds"


def test_show_prints_instance(capsys):
    assert main(["show", "--example", "2"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["instance"]["values"] == pytest.approx([1 / 3, 2 / 3, 1.0])
    assert doc["instance"]["grid"] == {"max": 1.0, "steps": 600}
    assert doc["recommended_config"]["max_iterations"] == 1_000_000


def test_batch_bad_flag_exits_2_with_no_seeds(tmp_path, capsys):
    out = tmp_path / "batch"
    assert main(["batch", "--seed-count", "0", "--alpha", "2", "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == ["invalid input: --alpha 2.0: alpha 2.0 outside [0, 1]"]
    assert not out.exists()


@pytest.mark.parametrize("extra", [
    pytest.param(["--example", "3"], id="example-3"),
    pytest.param(["--example", "4", "--max-iters", "3000"], id="example-4"),
])
def test_solve_same_bytes_with_1_and_2_blas_threads(tmp_path, extra):
    src = str(Path(fbauction.__file__).resolve().parents[1])
    outputs = []
    for threads in ("1", "2"):
        out = tmp_path / f"threads{threads}"
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads,
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        subprocess.run([sys.executable, "-m", "fbauction.cli", "solve", *extra, "--out", str(out)],
                       env=env, check=True, capture_output=True)
        outputs.append(out)
    for name in ["strategies.csv", "payoffs.csv"]:
        assert (outputs[0] / name).read_bytes() == (outputs[1] / name).read_bytes(), name
