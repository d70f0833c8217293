"""Command-line plumbing: artifacts, exit codes, determinism."""
from __future__ import annotations

import csv
import dataclasses
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import fbauction
import fbauction.cli as fb_cli
from conftest import write_grid_csv_by_line
from fbauction import (
    AuctionInstance,
    BidGrid,
    PaymentRule,
    all_payoff_curves,
    example_1,
    get_example,
    run,
    save_instance,
)
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
    assert set(cert) == {"epsilon", "gaps", "payoffs", "best_response_bids"}  # the run record is the manifest

    manifest = json.loads((solved / "manifest.json").read_text())
    assert manifest["instance"]["name"] == "example-1"
    assert manifest["config"]["max_iterations"] == 400
    assert manifest["config"]["schedule"] == {"kind": "harmonic", "coefficient": 1.0}
    assert manifest["iterations_run"] == 400
    assert [k for k, _ in manifest["trajectory"]] == [100, 200, 300, 400]
    named = example_1()
    config = dataclasses.replace(named.config, max_iterations=400, check_interval=100)
    assert manifest["segments"] == run(named.instance, config).segments


def test_solve_reruns_byte_identically(tmp_path):
    first, second = tmp_path / "a", tmp_path / "b"
    assert main(_solve_args(first)) == 0
    assert main(_solve_args(second)) == 0
    for name in ["strategies.csv", "payoffs.csv", "certificate.json"]:
        assert (first / name).read_bytes() == (second / name).read_bytes(), name


def test_verify_reproduces_certificate(solved, tmp_path, capsys):
    start = tmp_path / "start"
    assert main(_solve_args(start, ["--max-iters", "0"])) == 0  # the later --max-iters wins
    for out in (solved, start):
        capsys.readouterr()
        assert main(["verify", "--example", "1", str(out / "strategies.csv")]) == 0
        assert capsys.readouterr().out == (out / "certificate.json").read_text(encoding="utf-8")  # byte for byte


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


def _assert_same_grid_csv(path: Path, instance: AuctionInstance, **columns: np.ndarray) -> None:
    fb_cli._write_grid_csv(path, instance, **columns)
    reference = path.with_name(f"reference-{path.name}")
    write_grid_csv_by_line(reference, instance, **columns)
    assert path.read_bytes() == reference.read_bytes(), path.name


@pytest.mark.parametrize("example, steps, alpha, iterations", [
    *(pytest.param(n, None, None, 3000, id=f"example-{n}") for n in "12345"),
    pytest.param("1", None, 0.5, 3000, id="example-1-alpha-0.5"),
    pytest.param("4", 4000, None, 200, id="example-4-grid-4000"),
])
def test_grid_csv_matches_the_line_by_line_writer(tmp_path, example, steps, alpha, iterations):
    named = get_example(example)
    base = named.instance
    grid = base.grid if steps is None else BidGrid.uniform(float(base.grid.bids[-1]), steps)
    instance = AuctionInstance(base.values, base.scenarios, grid, base.rule if alpha is None else PaymentRule(alpha))
    result = run(instance, dataclasses.replace(named.config, max_iterations=iterations))
    w = result.profile.weights
    _assert_same_grid_csv(tmp_path / "strategies.csv", instance, pdf=w, cdf=np.cumsum(w, axis=1))
    _assert_same_grid_csv(tmp_path / "payoffs.csv", instance,
                          expected_payoff=all_payoff_curves(result.profile, instance))


def test_grid_csv_matches_the_line_by_line_writer_on_special_values(tmp_path):
    # random magnitudes 1e-300..1e300 of either sign, then signed zeros,
    # subnormals, extremes and non-finite cells
    rng = np.random.default_rng(13)
    cells = rng.choice([-1.0, 1.0], size=(4, 401)) * 10.0 ** rng.uniform(-300, 300, size=(4, 401))
    special = [-0.0, 0.0, 5e-324, -5e-324, 2.5e-310, -1e-320, 1e300, -1e300, 1.7976931348623157e308,
               2.2250738585072014e-308, -0.1, -1.0, 1 / 3, np.nan, np.inf, -np.inf]
    cells[1, :len(special)] = special
    _assert_same_grid_csv(tmp_path / "payoffs.csv", get_example("1").instance, expected_payoff=cells)


def _csv_text(rows: list[list[str]], end: str = "\n") -> str:
    return "".join(",".join(row) + end for row in rows)


# ways to write one strategies.csv that verify reads alike; each maps the
# parsed rows (header first) to the file's text
_LAYOUTS = {
    "crlf": lambda rows: _csv_text(rows, "\r\n"),
    "blank-lines": lambda rows: "\n".join([_csv_text(rows[:1]), _csv_text(rows[1:50]), "", _csv_text(rows[50:]), ""]),
    "every-field-quoted": lambda rows: _csv_text([[f'"{cell}"' for cell in row] for row in rows]),
    "columns-reordered": lambda rows: _csv_text([[r[2], r[3], r[1], r[0]] for r in rows]),  # pdf,cdf,bid,agent_id
    "extra-column": lambda rows: _csv_text([[*rows[0], "note"]] + [[*row, "x"] for row in rows[1:]]),
    "extra-trailing-field": lambda rows: _csv_text(rows[:1] + [[*row, "9"] for row in rows[1:]]),
}


@pytest.mark.parametrize("layout", list(_LAYOUTS))
def test_verify_reads_every_csv_layout(solved, capsys, layout):
    with open(solved / "strategies.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    rewritten = solved / f"{layout}.csv"
    rewritten.write_bytes(_LAYOUTS[layout](rows).encode("utf-8"))
    capsys.readouterr()
    assert main(["verify", "--example", "1", str(rewritten)]) == 0
    assert capsys.readouterr().out == (solved / "certificate.json").read_text(encoding="utf-8")


_TWO_ROWS = "agent_id,bid,pdf\n0,0.0,1.0\n0,0.0025,0.0\n"


def test_verify_rejects_garbage_csv(tmp_path, capsys):
    garbage = tmp_path / "garbage.csv"
    for text, message in [
        ("who,what\n1,2\n", "strategy file needs columns"),
        ("agent_id,bid,pdf\n0,0.0,1.0\n", "expected agents 0..3, found [0]"),
        ("agent_id,bid,pdf\n1.5,0.0,1.0\n", "'1.5'"),  # an agent id is a whole number
        ("agent_id,bid,pdf\n" + "9" * 23 + ",0.0,1.0\n", "9" * 23),  # and fits an index
        ("agent_id,bid,pdf\n", "expected agents 0..3, found []"),  # header only
        ("", "strategy file needs columns"),
        ("agent_id,bid,pdf\n# note\n", "'# note'"),  # '#' starts no comment
        # errors name the file's line: the header is line 1 and blank lines count
        (_TWO_ROWS + "1.5,0.0,1.0\n", "garbage.csv, line 4: cannot read agent_id '1.5'"),
        (_TWO_ROWS + "\n1.5,0.0,1.0\n", "garbage.csv, line 5: cannot read agent_id '1.5'"),
        (_TWO_ROWS + "1_0,0.0,1.0\n", "garbage.csv, line 4: cannot read agent_id '1_0'"),  # int() reads it, numpy not
    ]:
        garbage.write_text(text)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # numpy warns "input contained no data" on an empty body
            assert main(["verify", "--example", "1", str(garbage)]) == 2, text
        err = capsys.readouterr().err
        assert err.startswith("invalid input: ") and message in err, text


def test_verify_unreadable_strategies_exits_1(solved, capsys):
    assert main(["verify", "--example", "1", str(solved / "missing.csv")]) == 1
    truncated = solved / "truncated.csv"
    truncated.write_text("agent_id,bid,pdf\n0,0.0\n")  # a row without its pdf
    assert main(["verify", "--example", "1", str(truncated)]) == 1
    lines = (solved / "strategies.csv").read_text().splitlines(keepends=True)
    lines[51] = ",".join(lines[51].split(",")[:2]) + "\n"  # agent_id,bid but no pdf or cdf, mid-file
    truncated.write_text("".join(lines))
    assert main(["verify", "--example", "1", str(truncated)]) == 1
    truncated.write_text(_TWO_ROWS + "0,0.005\n")
    assert main(["verify", "--example", "1", str(truncated)]) == 1
    errors = capsys.readouterr().err.splitlines()
    assert all(line.startswith("error: cannot read input") for line in errors)
    assert errors[-3:] == [f"error: cannot read input: {truncated}, line {n}: no pdf field" for n in (2, 52, 4)]


@pytest.mark.parametrize("field, value, message", [
    ("pdf", "nan", "weights must be finite"),
    ("bid", "0.0126", "not on the instance grid"),  # grid steps are 0.0025: between 0.0125 and 0.015
    pytest.param("bid", "0.015", "invalid input: agent 0 has 0 rows at bid 0.0125, expected 1",
                 id="bid-of-the-next-row"),  # level 0.015 then has two rows
    pytest.param(None, None, "invalid input: agent 0 has 0 rows at bid 0.0125, expected 1", id="dropped-row"),
])
def test_verify_rejects_bad_row(solved, capsys, field, value, message):
    strategies = solved / "strategies.csv"
    with open(strategies, newline="") as fh:
        rows = list(csv.DictReader(fh))
    if field is None:
        del rows[5]
    else:
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
_PAIR = {"values": [0.5, 0.7], "scenarios": [{"members": [0, 1], "prob": 1.0}], "grid": {"max": 1.0, "steps": 4}}
_NAN_VALUE = {
    "values": [float("nan"), 1.0],  # written as the JSON extension NaN, which json.load accepts
    "scenarios": [{"members": [0, 1], "prob": 1.0}],
    "grid": {"max": 1.0, "steps": 10},
}


@pytest.mark.parametrize("doc, flags, message", [
    pytest.param(_BAD_PROBABILITIES, [], "sum to 1.1", id="probabilities"),
    pytest.param(_NAN_VALUE, ["--eps-target", "1e-3"], "agents [0] have non-finite values", id="nan-value"),
    pytest.param({**_PAIR, "scenarios": [{"members": [0.9, 1.2], "prob": 1.0}]}, [],
                 "invalid input: scenario member must be an integer, got 0.9", id="fractional-member"),
    pytest.param({**_PAIR, "scenarios": [{"members": [0, 0, 1], "prob": 1.0}]}, [],
                 "invalid input: scenarios[0].members repeats agent 0", id="repeated-member"),
    pytest.param({**_PAIR, "grid": {"max": 1.0, "steps": 4.7}}, [], "invalid input: steps must be an integer, got 4.7",
                 id="fractional-steps"),
    pytest.param({**_PAIR, "grid": {"max": 1.0, "steps": True}}, [], "invalid input: steps must be an integer, got True",
                 id="boolean-steps"),
    pytest.param({**_PAIR, "scenarios": [{"members": [0, 1], "prob": True}]}, [],
                 "invalid input: scenarios[0].prob must be a number, got True", id="boolean-prob"),
    pytest.param({**_PAIR, "grid": {"max": True, "steps": 4}}, [], "invalid input: grid.max must be a number, got True",
                 id="boolean-max"),
    pytest.param({**_PAIR, "rule": {"alpha": False}}, [], "invalid input: rule.alpha must be a number, got False",
                 id="boolean-alpha"),
    pytest.param({**_PAIR, "values": [0.5, True]}, [], "invalid input: values[1] must be a number, got True",
                 id="boolean-value"),
    pytest.param({**_PAIR, "scenarios": [{"members": [0, 1], "prob": "1"}]}, [],
                 "invalid input: scenarios[0].prob must be a number, got '1'", id="string-prob"),
    pytest.param({"players": [{"values": [0.1, 0.2]}, {"values": [0.1]}], "joint": [[0.5], ["0.5"]],
                  "grid": {"max": 1.0, "steps": 4}}, [], "invalid input: joint[1][0] must be a number, got '0.5'",
                 id="string-joint-cell"),
    pytest.param({"players": [{"values": [0.1, 0.2]}, {"values": [0.1, 0.2]}], "joint": [[0.5, 0.25], [0.25]],
                  "grid": {"max": 1.0, "steps": 4}}, [],
                 "invalid input: joint must be a table whose rows have equal lengths", id="ragged-joint"),
    pytest.param({**_PAIR, "values": [[0.1], [0.2, 0.3]]}, [],
                 "invalid input: values must be a table whose rows have equal lengths", id="ragged-values"),
    pytest.param({"players": [{"values": [[0.1], [0.2, 0.3]], "probs": [0.5, 0.5]}, {"values": [0.1], "probs": [1.0]}],
                  "grid": {"max": 1.0, "steps": 4}}, [],
                 "invalid input: player 0 values must be a table whose rows have equal lengths",
                 id="ragged-player-values"),
    pytest.param({"players": [{"values": [0.1, 0.2], "probs": [0.5, 0.5]},
                              {"values": [0.1], "probs": [[1.0], [0.0, 1.0]]}], "grid": {"max": 1.0, "steps": 4}}, [],
                 "invalid input: player 1 probabilities must be a table whose rows have equal lengths",
                 id="ragged-player-probabilities"),
    pytest.param({"players": [], "grid": {"max": 1.0, "steps": 4}}, [], "invalid input: need at least one player",
                 id="no-players"),
    pytest.param({"players": [], "joint": [], "grid": {"max": 1.0, "steps": 4}}, [],
                 "invalid input: need at least one player", id="no-players-joint"),
    pytest.param({**_PAIR, "scenarios": [{"members": [0, 1], "prob": None}]}, [],
                 "invalid input: scenarios[0].prob must be a number, got None", id="null-prob"),
    pytest.param({**_PAIR, "rule": {"alpha": None}}, [], "invalid input: rule.alpha must be a number, got None",
                 id="null-alpha"),
    pytest.param({**_PAIR, "grid": {"max": [1.0], "steps": 4}}, [],
                 "invalid input: grid.max must be a number, got [1.0]", id="list-max"),
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


def test_solve_oversized_rival_product_block_exits_2(tmp_path, capsys, monkeypatch):
    # example 3's engine multiplies its rivals in a block of 2 x 7 rival sets x 402 levels
    monkeypatch.setattr(fbauction.model, "MAX_TABLE_CELLS", 2_000)
    out = tmp_path / "out"
    assert main(["solve", "--example", "3", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.splitlines() == ["invalid instance: 2 product buffers x 7 rival sets x 402 levels "
                                "exceed the 2000-cell table limit"]
    assert not out.exists()


def test_solve_independent_players_without_their_rival_sets(tmp_path, capsys, monkeypatch):
    # 5 independent players x 6 values: 30 agents, 7776 scenarios. As rival
    # sets the engine would need a 2 x 6480 x 402 = 5.2 M-cell product block;
    # mixed per player it needs 3 x 5 players x 402 levels
    doc = {"players": [{"values": (np.arange(1, 7) / 6).tolist(), "probs": [1 / 6] * 6}] * 5,
           "grid": {"max": 1.0, "steps": 400}}
    path = tmp_path / "players.json"
    path.write_text(json.dumps(doc))
    monkeypatch.setattr(fbauction.model, "MAX_TABLE_CELLS", 5_000_000)
    out = tmp_path / "out"
    assert main(["solve", "--file", str(path), "--max-iters", "20", "--out", str(out)]) == 0
    assert capsys.readouterr().err == ""
    assert json.loads((out / "manifest.json").read_text())["iterations_run"] == 20


def test_solve_player_file_with_too_many_value_profiles_exits_2(tmp_path, capsys, monkeypatch):
    # 3 independent players x 3 values convert to 27 scenarios of 3 members;
    # the count is refused before the joint table is built
    doc = {"players": [{"values": [0.1, 0.2, 0.3], "probs": [0.2, 0.3, 0.5]}] * 3, "grid": {"max": 1.0, "steps": 4}}
    path = tmp_path / "players.json"
    path.write_text(json.dumps(doc))
    monkeypatch.setattr(fbauction.model, "MAX_TABLE_CELLS", 27 * 3 - 1)
    out = tmp_path / "out"
    assert main(["solve", "--file", str(path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.splitlines() == ["invalid input: 27 value profiles x 3 players exceed the 80-cell table limit"]
    assert not out.exists()


def test_solve_oversized_random_instance_exits_2(tmp_path, capsys, monkeypatch):
    # one pair of 10 agents keeps 2 agents, well inside the limit; the generator
    # must refuse the 10 agents it draws values for, before drawing them
    monkeypatch.setattr(fbauction.model, "MAX_TABLE_CELLS", 1000)
    out = tmp_path / "out"
    argv = ["solve", "--example", "random", "--n-agents", "10", "--n-scenarios", "1", "--max-iters", "10"]
    assert main([*argv, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.splitlines() == ["invalid input: --n-agents 10: "
                                "10 agents x 101 grid levels exceed the 1000-cell table limit"]
    assert not out.exists()


@pytest.mark.parametrize("command", ["solve", "batch"])
def test_oversized_scenario_count_exits_2_naming_its_flag(tmp_path, capsys, monkeypatch, command):
    # 2 agents x 101 grid levels and 101 pairs of 2 members fit a 202-cell limit, 102 pairs do not;
    # the count is refused before any draw
    monkeypatch.setattr(fbauction.model, "MAX_TABLE_CELLS", 202)
    monkeypatch.setattr(np.random, "default_rng", lambda *a, **k: pytest.fail("a generator was made"))
    source = ["--example", "random"] if command == "solve" else []
    out = tmp_path / "out"
    assert main([command, *source, "--n-agents", "2", "--n-scenarios", "102", "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == ["invalid input: --n-scenarios 102: "
                                         "102 scenarios x 2 members exceed the 202-cell table limit"]
    assert not out.exists()


def test_solve_unreadable_file_exits_1(tmp_path, capsys):
    broken = tmp_path / "broken.json"
    broken.write_text("{oops")
    assert main(["solve", "--file", str(broken), "--out", str(tmp_path / "out")]) == 1
    assert main(["solve", "--file", str(tmp_path / "missing.json"), "--out", str(tmp_path / "out")]) == 1
    # structurally incomplete document: independent players need their probs
    partial = tmp_path / "partial.json"
    partial.write_text(json.dumps({"players": [{"values": [0.1, 0.2]}], "grid": {"max": 1.0, "steps": 4}}))
    assert main(["solve", "--file", str(partial), "--out", str(tmp_path / "out")]) == 1
    # the payment rule is an object, like the grid
    capsys.readouterr()
    for rule in (5, None, [0.5], "x"):
        partial.write_text(json.dumps({**_PAIR, "rule": rule}))
        assert main(["solve", "--file", str(partial), "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err.splitlines() == [f"error: cannot read input: rule must be an object, got {rule!r}"]
    # every structural field is named by its path when it has the wrong JSON type
    players = {"players": [{"values": [0.1], "probs": [1.0]}], "grid": _PAIR["grid"]}
    for doc, message in [
        ({**_PAIR, "grid": 5}, "grid must be an object, got 5"),
        ({**_PAIR, "scenarios": [5]}, "scenarios[0] must be an object, got 5"),
        ({**_PAIR, "scenarios": {"a": 1}}, "scenarios must be a list, got {'a': 1}"),
        ({**_PAIR, "scenarios": [{"members": 5, "prob": 1.0}]}, "scenarios[0].members must be a list, got 5"),
        ({**players, "players": 5}, "players must be a list, got 5"),
        ({**players, "players": [5]}, "players[0] must be an object, got 5"),
        ([1], "instance must be an object, got [1]"),
        # a missing field is named with the object that lacks it
        ({key: _PAIR[key] for key in ("values", "scenarios")}, "instance has no 'grid'"),
        ({**_PAIR, "grid": {"steps": 4}}, "grid has no 'max'"),
        ({**_PAIR, "grid": {"max": 1.0}}, "grid has no 'steps'"),
        ({key: _PAIR[key] for key in ("values", "grid")}, "instance has no 'scenarios'"),
        ({key: _PAIR[key] for key in ("scenarios", "grid")}, "instance has no 'values'"),
        ({**_PAIR, "scenarios": [{"prob": 1.0}]}, "scenarios[0] has no 'members'"),
        ({**_PAIR, "scenarios": [{"members": [0, 1]}]}, "scenarios[0] has no 'prob'"),
        ({**players, "players": [{"values": [0.1]}]}, "players[0] has no 'probs'"),
        ({**players, "players": [{"probs": [1.0]}]}, "players[0] has no 'values'"),
        # every object holds only the keys the reader reads, so no key is dropped without a word
        ({**_PAIR, "rules": {"alpha": 0.5}}, "instance has unexpected key 'rules'"),
        ({**_PAIR, **players, "joint": [1.0]}, "instance has unexpected key 'values'"),
        ({**players, "joint": [1.0]}, "players[0] has unexpected key 'probs'"),
        ({**_PAIR, "joint": [1.0]}, "instance has unexpected key 'joint'"),
        ({**_PAIR, "grid": {"max": 1.0, "steps": 4, "min": 0.0}}, "grid has unexpected key 'min'"),
        ({**_PAIR, "rule": {"alpha": 0.5, "beta": 1.0}}, "rule has unexpected key 'beta'"),
        ({**_PAIR, "scenarios": [{"members": [0, 1], "prob": 1.0, "weight": 2}]},
         "scenarios[0] has unexpected key 'weight'"),
        ({**players, "players": [{"values": [0.1], "probs": [1.0], "prob": 1.0}]},
         "players[0] has unexpected key 'prob'"),
    ]:
        partial.write_text(json.dumps(doc))
        assert main(["solve", "--file", str(partial), "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err.splitlines() == [f"error: cannot read input: {message}"]
    assert not (tmp_path / "out").exists()


def test_solve_unreached_target_exits_3(tmp_path):
    out = tmp_path / "out"
    code = main(["solve", "--example", "1", "--max-iters", "0", "--eps-target", "1e-9", "--out", str(out)])
    assert code == 3
    assert (out / "certificate.json").exists()  # artifacts still written


@pytest.mark.parametrize("flags, schedule", [
    pytest.param(["--eta-kind", "harmonic", "--eta-c", "1.0"], {"kind": "harmonic", "coefficient": 1.0}, id="both"),
    # a lone flag keeps the recommended value of the other field
    pytest.param(["--eta-kind", "constant"], {"kind": "constant", "coefficient": 1.0}, id="kind-alone"),
    pytest.param(["--eta-c", "0.5"], {"kind": "harmonic", "coefficient": 0.5}, id="coefficient-alone"),
    pytest.param(["--eta-kind", "linear"], {"kind": "linear", "coefficient": 1.0}, id="linear"),
])
def test_solve_file_instance_with_overrides(tmp_path, flags, schedule):
    source = tmp_path / "ex1.json"
    save_instance(example_1().instance, source)
    out = tmp_path / "out"
    code = main([
        "solve", "--file", str(source), "--grid-steps", "50", "--alpha", "0.5",
        *flags, "--max-iters", "200", "--out", str(out),
    ])
    assert code == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["instance"]["grid"] == {"max": 1.0, "steps": 50}
    assert manifest["instance"]["alpha"] == 0.5
    assert manifest["instance"]["sha256"]
    assert manifest["config"]["schedule"] == schedule


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


@pytest.mark.parametrize("flags, message", [
    pytest.param(["--alpha", "2"], "alpha 2.0 outside [0, 1]", id="alpha"),
    pytest.param(["--n-scenarios", "0"], "invalid input: --n-scenarios 0: need at least one scenario",
                 id="n-scenarios"),
    pytest.param(["--n-agents", "1"], "invalid input: --n-agents 1: need at least two agents to form pairs",
                 id="n-agents"),
    pytest.param(["--n-agents", "1", "--n-scenarios", "0"],
                 "invalid input: --n-scenarios 0: need at least one scenario",
                 id="n-agents-and-n-scenarios"),  # the generator checks the scenario count first
])
def test_batch_bad_flag_exits_2_before_any_seed(tmp_path, capsys, flags, message):
    out = tmp_path / "batch"
    assert main(["batch", "--seed-count", "2", *flags, "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""  # no seed ran
    assert len(captured.err.splitlines()) == 1
    assert message in captured.err
    assert not out.exists()


@pytest.mark.parametrize("argv, flag", [
    pytest.param(["solve", "--example", "random", "--seed", "-1"], "--seed", id="solve"),
    pytest.param(["batch", "--seed-start", "-3"], "--seed-start", id="batch"),
    pytest.param(["batch", "--seed-count", "-2"], "--seed-count", id="batch-count"),
])
def test_negative_seed_exits_2_naming_its_flag(tmp_path, capsys, monkeypatch, argv, flag):
    monkeypatch.setattr(fb_cli, "random_instance", lambda *a, **k: pytest.fail("an instance was drawn"))
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exited:
        main([*argv, "--out", str(out)])
    assert exited.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines()[-1] == (
        f"fbauction {argv[0]}: error: argument {flag}: expected a whole number >= 0, got {argv[-1]!r}")
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
    assert doc["recommended_config"]["schedule"] == {"kind": "linear", "coefficient": 1.0}


# a JSON integer beyond the float range, which numpy refuses to convert with an OverflowError
@pytest.mark.parametrize("doc, field", [
    pytest.param({**_PAIR, "values": [10**400, 0.3]}, "values[0]", id="value"),
    pytest.param({**_PAIR, "grid": {"max": 10**400, "steps": 4}}, "grid.max", id="grid-max"),
    pytest.param({"players": [{"values": [0.1, -10**400], "probs": [0.5, 0.5]}, {"values": [0.1], "probs": [1.0]}],
                  "grid": {"max": 1.0, "steps": 4}}, "player 0 values[1]", id="player-value"),
])
def test_show_integer_beyond_float_range_exits_2(tmp_path, capsys, doc, field):
    bad = tmp_path / "big.json"
    bad.write_text(json.dumps(doc))
    assert main(["show", "--file", str(bad)]) == 2
    assert capsys.readouterr().err.splitlines() == [
        f"invalid input: {field} must be a number in the float range, got an integer of 1329 bits"]


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
