"""Smoke test of the benchmark at tiny sizes (a few seconds).

Run from the repository root: ``python3 -m pytest perfbench``.
"""
from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import fbauction.solver as fb_solver  # noqa: E402
import run as bench  # noqa: E402
import workloads  # noqa: E402
from workloads import Bundled, CliRoundtrip, Large, RandomBatch  # noqa: E402

TINY = (
    Bundled(targets=(("example-1", "1", 1.0, 2.5e-3), ("example-1-alpha0.5", "1", 0.5, 3e-3)), cap=5_000),
    RandomBatch(count=2, budget=200),
    Large(pair_agents=20, pair_scenarios=40, pair_budget=40, players=3, values=3, steps=50,
          converted_budget=30, check_interval=10),
    CliRoundtrip(steps=100, budget=20),
)


@pytest.mark.parametrize("trace", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("workload", TINY, ids=lambda w: w.name)
def test_tiny_workload_reports_every_metric(workload, trace, tmp_path):
    m = bench.measure(workload, seed=3, seconds=0.0, trace=trace, workdir=tmp_path)
    assert m["errors"] == []
    for unit in m["units"] + m["traced"]:
        assert unit.failed == 0, unit.problems
        assert unit.attempted == 2 * unit.instances
    metrics = bench.per_layer_metrics(m) if trace else bench.end_to_end_metrics(m)
    expected = bench.PER_LAYER if trace else bench.END_TO_END
    assert list(metrics) == [name for name, _unit in expected]
    assert all(math.isfinite(v) for v in metrics.values())
    if trace:
        layers = [v for k, v in metrics.items() if k.endswith("_s") and k != "trace.wall_s"]
        assert math.isclose(sum(layers), metrics["trace.wall_s"], rel_tol=1e-9)
        assert metrics["payoff.engine_inits"] >= 2
        assert (metrics["cli.verify_self_s"] > 0) == (workload.name == "cli-roundtrip")
    else:
        assert all(v > 0 for v in metrics.values())


def test_benchmark_json_lists_the_reported_metrics():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(bench.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(bench.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(bench.WORKLOAD_NAMES)


def test_tracer_restores_the_program(tmp_path):
    plain_run = fb_solver.run
    bench.measure(TINY[1], seed=0, seconds=0.0, trace=True, workdir=tmp_path)
    assert fb_solver.run is plain_run


def test_missed_target_fails_the_run(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(bench, "OUT", tmp_path)
    monkeypatch.setitem(workloads.WORKLOADS, "bundled",
                        Bundled(targets=(("example-1", "1", 1.0, 1e-9),), cap=1_000))
    code = bench.main(["--workload", "bundled", "--seconds", "0"])
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert code == 1
    assert result["correct"] is False and result["failed"] == 1 and result["attempted"] == 2


def test_kernel_counts_of_example_4():
    named = workloads.fb_instances.get_example("4")
    deduplicated = workloads.fb_payoff.PayoffEngine(named.instance, dedup=True).n_groups
    counts = workloads.kernel_counts(named.instance, deduplicated)
    assert (counts["groups"], counts["agents"], counts["max_rivals"]) == (5, 9, 2)
    plain = workloads.kernel_counts(named.instance, named.instance.n_agents)
    assert plain["items"] == 27 * 3
    assert plain["gather_mb"] == 27 * 3 * 2 * 402 * 8 / 1e6


def test_command_without_program_exits_nonzero(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    child = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "bundled", "--seed", "0",
                            "--seconds", "1", "--trace", "0"], cwd=tmp_path, capture_output=True, text=True,
                           timeout=60)
    assert child.returncode != 0
    assert child.stdout == ""
