"""Bundled auction instances, a random-instance generator, and file I/O.

The file format is a single JSON document. Agent-based files carry::

    {"values": [...],
     "scenarios": [{"members": [0, 1], "prob": 0.25}, ...],
     "grid": {"max": 1.0, "steps": 400},
     "rule": {"alpha": 1.0}}            # optional, defaults to pay-as-bid

Player-based files replace ``values``/``scenarios`` with::

    {"players": [{"values": [...], "probs": [...]}, ...],
     "joint": [...]}                    # optional nested table; omitted
                                        # means values are independent

and are converted to the agent-based form on load.
"""
from __future__ import annotations

import json
import warnings
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

import numpy as np

from . import model
from .model import (
    AgentPartition,
    AuctionInstance,
    BidGrid,
    PaymentRule,
    PlayerAuction,
    Scenario,
    convert_player_to_agent,
    validate_instance,  # unused here; perfbench's tracer patches it here by name
)
from .solver import LearningSchedule, SolverConfig


@dataclass(frozen=True, eq=False)
class NamedInstance:
    """An instance bundled with the solver settings known to work on it.

    ``expected_epsilon`` is the certificate size the recommended
    configuration is known to reach (order of magnitude, not a bound).
    ``partition`` is present for instances built from a player-based
    description.
    """

    name: str
    instance: AuctionInstance
    config: SolverConfig
    expected_epsilon: float | None = None
    partition: AgentPartition | None = None


def _recommended(max_iterations: int) -> SolverConfig:
    # equal-weight averaging of past best replies; measured to reach the
    # expected_epsilon values below, while constant or small-coefficient
    # schedules stall orders of magnitude higher on these instances
    return SolverConfig(schedule=LearningSchedule.harmonic(1.0), max_iterations=max_iterations)


def example_1() -> NamedInstance:
    """Symmetric pair of bidders with values drawn uniformly from {0, 1}.

    Four agents (two per value), four equiprobable scenarios pairing one
    value-0 and/or value-1 agent per bidder. Has a closed-form equilibrium:
    value-0 agents bid 0 and value-1 agents bid with CDF ``1/(1-b) - 1`` on
    [0, 1/2], where their payoff is flat at 0.5.
    """
    scenarios = tuple(
        Scenario(frozenset(m), 0.25) for m in [(0, 1), (2, 3), (0, 3), (1, 2)]
    )
    instance = AuctionInstance(
        values=np.array([0.0, 0.0, 1.0, 1.0]),
        scenarios=scenarios,
        grid=BidGrid.uniform(1.0, 400),
    )
    return NamedInstance("example-1", instance, _recommended(100_000), expected_epsilon=8e-5)


def example_2() -> NamedInstance:
    """Three agents with values (1/3, 2/3, 1); the middle one faces both others.

    Two equiprobable scenarios (0, 1) and (1, 2): agent 1 always participates,
    agents 0 and 2 each half the time, and never against each other.
    """
    scenarios = (Scenario(frozenset({0, 1}), 0.5), Scenario(frozenset({1, 2}), 0.5))
    instance = AuctionInstance(
        values=np.array([1.0 / 3.0, 2.0 / 3.0, 1.0]),
        scenarios=scenarios,
        grid=BidGrid.uniform(1.0, 600),
    )
    return NamedInstance("example-2", instance, _recommended(1_000_000), expected_epsilon=8.84e-4)


def example_3() -> NamedInstance:
    """Four agents, values (1/4, 2/4, 2/4, 1); agent 3 only ever joins the melee.

    Four equiprobable scenarios: the three pairs among agents 0-2 plus the
    grand scenario with all four agents.
    """
    scenarios = tuple(
        Scenario(frozenset(m), 0.25) for m in [(0, 1), (1, 2), (0, 2), (0, 1, 2, 3)]
    )
    instance = AuctionInstance(
        values=np.array([0.25, 0.5, 0.5, 1.0]),
        scenarios=scenarios,
        grid=BidGrid.uniform(1.0, 400),
    )
    return NamedInstance("example-3", instance, _recommended(100_000), expected_epsilon=2.5e-3)


def _converted(name: str, players: PlayerAuction, max_iterations: int, expected: float) -> NamedInstance:
    values, scenarios, partition = convert_player_to_agent(players)
    # bids above the top value are dominated, so the grid stops there; the
    # resolution matches example 1's 1/400 relative step
    top = float(max(vs[-1] for vs in players.value_sets))
    instance = AuctionInstance(
        values=values,
        scenarios=scenarios,
        grid=BidGrid.uniform(top, 400),
    )
    return NamedInstance(name, instance, _recommended(max_iterations), expected_epsilon=expected, partition=partition)


def example_4() -> NamedInstance:
    """Three players with independent values in {0.1, 0.2, 0.25}.

    Player 0 draws them with probabilities (1/4, 1/4, 1/2), players 1 and 2
    with (0.05, 0.45, 0.5). Conversion yields 9 agents and 27 scenarios.
    """
    players = PlayerAuction.independent(
        value_sets=[[0.1, 0.2, 0.25]] * 3,
        marginals=[[0.25, 0.25, 0.5], [0.05, 0.45, 0.5], [0.05, 0.45, 0.5]],
    )
    return _converted("example-4", players, 100_000, expected=4e-5)


def example_5() -> NamedInstance:
    """Two players with independent values; five agents after conversion.

    Player 0 draws 0.1 or 0.25 with probabilities (0.25, 0.75); player 1
    draws 0.1, 0.2 or 0.25 with probabilities (0.05, 0.45, 0.5).
    """
    players = PlayerAuction.independent(
        value_sets=[[0.1, 0.25], [0.1, 0.2, 0.25]],
        marginals=[[0.25, 0.75], [0.05, 0.45, 0.5]],
    )
    return _converted("example-5", players, 100_000, expected=1.06e-3)


def random_instance(seed: int, n_agents: int = 10, n_scenarios: int = 20) -> NamedInstance:
    """Random pairwise auction: uniform values, equiprobable random pairs.

    Values are drawn i.i.d. uniform on [0, 1]; scenarios are ``n_scenarios``
    unordered pairs drawn uniformly (duplicates merge, summing probability).
    Agents that land in no pair are dropped, with a warning, since they could
    never bid. The same seed always produces the same instance.
    """
    if n_agents < 2 or n_scenarios < 1:
        raise ValueError("need at least two agents and one scenario to form pairs")
    grid = BidGrid.uniform(1.0, 100)
    limit = model.MAX_TABLE_CELLS  # read at call time
    if n_agents * len(grid) > limit:  # the table the instance needs if every agent draws a pair
        raise ValueError(f"{n_agents} agents x {len(grid)} grid levels exceed the {limit}-cell table limit")
    rng = np.random.default_rng(seed)
    values = rng.uniform(0.0, 1.0, size=n_agents)
    prob = 1.0 / n_scenarios
    pairs = [rng.choice(n_agents, size=2, replace=False) for _ in range(n_scenarios)]

    covered = sorted({int(m) for pair in pairs for m in pair})
    if len(covered) < n_agents:
        warnings.warn(f"seed {seed}: {n_agents - len(covered)} of {n_agents} agents drew no scenario and were dropped")
    relabel = {old: new for new, old in enumerate(covered)}
    scenarios = tuple(
        Scenario(frozenset(relabel[int(m)] for m in pair), prob) for pair in pairs
    )
    instance = AuctionInstance(values=values[covered], scenarios=scenarios, grid=grid)
    return NamedInstance(f"random-seed{seed}", instance, _recommended(1_000_000))


BUILTIN_EXAMPLES = {
    "1": example_1,
    "2": example_2,
    "3": example_3,
    "4": example_4,
    "5": example_5,
}


def get_example(name: str, seed: int = 0, n_agents: int = 10, n_scenarios: int = 20) -> NamedInstance:
    """Look up a bundled instance by name ("1".."5" or "random")."""
    if name == "random":
        return random_instance(seed, n_agents=n_agents, n_scenarios=n_scenarios)
    try:
        return BUILTIN_EXAMPLES[name]()
    except KeyError:
        raise KeyError(f"unknown example {name!r}; choose from {sorted(BUILTIN_EXAMPLES)} or 'random'") from None


def grid_to_spec(grid: BidGrid) -> dict:
    """Describe a uniform grid as ``{"max": ..., "steps": ...}``."""
    steps = len(grid) - 1
    top = float(grid.bids[-1])
    if not np.array_equal(grid.bids, np.linspace(0.0, top, steps + 1)):
        raise ValueError("only uniform grids have a {max, steps} description")
    return {"max": top, "steps": steps}


def instance_to_dict(instance: AuctionInstance) -> dict:
    """Agent-based JSON document for ``instance`` (requires a uniform grid)."""
    return {
        "values": instance.values.tolist(),
        "scenarios": [{"members": sorted(s.members), "prob": s.prob} for s in instance.scenarios],
        "grid": grid_to_spec(instance.grid),
        "rule": {"alpha": instance.rule.alpha},
    }


def instance_from_dict(data: dict) -> AuctionInstance:
    """Build an instance from a parsed JSON document.

    Player-based documents are converted to agent-based form here. Raises
    :class:`InvalidInstanceError` when the instance is invalid and
    ``KeyError``/``ValueError`` for structurally broken documents.
    """
    grid_spec = data["grid"]
    grid = BidGrid.uniform(float(grid_spec["max"]), int(grid_spec["steps"]))
    rule = PaymentRule(float(data.get("rule", {}).get("alpha", 1.0)))

    if "players" in data:
        value_sets = [p["values"] for p in data["players"]]
        if "joint" in data:
            players = PlayerAuction(
                tuple(np.asarray(vs, dtype=np.float64) for vs in value_sets),
                np.asarray(data["joint"], dtype=np.float64),
            )
        else:
            players = PlayerAuction.independent(value_sets, [p["probs"] for p in data["players"]])
        values, scenarios, _partition = convert_player_to_agent(players)
        return AuctionInstance(values, scenarios, grid, rule)
    scenarios = tuple(
        Scenario(frozenset(int(m) for m in s["members"]), float(s["prob"]))
        for s in data["scenarios"]
    )
    return AuctionInstance(np.asarray(data["values"], dtype=np.float64), scenarios, grid, rule)


def load_instance(path: str | Path) -> AuctionInstance:
    """Load an instance file (agent-based or player-based JSON)."""
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    return instance_from_dict(data)


def save_instance(instance: AuctionInstance, path: str | Path) -> None:
    """Write ``instance`` as an agent-based JSON file."""
    Path(path).write_text(json.dumps(instance_to_dict(instance), indent=2) + "\n", encoding="utf-8")


def fixture_path(name: str) -> Path:
    """Filesystem path of a bundled fixture file, e.g. ``example1``."""
    return Path(str(resources.files("fbauction").joinpath("fixtures", f"{name}.json")))
