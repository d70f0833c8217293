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

and are converted to the agent-based form on load. Each object may hold only the keys read.
"""
from __future__ import annotations

import json
import warnings
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

import numpy as np

from .model import (
    AuctionInstance,
    BidGrid,
    PaymentRule,
    PlayerAuction,
    Scenario,
    _number,
    _table_problem,
    convert_player_to_agent,
    validate_instance,  # unused here; perfbench's tracer patches it here by name
)
from .solver import SolverConfig


@dataclass(frozen=True, eq=False)
class NamedInstance:
    """An instance bundled with the solver settings known to work on it.

    ``expected_epsilon`` is the certificate size the recommended
    configuration is known to reach (order of magnitude, not a bound).
    """

    name: str
    instance: AuctionInstance
    config: SolverConfig
    expected_epsilon: float | None = None


def _recommended(max_iterations: int, schedule: str) -> SolverConfig:
    # each example gets the schedule that first reached its expected_epsilon
    # sooner, checked every 1000 iterations (harmonic -> linear): example 1
    # 64k -> 88k, so harmonic; examples 2-5 630k -> 228k, 83k -> 7k,
    # 48k -> 8k and 21k -> 18k, so linear. Random instances keep harmonic:
    # linear read higher at 5e4 iterations on seeds 0 and 1. Constant or
    # small-coefficient schedules stall orders of magnitude higher
    return SolverConfig(schedule=schedule, coefficient=1.0, max_iterations=max_iterations)


def _agent_form(values, member_sets, grid: BidGrid) -> AuctionInstance:
    """The agent-form instance whose scenarios are ``member_sets``, each at equal probability."""
    return AuctionInstance(values, tuple(Scenario(frozenset(m), 1.0 / len(member_sets)) for m in member_sets), grid)


def example_1() -> NamedInstance:
    """Symmetric pair of bidders with values drawn uniformly from {0, 1}.

    Four agents (two per value), four equiprobable scenarios pairing one
    value-0 and/or value-1 agent per bidder. Has a closed-form equilibrium:
    value-0 agents bid 0 and value-1 agents bid with CDF ``1/(1-b) - 1`` on
    [0, 1/2], where their payoff is flat at 0.5.
    """
    instance = _agent_form([0.0, 0.0, 1.0, 1.0], [(0, 1), (2, 3), (0, 3), (1, 2)], BidGrid.uniform(1.0, 400))
    return NamedInstance("example-1", instance, _recommended(100_000, "harmonic"), expected_epsilon=8e-5)


def example_2() -> NamedInstance:
    """Three agents with values (1/3, 2/3, 1); the middle one faces both others.

    Two equiprobable scenarios (0, 1) and (1, 2): agent 1 always participates,
    agents 0 and 2 each half the time, and never against each other.
    """
    instance = _agent_form([1.0 / 3.0, 2.0 / 3.0, 1.0], [(0, 1), (1, 2)], BidGrid.uniform(1.0, 600))
    return NamedInstance("example-2", instance, _recommended(1_000_000, "linear"), expected_epsilon=6.26e-4)


def example_3() -> NamedInstance:
    """Four agents, values (1/4, 2/4, 2/4, 1); agent 3 only ever joins the melee.

    Four equiprobable scenarios: the three pairs among agents 0-2 plus the
    grand scenario with all four agents.
    """
    instance = _agent_form([0.25, 0.5, 0.5, 1.0], [(0, 1), (1, 2), (0, 2), (0, 1, 2, 3)], BidGrid.uniform(1.0, 400))
    return NamedInstance("example-3", instance, _recommended(100_000, "linear"), expected_epsilon=1.09e-4)


def _converted(name: str, players: PlayerAuction, max_iterations: int, expected: float) -> NamedInstance:
    # bids above the top value are dominated, so the grid stops there; the
    # resolution matches example 1's 1/400 relative step
    top = float(max(vs[-1] for vs in players.value_sets))
    instance = AuctionInstance(*convert_player_to_agent(players)[:2], BidGrid.uniform(top, 400))
    return NamedInstance(name, instance, _recommended(max_iterations, "linear"), expected_epsilon=expected)


def example_4() -> NamedInstance:
    """Three players with independent values in {0.1, 0.2, 0.25}.

    Player 0 draws them with probabilities (1/4, 1/4, 1/2), players 1 and 2
    with (0.05, 0.45, 0.5). Conversion yields 9 agents and 27 scenarios.
    """
    players = PlayerAuction.independent(
        value_sets=[[0.1, 0.2, 0.25]] * 3,
        marginals=[[0.25, 0.25, 0.5], [0.05, 0.45, 0.5], [0.05, 0.45, 0.5]],
    )
    return _converted("example-4", players, 100_000, expected=2.95e-5)


def example_5() -> NamedInstance:
    """Two players with independent values; five agents after conversion.

    Player 0 draws 0.1 or 0.25 with probabilities (0.25, 0.75); player 1
    draws 0.1, 0.2 or 0.25 with probabilities (0.05, 0.45, 0.5).
    """
    players = PlayerAuction.independent(
        value_sets=[[0.1, 0.25], [0.1, 0.2, 0.25]],
        marginals=[[0.25, 0.75], [0.05, 0.45, 0.5]],
    )
    return _converted("example-5", players, 100_000, expected=8.68e-4)


def random_instance(seed: int, n_agents: int = 10, n_scenarios: int = 20) -> NamedInstance:
    """Random pairwise auction: uniform values, equiprobable random pairs.

    Values are drawn i.i.d. uniform on [0, 1]; scenarios are ``n_scenarios``
    unordered pairs drawn uniformly (duplicates merge, summing probability).
    Agents that land in no pair are dropped, with a warning, since they could
    never bid. The same seed always produces the same instance.

    A size out of range raises ``ValueError`` before any draw, ``n_scenarios`` first; its ``argument`` names the size.
    """
    grid = BidGrid.uniform(1.0, 100)
    for argument, problem in (
        ("n_scenarios", "need at least one scenario" if n_scenarios < 1
         else _table_problem((n_scenarios, "scenarios"), (2, "members"))),  # the drawn pairs
        ("n_agents", "need at least two agents to form pairs" if n_agents < 2
         else _table_problem((n_agents, "agents"), (len(grid), "grid levels"))),  # if every agent draws a pair
    ):
        if problem:
            error = ValueError(problem)
            error.argument = argument
            raise error
    rng = np.random.default_rng(seed)
    values = rng.uniform(0.0, 1.0, size=n_agents)
    pairs = np.array([rng.choice(n_agents, size=2, replace=False) for _ in range(n_scenarios)])
    covered, members = np.unique(pairs, return_inverse=True)  # members: the pairs relabelled 0..covered.size-1
    if covered.size < n_agents:
        warnings.warn(f"seed {seed}: {n_agents - covered.size} of {n_agents} agents drew no scenario and were dropped")
    instance = _agent_form(values[covered], members.reshape(pairs.shape).tolist(), grid)
    return NamedInstance(f"random-seed{seed}", instance, _recommended(1_000_000, "harmonic"))


BUILTIN_EXAMPLES = {
    "1": example_1,
    "2": example_2,
    "3": example_3,
    "4": example_4,
    "5": example_5,
}


def get_example(name: str) -> NamedInstance:
    """Look up a bundled instance by name ("1".."5"); :func:`random_instance` builds random ones."""
    try:
        return BUILTIN_EXAMPLES[name]()
    except KeyError:
        raise KeyError(f"unknown example {name!r}; choose from {sorted(BUILTIN_EXAMPLES)}") from None


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
    ``KeyError``/``TypeError``/``ValueError`` for structurally broken documents.
    """
    data = _json(data, dict, "instance")
    _only(data, "instance", "grid", "rule", *(("players", "joint") if "players" in data else ("values", "scenarios")))
    grid_spec = _only(_json(_field(data, "grid", "instance"), dict, "grid"), "grid", "max", "steps")
    rule_spec = _only(_json(data.get("rule", {}), dict, "rule"), "rule", "alpha")
    grid = BidGrid.uniform(_number(_field(grid_spec, "max", "grid"), "grid.max"), _field(grid_spec, "steps", "grid"))
    rule = PaymentRule(_number(rule_spec.get("alpha", 1.0), "rule.alpha"))

    if "players" in data:
        read = ("values",) if "joint" in data else ("values", "probs")  # probs are not read beside a joint table
        specs = [_only(_json(p, dict, f"players[{i}]"), f"players[{i}]", *read)
                 for i, p in enumerate(_json(data["players"], list, "players"))]
        value_sets = tuple(_field(p, "values", f"players[{i}]") for i, p in enumerate(specs))
        if "joint" in data:
            players = PlayerAuction(value_sets, data["joint"])
        else:
            players = PlayerAuction.independent(value_sets, [_field(p, "probs", f"players[{i}]")
                                                             for i, p in enumerate(specs)])
        values, scenarios, _partition = convert_player_to_agent(players)
        return AuctionInstance(values, scenarios, grid, rule)
    scenarios = []
    for i, s in enumerate(_json(_field(data, "scenarios", "instance"), list, "scenarios")):
        where = f"scenarios[{i}]"
        s = _only(_json(s, dict, where), where, "members", "prob")
        members = _json(_field(s, "members", where), list, f"{where}.members")
        scenarios.append(Scenario(frozenset(members), _number(_field(s, "prob", where), f"{where}.prob")))
        if len(scenarios[-1].members) < len(members):  # the set hides a repeated agent
            raise ValueError(f"{where}.members repeats agent {max(scenarios[-1].members, key=members.count)}")
    return AuctionInstance(_field(data, "values", "instance"), tuple(scenarios), grid, rule)


def _json(x, kind: type, what: str):
    """``x``, or a ``TypeError`` naming ``what`` unless it is a ``kind``: ``dict`` (an object) or ``list``."""
    if not isinstance(x, kind):
        raise TypeError(f"{what} must be {'an object' if kind is dict else 'a list'}, got {x!r}")
    return x


class _FieldError(KeyError):
    """A ``KeyError`` whose text is its message, unquoted."""

    __str__ = Exception.__str__


def _field(spec: dict, key: str, what: str):
    """``spec[key]``, or a ``KeyError`` naming the object ``what`` and the missing ``key``."""
    try:
        return spec[key]
    except KeyError:
        raise _FieldError(f"{what} has no {key!r}") from None


def _only(spec: dict, what: str, *keys: str) -> dict:
    """``spec``, or a ``KeyError`` naming the object ``what`` and its first key that is not one of ``keys``."""
    if unexpected := [key for key in spec if key not in keys]:
        raise _FieldError(f"{what} has unexpected key {unexpected[0]!r}")
    return spec


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
