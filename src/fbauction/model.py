"""Domain types for grid-restricted sealed-bid one-item auctions.

Two views of the same auction are supported:

* the *player-based* view (:class:`PlayerAuction`): players draw private
  values from a joint discrete distribution and then bid;
* the *agent-based* view (:class:`AuctionInstance`): one agent per possible
  (player, value) realization, plus a probability distribution over
  *scenarios* -- the subsets of agents that show up to bid against each
  other. Any correlation between bidder values lives entirely in that
  scenario distribution.

:func:`convert_player_to_agent` maps the first view onto the second and
:func:`player_payoff` recomposes per-player payoffs from per-agent ones, so
everything downstream (payoff engine, solver, certification) only ever deals
with the agent-based form.

All types are immutable after construction and safe to share across threads.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from typing import Sequence

import numpy as np

PROB_TOL = 1e-9

# Largest table an instance may need, in float64 cells (8 bytes each, so
# 80 MB at the limit). BidGrid.uniform checks the grid levels before it
# allocates, validate_instance (on every AuctionInstance) the agents x levels
# tables the solver holds, and PayoffEngine raises InvalidInstanceError
# before it allocates an aggregation matrix (agents x rival sets) or gathered
# rival rows (rival sets x most rivals x levels) above the limit.
MAX_TABLE_CELLS = 10_000_000


def _readonly(a: np.ndarray) -> np.ndarray:
    out = np.array(a, dtype=np.float64)
    out.setflags(write=False)
    return out


class InvalidInstanceError(ValueError):
    """Raised for unusable instances; ``problems`` lists every violation."""

    def __init__(self, problems: Sequence[str]):
        super().__init__("invalid auction instance: " + "; ".join(problems))
        self.problems = list(problems)


@dataclass(frozen=True, eq=False)
class BidGrid:
    """Strictly increasing grid of admissible bid levels, starting at 0."""

    bids: np.ndarray

    def __post_init__(self):
        bids = np.atleast_1d(np.asarray(self.bids, dtype=np.float64))
        if bids.ndim != 1 or bids.size < 2:
            raise ValueError("bid grid needs at least two levels")
        if bids[0] != 0.0:
            raise ValueError("bid grid must start at 0")
        if not np.all(np.isfinite(bids)):
            raise ValueError("bid levels must be finite")
        if np.any(np.diff(bids) <= 0.0):
            raise ValueError("bid levels must be strictly increasing")
        object.__setattr__(self, "bids", _readonly(bids))

    @classmethod
    def uniform(cls, max_bid: float, steps: int) -> "BidGrid":
        """Evenly spaced grid ``[0, max_bid/steps, ..., max_bid]``."""
        if steps < 1:
            raise ValueError("steps must be >= 1")
        if steps + 1 > MAX_TABLE_CELLS:
            raise ValueError(f"{steps + 1} grid levels exceed the {MAX_TABLE_CELLS}-cell table limit")
        if not 0.0 < max_bid < np.inf:
            raise ValueError(f"max_bid must be positive and finite, got {max_bid}")
        return cls(np.linspace(0.0, float(max_bid), steps + 1))

    def __len__(self) -> int:
        return int(self.bids.size)


@dataclass(frozen=True)
class Scenario:
    """A participant subset and the probability that it is the one realized."""

    members: frozenset[int]
    prob: float

    def __post_init__(self):
        members = frozenset(int(m) for m in self.members)
        if not members:
            raise ValueError("scenario needs at least one member")
        if not 0.0 <= self.prob <= 1.0:
            raise ValueError(f"scenario probability {self.prob} outside [0, 1]")
        object.__setattr__(self, "members", members)
        object.__setattr__(self, "prob", float(self.prob))


@dataclass(frozen=True)
class PaymentRule:
    """Winner pays ``alpha * own bid + (1 - alpha) * highest rival bid``.

    ``alpha = 1`` is the pure pay-as-bid rule; ``alpha = 0.5`` charges the
    average of the two highest bids. A winner with no rivals pays
    ``alpha * own bid`` (the rival side defaults to 0).
    """

    alpha: float = 1.0

    def __post_init__(self):
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError(f"alpha {self.alpha} outside [0, 1]")
        object.__setattr__(self, "alpha", float(self.alpha))


FIRST_PRICE = PaymentRule(1.0)


@dataclass(frozen=True, eq=False)
class AuctionInstance:
    """Agent-based auction: values, participation scenarios, grid, payment rule.

    Scenarios are canonicalized on construction: entries with identical member
    sets are merged by summing probability, zero-probability entries are
    dropped, and the remainder is sorted by member tuple. The canonical
    instance is then checked by :func:`validate_instance`, and any problem
    raises :class:`InvalidInstanceError`, so every instance is usable.
    """

    values: np.ndarray
    scenarios: tuple[Scenario, ...]
    grid: BidGrid
    rule: PaymentRule = FIRST_PRICE

    def __post_init__(self):
        values = np.atleast_1d(np.asarray(self.values, dtype=np.float64))
        if values.ndim != 1 or values.size == 0:
            raise ValueError("values must be a non-empty 1-d vector")
        object.__setattr__(self, "values", _readonly(values))
        merged: dict[frozenset[int], float] = {}
        for s in self.scenarios:
            merged[s.members] = merged.get(s.members, 0.0) + s.prob
        canon = tuple(
            Scenario(members, prob)
            for members, prob in sorted(merged.items(), key=lambda kv: tuple(sorted(kv[0])))
            if prob != 0.0
        )
        object.__setattr__(self, "scenarios", canon)
        problems = validate_instance(self)
        if problems:
            raise InvalidInstanceError(problems)

    @property
    def n_agents(self) -> int:
        return int(self.values.size)

    @property
    def n_bids(self) -> int:
        return len(self.grid)


def validate_instance(instance: AuctionInstance) -> list[str]:
    """Collect invariant violations; an empty list means the instance is usable.

    Every :class:`AuctionInstance` runs this on construction.
    """
    problems: list[str] = []
    for kind, bad in (("negative", instance.values < 0.0), ("non-finite", ~np.isfinite(instance.values))):
        if bad.any():
            problems.append(f"agents {np.flatnonzero(bad).tolist()} have {kind} values")
    n = instance.n_agents
    if n * instance.n_bids > MAX_TABLE_CELLS:
        problems.append(f"{n} agents x {instance.n_bids} grid levels exceed the {MAX_TABLE_CELLS}-cell table limit")
    members = set().union(*(s.members for s in instance.scenarios))
    unknown = sorted(m for m in members if not 0 <= m < n)
    if unknown:
        problems.append(f"scenarios reference unknown agents {unknown}")
    total = float(sum(s.prob for s in instance.scenarios))
    if abs(total - 1.0) > PROB_TOL:
        problems.append(f"scenario probabilities sum to {total:.6g}")
    problems.extend(f"agent {a} never participates in any scenario" for a in sorted(set(range(n)) - members))
    return problems


def participation_probabilities(instance: AuctionInstance) -> np.ndarray:
    """Per-agent probability of being selected into the realized scenario."""
    out = np.zeros(instance.n_agents)
    for s in instance.scenarios:
        for m in s.members:
            out[m] += s.prob
    return out


def _probability_rows(weights: np.ndarray, ndim: int) -> np.ndarray:
    """Read-only copy of ``weights`` after checking every row is a probability vector."""
    w = _readonly(weights)
    if w.ndim != ndim or w.size == 0:
        raise ValueError(f"weights must be a non-empty {ndim}-d array, got shape {w.shape}")
    if not np.all(np.isfinite(w)):
        raise ValueError("weights must be finite")
    if np.any(w < 0.0):
        raise ValueError("weights must be non-negative")
    totals = w.sum(axis=-1)
    off = np.abs(totals - 1.0) > PROB_TOL
    if np.any(off):
        raise ValueError(f"weights sum to {float(totals[off].flat[0]):.12g}, expected 1")
    return w


@dataclass(frozen=True, eq=False)
class MixedStrategy:
    """Probability vector over the bid grid."""

    weights: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "weights", _probability_rows(np.atleast_1d(self.weights), 1))


@dataclass(frozen=True, eq=False)
class StrategyProfile:
    """One mixed strategy per agent, all over the same bid grid.

    ``weights`` is a read-only ``(n_agents, n_bids)`` matrix whose rows are
    probability vectors.
    """

    weights: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "weights", _probability_rows(self.weights, 2))

    @property
    def n_agents(self) -> int:
        return int(self.weights.shape[0])

    @property
    def strategies(self) -> tuple[MixedStrategy, ...]:
        """The rows of ``weights`` as per-agent strategies (built on access)."""
        return tuple(MixedStrategy(row) for row in self.weights)

    @classmethod
    def from_matrix(cls, weights: np.ndarray) -> "StrategyProfile":
        """Profile holding a validated read-only copy of ``weights``."""
        return cls(weights)

    @classmethod
    def uniform(cls, n_agents: int, n_bids: int) -> "StrategyProfile":
        return cls.from_matrix(np.full((n_agents, n_bids), 1.0 / n_bids))

    @classmethod
    def point_mass(cls, n_agents: int, n_bids: int, bid_index: int = 0) -> "StrategyProfile":
        w = np.zeros((n_agents, n_bids))
        w[:, bid_index] = 1.0
        return cls.from_matrix(w)


@dataclass(frozen=True, eq=False)
class PlayerAuction:
    """Player-based auction: per-player discrete value sets and a joint table.

    ``joint[t1, ..., tn]`` is the probability that player ``i`` draws the
    value ``value_sets[i][ti]`` for every ``i`` simultaneously.
    """

    value_sets: tuple[np.ndarray, ...]
    joint: np.ndarray

    def __post_init__(self):
        sets = tuple(_readonly(np.atleast_1d(np.asarray(vs, dtype=np.float64))) for vs in self.value_sets)
        if not sets:
            raise ValueError("need at least one player")
        for i, vs in enumerate(sets):
            if vs.size == 0:
                raise ValueError(f"player {i} has an empty value set")
            if not np.all(np.isfinite(vs)):
                raise ValueError(f"player {i} has non-finite values")
            if np.any(vs < 0.0):
                raise ValueError(f"player {i} has negative values")
            if np.any(np.diff(vs) <= 0.0):
                raise ValueError(f"player {i} values must be strictly increasing")
        joint = np.asarray(self.joint, dtype=np.float64)
        if joint.shape != tuple(vs.size for vs in sets):
            raise ValueError(f"joint table shape {joint.shape} does not match value sets")
        if not np.all(np.isfinite(joint)):
            raise ValueError("joint probabilities must be finite")
        if np.any(joint < 0.0):
            raise ValueError("joint probabilities must be non-negative")
        total = float(joint.sum())
        if abs(total - 1.0) > PROB_TOL:
            raise ValueError(f"joint probabilities sum to {total:.12g}, expected 1")
        for i in range(len(sets)):
            axes = tuple(ax for ax in range(len(sets)) if ax != i)
            marginal = joint.sum(axis=axes) if axes else joint
            dead = np.flatnonzero(marginal == 0.0)
            if dead.size:
                # a value that never occurs would convert to an agent that
                # never participates; drop it from the value set instead
                raise ValueError(f"player {i} values at positions {dead.tolist()} have zero probability mass")
        object.__setattr__(self, "value_sets", sets)
        object.__setattr__(self, "joint", _readonly(joint))

    @classmethod
    def independent(cls, value_sets: Sequence[Sequence[float]], marginals: Sequence[Sequence[float]]) -> "PlayerAuction":
        """Build the joint table as the product of per-player marginals."""
        if len(value_sets) != len(marginals):
            raise ValueError("need one marginal per player")
        margs = [np.atleast_1d(np.asarray(m, dtype=np.float64)) for m in marginals]
        for i, (vs, m) in enumerate(zip(value_sets, margs)):
            if len(vs) != m.size:
                raise ValueError(f"player {i}: {len(vs)} values but {m.size} probabilities")
        joint = reduce(np.multiply.outer, margs)
        return cls(tuple(np.asarray(vs, dtype=np.float64) for vs in value_sets), joint)

    @property
    def n_players(self) -> int:
        return len(self.value_sets)


@dataclass(frozen=True, eq=False)
class AgentPartition:
    """Back-references from converted agents to their player; ``blocks[p]`` lists player ``p``'s agents by value."""

    blocks: tuple[tuple[int, ...], ...]
    agent_player: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "agent_player", np.asarray(self.agent_player, dtype=np.intp))

    @property
    def n_players(self) -> int:
        return len(self.blocks)

    @property
    def n_agents(self) -> int:
        return int(self.agent_player.size)


def convert_player_to_agent(auction: PlayerAuction) -> tuple[np.ndarray, tuple[Scenario, ...], AgentPartition]:
    """Expand a player-based auction into agents and participation scenarios.

    Each (player, value) pair becomes one agent; each value profile with
    positive joint probability becomes one scenario selecting exactly one
    agent per player, with the profile's probability. Value profiles with
    zero probability produce no scenario, so the scenario list stays
    proportional to the support of the joint table.

    Returns the agent value vector, the scenario tuple, and the partition
    mapping agents back to players. Attach a grid and payment rule to get a
    full :class:`AuctionInstance`.
    """
    sizes = [vs.size for vs in auction.value_sets]
    offsets = np.concatenate(([0], np.cumsum(sizes)))[:-1]
    values = np.concatenate(auction.value_sets)
    blocks = tuple(tuple(range(int(offsets[i]), int(offsets[i]) + sizes[i])) for i in range(len(sizes)))
    partition = AgentPartition(
        blocks=blocks,
        agent_player=np.repeat(np.arange(len(sizes)), sizes),
    )
    scenarios = []
    for idx in np.ndindex(*auction.joint.shape):
        f = float(auction.joint[idx])
        if f == 0.0:
            continue
        members = frozenset(int(offsets[i]) + int(t) for i, t in enumerate(idx))
        scenarios.append(Scenario(members, f))
    return values, tuple(scenarios), partition


def player_payoff(
    partition: AgentPartition,
    agent_payoffs: np.ndarray,
    participation_probs: np.ndarray,
) -> np.ndarray:
    """Recompose per-player payoffs from participation-conditional agent payoffs.

    ``agent_payoffs[a]`` must be the expected payoff of agent ``a`` conditional
    on participating; weighting by the unconditional participation probability
    and summing over a player's agents gives that player's expected payoff.
    """
    pay = np.asarray(agent_payoffs, dtype=np.float64)
    part = np.asarray(participation_probs, dtype=np.float64)
    n = partition.n_agents
    if pay.shape != (n,) or part.shape != (n,):
        raise ValueError(f"expected one payoff and one participation probability per agent ({n})")
    return np.bincount(partition.agent_player, weights=pay * part, minlength=partition.n_players)
