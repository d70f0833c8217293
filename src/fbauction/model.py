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

import math
import sys
from dataclasses import dataclass
from functools import reduce
from typing import Sequence

import numpy as np

PROB_TOL = 1e-9

# Largest table an instance may need, in float64 cells (8 bytes each, so
# 80 MB at the limit). _table_problem is its one reader.
MAX_TABLE_CELLS = 10_000_000


def _exact_int(x, what: str) -> int:
    """``int(x)``, or ``ValueError`` when ``x`` is a bool or not a whole number (no silent truncation)."""
    if type(x) is int:  # the common case; a bool's type is bool
        return x
    try:
        if int(x) == x and not isinstance(x, (bool, np.bool_)):
            return int(x)
    except (OverflowError, ValueError):  # infinity, NaN, or a string that is no integer
        pass
    raise ValueError(f"{what} must be an integer, got {x!r}")


def _table_problem(*dims: tuple[int, str]) -> str | None:
    """Why a table of ``(size, name)`` dimensions is too large to allocate, or None when it fits."""
    if math.prod(size for size, _name in dims) > MAX_TABLE_CELLS:
        return " x ".join(f"{size} {name}" for size, name in dims) + f" exceed the {MAX_TABLE_CELLS}-cell table limit"
    return None


def _number(x, what: str):
    """``x``, or ``ValueError`` naming ``what`` unless it is an int or a float (a bool, read as 0 or 1, is not).

    A Python int beyond the float range is refused too: numpy would raise ``OverflowError`` converting it.
    """
    if type(x) is float:  # the common case, e.g. once per Scenario
        return x
    if isinstance(x, (int, float, np.integer, np.floating)) and not isinstance(x, bool):
        if isinstance(x, int) and abs(x) > sys.float_info.max:
            raise ValueError(f"{what} must be a number in the float range, got an integer of {x.bit_length()} bits")
        return x
    raise ValueError(f"{what} must be a number, got {x!r}")


def _numbers(x, what: str) -> np.ndarray:
    """``x`` as a float64 array, after :func:`_number` has passed every entry of the nested lists or array ``x``.

    Nested lists of unequal length raise ``ValueError`` naming ``what``.
    """

    def walk(items, where: str) -> None:
        if isinstance(items, (list, tuple)):
            for i, item in enumerate(items):
                walk(item, f"{where}[{i}]")
        else:
            _number(items, where)

    if not (isinstance(x, np.ndarray) and x.dtype.kind in "iuf"):  # the common case; bool and string arrays walk
        walk(x.tolist() if isinstance(x, np.ndarray) else x, what)
    try:
        return np.asarray(x, dtype=np.float64)
    except ValueError:  # numpy's text for nested lists of unequal length names no field
        raise ValueError(f"{what} must be a table whose rows have equal lengths") from None


def _levels(x: np.ndarray, what: str) -> np.ndarray:
    """Read-only copy of the vector ``x`` after checking it is finite and strictly increasing."""
    if not np.all(np.isfinite(x)):
        raise ValueError(f"{what} must be finite")
    if np.any(np.diff(x) <= 0.0):
        raise ValueError(f"{what} must be strictly increasing")
    return _readonly(x)


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
        bids = np.atleast_1d(_numbers(self.bids, "bid levels"))
        if bids.ndim != 1 or bids.size < 2:
            raise ValueError("bid grid needs at least two levels")
        if bids[0] != 0.0:
            raise ValueError("bid grid must start at 0")
        object.__setattr__(self, "bids", _levels(bids, "bid levels"))

    @classmethod
    def uniform(cls, max_bid: float, steps: int) -> "BidGrid":
        """Evenly spaced grid ``[0, max_bid/steps, ..., max_bid]``."""
        steps = _exact_int(steps, "steps")
        if steps < 1:
            raise ValueError("steps must be >= 1")
        if problem := _table_problem((steps + 1, "grid levels")):
            raise ValueError(problem)
        if not 0.0 < _number(max_bid, "max_bid") < np.inf:
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
        given = self.members if isinstance(self.members, (set, frozenset)) else tuple(self.members)
        members = frozenset(_exact_int(m, "scenario member") for m in given)
        if not members:
            raise ValueError("scenario needs at least one member")
        if len(members) < len(given):  # a set cannot hold a repeat
            raise ValueError(f"scenario members {[int(m) for m in given]} repeat an agent")
        if not 0.0 <= _number(self.prob, "scenario probability") <= 1.0:
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
        if not 0.0 <= _number(self.alpha, "alpha") <= 1.0:
            raise ValueError(f"alpha {self.alpha} outside [0, 1]")
        object.__setattr__(self, "alpha", float(self.alpha))


FIRST_PRICE = PaymentRule(1.0)


@dataclass(frozen=True, eq=False)
class AuctionInstance:
    """Agent-based auction: values, participation scenarios, grid, payment rule.

    Scenarios are canonicalized on construction: entries with identical member
    sets are merged by summing probability, zero-probability entries are
    dropped, and the remainder is sorted by member tuple. A :class:`Scenario`
    whose member set occurs once is kept as given. The canonical
    instance is then checked by :func:`validate_instance`, and any problem
    raises :class:`InvalidInstanceError`, so every instance is usable.
    """

    values: np.ndarray
    scenarios: tuple[Scenario, ...]
    grid: BidGrid
    rule: PaymentRule = FIRST_PRICE

    def __post_init__(self):
        values = np.atleast_1d(_numbers(self.values, "values"))
        if values.ndim != 1 or values.size == 0:
            raise ValueError("values must be a non-empty 1-d vector")
        object.__setattr__(self, "values", _readonly(values))
        merged: dict[frozenset[int], float] = {}
        given: dict[frozenset[int], Scenario | None] = {}  # the Scenario to keep, when its member set occurs once
        for s in self.scenarios:
            merged[s.members] = merged.get(s.members, 0.0) + s.prob
            given[s.members] = None if s.members in given or not isinstance(s, Scenario) else s
        canon = tuple(
            given[members] or Scenario(members, prob)
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
    if problem := _table_problem((n, "agents"), (instance.n_bids, "grid levels")):
        problems.append(problem)
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


def _probability_rows(weights: np.ndarray, ndim: int, what: str = "weights") -> np.ndarray:
    """Read-only copy of ``weights`` after checking every row is a probability vector."""
    w = _readonly(weights)
    if w.ndim != ndim or w.size == 0:
        raise ValueError(f"{what} must be a non-empty {ndim}-d array, got shape {w.shape}")
    if not np.all(np.isfinite(w)):
        raise ValueError(f"{what} must be finite")
    if np.any(w < 0.0):
        raise ValueError(f"{what} must be non-negative")
    totals = w.sum(axis=-1)
    off = np.abs(totals - 1.0) > PROB_TOL
    if np.any(off):
        raise ValueError(f"{what} sum to {float(totals[off].flat[0]):.12g}, expected 1")
    return w


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
    def strategies(self) -> tuple[np.ndarray, ...]:
        """The read-only rows of ``weights``, one per agent."""
        return tuple(self.weights)

    @classmethod
    def from_matrix(cls, weights: np.ndarray) -> "StrategyProfile":
        """Profile holding a validated read-only copy of ``weights``."""
        return cls(weights)

    @classmethod
    def uniform(cls, n_agents: int, n_bids: int) -> "StrategyProfile":
        return cls.from_matrix(np.full((n_agents, n_bids), 1.0 / n_bids))


@dataclass(frozen=True, eq=False)
class PlayerAuction:
    """Player-based auction: per-player discrete value sets and a joint table.

    ``joint[t1, ..., tn]`` is the probability that player ``i`` draws the
    value ``value_sets[i][ti]`` for every ``i`` simultaneously.
    """

    value_sets: tuple[np.ndarray, ...]
    joint: np.ndarray

    def __post_init__(self):
        sets = []
        for i, vs in enumerate(self.value_sets):
            vs = np.atleast_1d(_numbers(vs, f"player {i} values"))
            if vs.size == 0:
                raise ValueError(f"player {i} has an empty value set")
            if np.any(vs < 0.0):
                raise ValueError(f"player {i} has negative values")
            sets.append(_levels(vs, f"player {i} values"))
        if not sets:
            raise ValueError("need at least one player")
        joint = _numbers(self.joint, "joint")
        if joint.shape != tuple(vs.size for vs in sets):
            raise ValueError(f"joint table shape {joint.shape} does not match value sets")
        joint = _probability_rows(joint.ravel(), 1, "joint probabilities").reshape(joint.shape)
        for i in range(len(sets)):
            axes = tuple(ax for ax in range(len(sets)) if ax != i)
            marginal = joint.sum(axis=axes) if axes else joint
            dead = np.flatnonzero(marginal == 0.0)
            if dead.size:
                # a value that never occurs would convert to an agent that
                # never participates; drop it from the value set instead
                raise ValueError(f"player {i} values at positions {dead.tolist()} have zero probability mass")
        object.__setattr__(self, "value_sets", tuple(sets))
        object.__setattr__(self, "joint", joint)

    @classmethod
    def independent(cls, value_sets: Sequence[Sequence[float]], marginals: Sequence[Sequence[float]]) -> PlayerAuction:
        """Build the joint table as the product of per-player marginals."""
        if len(value_sets) != len(marginals):
            raise ValueError("need one marginal per player")
        margs = [np.atleast_1d(_numbers(m, f"player {i} probabilities")) for i, m in enumerate(marginals)]
        for i, (vs, m) in enumerate(zip(value_sets, margs)):
            if len(vs) != m.size:
                raise ValueError(f"player {i}: {len(vs)} values but {m.size} probabilities")
        # the conversion writes one member per player for every value profile
        if problem := _table_problem((math.prod(m.size for m in margs), "value profiles"), (len(margs), "players")):
            raise ValueError(problem)
        joint = reduce(np.multiply.outer, margs) if margs else None  # no players: the constructor refuses them first
        return cls(tuple(value_sets), joint)


def convert_player_to_agent(auction: PlayerAuction) -> tuple[np.ndarray, tuple[Scenario, ...], np.ndarray]:
    """Expand a player-based auction into agents and participation scenarios.

    Each (player, value) pair becomes one agent, player by player and value by
    value; each value profile with positive joint probability becomes one
    scenario selecting exactly one agent per player, with the profile's
    probability, in the C order of the joint table. Value profiles with zero
    probability produce no scenario, so the scenario list stays proportional
    to the support of the joint table.

    Returns the agent value vector, the scenario tuple, and the partition: an
    integer vector whose entry ``partition[a]`` is agent ``a``'s player,
    read-only like the instance's arrays. Attach a grid and payment rule to
    get a full :class:`AuctionInstance`.
    """
    sizes = [vs.size for vs in auction.value_sets]
    offsets = np.cumsum([0, *sizes[:-1]])
    support = auction.joint != 0.0
    members = (np.argwhere(support) + offsets).tolist()
    scenarios = tuple(Scenario(frozenset(m), f) for m, f in zip(members, auction.joint[support].tolist()))
    partition = np.repeat(np.arange(len(sizes)), sizes)
    partition.setflags(write=False)
    return np.concatenate(auction.value_sets), scenarios, partition


def player_payoff(
    partition: np.ndarray,
    agent_payoffs: np.ndarray,
    participation_probs: np.ndarray,
) -> np.ndarray:
    """Recompose per-player payoffs from participation-conditional agent payoffs.

    ``partition[a]`` is agent ``a``'s player, as :func:`convert_player_to_agent`
    returns it. ``agent_payoffs[a]`` must be the expected payoff of agent ``a``
    conditional on participating; weighting by the unconditional participation
    probability and summing over a player's agents gives that player's
    expected payoff.
    """
    pay = np.asarray(agent_payoffs, dtype=np.float64)
    part = np.asarray(participation_probs, dtype=np.float64)
    n = len(partition)
    if pay.shape != (n,) or part.shape != (n,):
        raise ValueError(f"expected one payoff and one participation probability per agent ({n})")
    # every player has at least one agent, so the count runs to the last player
    return np.bincount(partition, weights=pay * part)
