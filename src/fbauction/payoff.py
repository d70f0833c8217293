"""Exact expected-payoff computations on the bid grid.

The auction clears to the strictly highest bidder in the realized scenario
(ties win nothing) who pays ``alpha * own bid + (1 - alpha) * highest rival
bid``. For an agent ``a`` bidding ``b`` the expected payoff is therefore

    sum over scenarios S containing a of  P(S | a participates) *
        [ (v_a - alpha * b) * P(M < b)  -  (1 - alpha) * E[M ; M < b] ]

where ``M`` is the highest rival bid in ``S`` (rivals draw independently from
their mixed strategies) and ``E[M ; M < b]`` is the expectation restricted to
the winning event. A scenario without rivals always wins and pays
``alpha * b``.

Everything is evaluated in closed form from the rivals' strict CDFs; the
summation order is fixed (scenarios sorted by member tuple, rival products in
ascending agent order) so results are bit-for-bit reproducible.
:func:`brute_force_payoff` enumerates joint bid outcomes directly and exists
to cross-check the vectorized engine.
"""
from __future__ import annotations

import itertools
import weakref
from dataclasses import dataclass

import numpy as np

from .model import AuctionInstance, Scenario, StrategyProfile


@dataclass(frozen=True, eq=False)
class ConditionalScenarioTable:
    """Per agent: the scenarios it joins, reweighted to condition on joining.

    ``entries[a]`` is a tuple of ``(scenario, P(scenario | a participates))``
    pairs, sorted by scenario member tuple.
    """

    entries: tuple[tuple[tuple[Scenario, float], ...], ...]

    def for_agent(self, agent: int) -> tuple[tuple[Scenario, float], ...]:
        return self.entries[agent]


def conditional_scenarios(instance: AuctionInstance) -> ConditionalScenarioTable:
    """Condition the scenario distribution on each agent's own participation."""
    mass = np.zeros(instance.n_agents)
    for s in instance.scenarios:
        for m in s.members:
            if 0 <= m < instance.n_agents:
                mass[m] += s.prob
    dead = np.flatnonzero(mass == 0.0)
    if dead.size:
        raise ValueError(f"agents {dead.tolist()} have zero participation probability")
    rows: list[tuple[tuple[Scenario, float], ...]] = []
    for a in range(instance.n_agents):
        rows.append(tuple((s, s.prob / mass[a]) for s in instance.scenarios if a in s.members))
    return ConditionalScenarioTable(tuple(rows))


class PayoffEngine:
    """Vectorized payoff-curve evaluator bound to one auction instance.

    Precomputes, per agent, the participation-conditional scenario list and
    flat rival-index arrays, so that evaluating every agent's payoff at every
    grid level against a strategy profile is a fixed handful of array
    operations regardless of instance size.

    Agents whose conditional scenario structure is identical (same rival
    sets, same conditional probabilities -- e.g. same-player agents of a
    converted independent-values auction) form one group and share the
    per-scenario aggregation. ``dedup`` is accepted for compatibility and
    ignored: agents are always grouped.

    Instances are immutable, so engines can be cached and shared; ``curves``
    allocates its own scratch space and is safe to call concurrently.
    """

    def __init__(self, instance: AuctionInstance, dedup: bool = True):
        self.instance = instance
        n = instance.n_agents
        bids = instance.grid.bids
        table = conditional_scenarios(instance)

        group_index: dict[tuple, int] = {}
        group_of_agent = np.empty(n, dtype=np.intp)
        for a in range(n):
            key = tuple((tuple(sorted(s.members - {a})), q) for s, q in table.entries[a])
            group_of_agent[a] = group_index.setdefault(key, len(group_index))
        group_items = list(group_index)  # insertion order is group order

        n_groups = len(group_items)
        flat = [(g, rivals, q) for g, items in enumerate(group_items) for rivals, q in items]
        n_items = len(flat)
        max_rivals = max((len(rivals) for _, rivals, _ in flat), default=0)
        # rival slot n points at a constant all-ones row, so padded slots and
        # rival-free scenarios contribute a neutral factor to the products
        member_idx = np.full((n_items, max_rivals), n, dtype=np.intp)
        qmat = np.zeros((n_groups, n_items))
        for i, (g, rivals, q) in enumerate(flat):
            member_idx[i, : len(rivals)] = rivals
            qmat[g, i] = q

        self._n = n
        self._n_bids = bids.size
        self._alpha = instance.rule.alpha
        self._second_price_share = 1.0 - self._alpha
        self._use_mixture = self._alpha < 1.0
        self._bids = bids
        self._member_idx = member_idx
        self._qmat = qmat
        self._group_of_agent = group_of_agent
        self._value_margin = instance.values[:, None] - self._alpha * bids[None, :]
        self.n_groups = n_groups

    def curves(self, weights: np.ndarray) -> np.ndarray:
        """Expected payoff of every agent at every pure bid, given a profile.

        ``weights`` is the (n_agents, n_bids) strategy matrix; returns an
        array of the same shape.
        """
        n, nb = self._n, self._n_bids
        if weights.shape != (n, nb):
            raise ValueError(f"expected a ({n}, {nb}) weight matrix, got {weights.shape}")
        below = np.empty((n + 1, nb + 1))
        below[:n, 0] = 0.0
        np.cumsum(weights, axis=1, out=below[:n, 1:])
        below[n, :] = 1.0

        rival_cdfs = below[self._member_idx]          # (items, max_rivals, nb+1)
        win_below = rival_cdfs.prod(axis=1)           # P(top rival < level), per item
        group_win = self._qmat @ win_below            # conditional mixture, per group

        agent_win = group_win[self._group_of_agent]
        curves = self._value_margin * agent_win[:, :-1]
        if self._use_mixture:
            top_pmf = np.diff(group_win, axis=1)      # P(top rival bids exactly grid[m])
            partial = np.empty_like(top_pmf)
            partial[:, 0] = 0.0
            np.cumsum((top_pmf * self._bids)[:, :-1], axis=1, out=partial[:, 1:])
            curves -= self._second_price_share * partial[self._group_of_agent]
        return curves


_ENGINES: "weakref.WeakKeyDictionary[AuctionInstance, PayoffEngine]" = weakref.WeakKeyDictionary()


def engine_for(instance: AuctionInstance) -> PayoffEngine:
    """Shared per-instance engine (instances are immutable, so this is safe)."""
    engine = _ENGINES.get(instance)
    if engine is None:
        engine = PayoffEngine(instance)
        _ENGINES[instance] = engine
    return engine


def payoff_curve(agent: int, profile: StrategyProfile, instance: AuctionInstance) -> np.ndarray:
    """Expected payoff of ``agent`` at every grid level against ``profile``."""
    return engine_for(instance).curves(profile.weights)[agent]


def all_payoff_curves(profile: StrategyProfile, instance: AuctionInstance) -> np.ndarray:
    """Payoff curves for all agents at once, one row per agent."""
    return engine_for(instance).curves(profile.weights)


def expected_payoff(agent: int, bid_index: int, profile: StrategyProfile, instance: AuctionInstance) -> float:
    """Expected payoff of ``agent`` bidding the pure level ``grid[bid_index]``."""
    if not 0 <= bid_index < instance.n_bids:
        raise IndexError(f"bid index {bid_index} outside grid of {instance.n_bids} levels")
    return float(payoff_curve(agent, profile, instance)[bid_index])


def mixed_payoff(agent: int, profile: StrategyProfile, instance: AuctionInstance) -> float:
    """Expected payoff of ``agent`` playing its own mixed strategy."""
    curve = payoff_curve(agent, profile, instance)
    return float(np.dot(profile.weights[agent], curve))


def brute_force_payoff(
    agent: int,
    bid_index: int,
    profile: StrategyProfile,
    instance: AuctionInstance,
    max_terms: int = 10_000_000,
) -> float:
    """Reference payoff by enumerating every joint rival bid outcome.

    Exponential in the scenario size; guarded at ``max_terms`` enumerated
    outcomes. Only meant as a test oracle for the closed-form engine.
    """
    if not 0 <= bid_index < instance.n_bids:
        raise IndexError(f"bid index {bid_index} outside grid of {instance.n_bids} levels")
    bids = instance.grid.bids
    bid = bids[bid_index]
    value = instance.values[agent]
    alpha = instance.rule.alpha
    table = conditional_scenarios(instance)

    supports = [np.flatnonzero(row) for row in profile.weights]

    total_terms = 0
    for s, _q in table.for_agent(agent):
        rivals = sorted(s.members - {agent})
        count = 1
        for r in rivals:
            count *= max(1, supports[r].size)
        total_terms += count
    if total_terms > max_terms:
        raise ValueError(f"enumeration of {total_terms} outcomes exceeds the {max_terms} guard")

    total = 0.0
    for s, q in table.for_agent(agent):
        rivals = sorted(s.members - {agent})
        if not rivals:
            total += q * (value - alpha * bid)
            continue
        for combo in itertools.product(*(supports[r] for r in rivals)):
            weight = 1.0
            for r, j in zip(rivals, combo):
                weight *= profile.weights[r, j]
            top_rival = max(bids[j] for j in combo)
            if bid > top_rival:
                total += q * weight * (value - alpha * bid - (1.0 - alpha) * top_rival)
            # ties and losses pay and win nothing
    return total
