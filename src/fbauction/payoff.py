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

Everything is evaluated in closed form from the rivals' strict CDFs,
``P(M < b)`` once per distinct rival set, so :meth:`PayoffEngine.curves`
takes a profile as its strict-CDF table: the solver carries that table from
iteration to iteration, other callers build it with ``cdf_table``. The
matrix product that mixes the rival sets sums in an order the BLAS library
picks; the tests check the same CSV bytes with 1 and 2 BLAS threads on one
machine, not across BLAS builds.
:func:`brute_force_payoff` enumerates joint bid outcomes directly and exists
to cross-check the vectorized engine.
"""
from __future__ import annotations

import itertools
import weakref
from dataclasses import dataclass

import numpy as np

from .model import AuctionInstance, Scenario, StrategyProfile, participation_probabilities


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
    mass = participation_probabilities(instance)
    dead = np.flatnonzero(mass == 0.0)
    if dead.size:
        raise ValueError(f"agents {dead.tolist()} have zero participation probability")
    rows: list[tuple[tuple[Scenario, float], ...]] = []
    for a in range(instance.n_agents):
        rows.append(tuple((s, s.prob / mass[a]) for s in instance.scenarios if a in s.members))
    return ConditionalScenarioTable(tuple(rows))


class PayoffEngine:
    """Vectorized payoff-curve evaluator bound to one auction instance.

    Agents with identical conditional scenario structure (same rival sets,
    same conditional probabilities -- e.g. same-player agents of a converted
    independent-values auction) form one group. Each column of the
    aggregation matrix ``qmat`` is one distinct rival set, numbered by first
    appearance, and ``qmat[g, set]`` is group ``g``'s conditional probability
    of facing it: ``curves`` multiplies the rivals' strict CDFs once per set
    and mixes the sets into the groups with one matrix product. When no
    scenario has more than one rival the sets are the CDF rows themselves
    (column ``n_agents`` is the all-ones row of a rival-free scenario), and
    nothing is gathered or multiplied. ``dedup`` is accepted for
    compatibility and ignored: agents are always grouped.

    ``curves`` takes the profile as its strict-CDF table (layout in
    :meth:`cdf_table`), whose row differences are the strategy weights.

    The engine holds its instance weakly, so the :func:`engine_for` cache
    keeps no instance alive. ``curves`` allocates its own scratch space and
    is safe to call concurrently.
    """

    def __init__(self, instance: AuctionInstance, dedup: bool = True):
        self._instance = weakref.ref(instance)
        n = instance.n_agents
        bids = instance.grid.bids
        table = conditional_scenarios(instance)

        group_index: dict[tuple, int] = {}
        group_of_agent = np.empty(n, dtype=np.intp)
        for a in range(n):
            key = tuple((tuple(sorted(s.members - {a})), q) for s, q in table.entries[a])
            group_of_agent[a] = group_index.setdefault(key, len(group_index))
        group_items = list(group_index)  # insertion order is group order

        column: dict[tuple[int, ...], int] = {}  # rival set -> column, by first appearance
        for items in group_items:
            for rivals, _q in items:
                column.setdefault(rivals, len(column))
        max_rivals = max(map(len, column), default=0)
        if max_rivals <= 1:
            set_members = None
            column = {rivals: rivals[0] if rivals else n for rivals in column}
            n_columns = n + 1
        else:
            # rival slot n points at the all-ones row, so padded slots and
            # rival-free scenarios contribute a neutral factor to the products
            set_members = np.full((len(column), max_rivals), n, dtype=np.intp)
            for rivals, col in column.items():
                set_members[col, : len(rivals)] = rivals
            n_columns = len(column)
        qmat = np.zeros((len(group_items), n_columns))
        for g, items in enumerate(group_items):
            for rivals, q in items:
                qmat[g, column[rivals]] = q

        self._n = n
        self._n_bids = bids.size
        self._alpha = instance.rule.alpha
        self._second_price_share = 1.0 - self._alpha
        self._use_mixture = self._alpha < 1.0
        self._bids = bids
        self._set_members = set_members
        self._qmat = qmat
        self._group_of_agent = group_of_agent
        self._value_margin = instance.values[:, None] - self._alpha * bids[None, :]
        self.n_groups = len(group_items)

    @property
    def instance(self) -> AuctionInstance | None:
        """The instance this engine evaluates, or None once it has been freed."""
        return self._instance()

    def cdf_table(self, weights: np.ndarray) -> np.ndarray:
        """The strict-CDF table of a strategy matrix, the input of :meth:`curves`.

        ``weights`` is the (n_agents, n_bids) strategy matrix. Row ``a`` of the
        (n_agents + 1, n_bids + 1) result holds ``P(agent a bids below level
        j)`` for ``j = 0..n_bids``; the last row is all ones, an absent rival.
        """
        n, nb = self._n, self._n_bids
        if weights.shape != (n, nb):
            raise ValueError(f"expected a ({n}, {nb}) weight matrix, got {weights.shape}")
        below = np.empty((n + 1, nb + 1))
        below[:n, 0] = 0.0
        np.cumsum(weights, axis=1, out=below[:n, 1:])
        below[n, :] = 1.0
        return below

    def curves(self, below: np.ndarray) -> np.ndarray:
        """Expected payoff of every agent at every pure bid, given a profile.

        ``below`` is the profile's strict-CDF table (see :meth:`cdf_table`);
        returns an (n_agents, n_bids) array.
        """
        if below.shape != (self._n + 1, self._n_bids + 1):
            raise ValueError(f"expected a ({self._n + 1}, {self._n_bids + 1}) CDF table, got {below.shape}")
        if self._set_members is None:
            set_win = below                           # one rival: its CDF row is the set's
        else:
            set_win = below[self._set_members].prod(axis=1)  # P(top rival < level), per set
        group_win = self._qmat @ set_win              # conditional mixture, per group

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


def all_payoff_curves(profile: StrategyProfile, instance: AuctionInstance) -> np.ndarray:
    """Every agent's expected payoff at every grid level: ``[a, j]`` is agent ``a`` bidding ``grid[j]``."""
    engine = engine_for(instance)
    return engine.curves(engine.cdf_table(profile.weights))


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
