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
``P(M < b)`` once per distinct rival set, or once per player when the
scenario distribution is a product over independent players, so
:meth:`PayoffEngine.curves` takes a profile as its strict-CDF table: the
solver carries that table from iteration to iteration, other callers build
it with ``cdf_table``. The matrix products that mix the rival sets (and the
players' agents) sum in an order the BLAS library picks; the tests check the
same CSV bytes with 1 and 2 BLAS threads on one machine, not across BLAS
builds.
"""
from __future__ import annotations

import math
import weakref

import numpy as np

from .model import (AuctionInstance, InvalidInstanceError, Scenario, StrategyProfile, _table_problem,
                    participation_probabilities)


class ConditionalScenarioTable(tuple):
    """Per agent: the scenarios it joins, reweighted to condition on joining.

    ``table[a]`` is a tuple of ``(scenario, P(scenario | a participates))``
    pairs, sorted by scenario member tuple. ``for_agent`` is an alias of
    indexing that ``perfbench`` still calls.
    """

    for_agent = tuple.__getitem__


def conditional_scenarios(instance: AuctionInstance) -> ConditionalScenarioTable:
    """Condition the scenario distribution on each agent's own participation."""
    mass = participation_probabilities(instance)
    rows: list[list[tuple[Scenario, float]]] = [[] for _ in range(instance.n_agents)]
    for s in instance.scenarios:  # one pass, so each row keeps the scenario order
        for a in s.members:
            rows[a].append((s, s.prob / mass[a]))
    return ConditionalScenarioTable(map(tuple, rows))


def _player_labels(instance: AuctionInstance, mass: np.ndarray) -> np.ndarray | None:
    """Each agent's player when the scenario distribution is a product over players, else None.

    The distribution is such a product when every scenario holds P agents,
    one from each of P classes that never share a scenario; the scenarios
    number the product of the class sizes, so every combination occurs once;
    and every probability equals the product of its members' participation
    probabilities ``mass`` to a relative ``P * (S + 2P)`` machine epsilons,
    S the scenario count. That is the rounding of the P-fold product and of
    a participation probability, a sum of at most S products of P factors;
    a correlated joint differs by far more. The players are numbered as the
    first scenario's members.
    """
    size = len(instance.scenarios[0].members)
    if any(len(s.members) != size for s in instance.scenarios):
        return None
    members = np.array([sorted(s.members) for s in instance.scenarios])
    # the players, read off the first scenario: a scenario that differs from
    # it in one agent swaps in another agent of the same player, and in a
    # product every agent outside the first scenario is swapped in once
    first = members[0]
    inside = np.isin(members, first)
    near = inside.sum(axis=1) == size - 1
    position = np.searchsorted(first, members[near])  # position in the first scenario, for the shared agents
    swapped_out = size * (size - 1) // 2 - (position * inside[near]).sum(axis=1)
    swapped_in = members[near][~inside[near]]
    labels = np.full(instance.n_agents, -1)
    labels[first] = np.arange(size)
    labels[swapped_in] = swapped_out
    if (swapped_in.size != instance.n_agents - size
            or labels.min() < 0
            or not (np.sort(labels[members], axis=1) == np.arange(size)).all()
            or math.prod(np.bincount(labels).tolist()) != len(instance.scenarios)):
        return None
    probs = np.array([s.prob for s in instance.scenarios])
    product = mass[members].prod(axis=1)
    if not (np.abs(probs - product) <= size * (probs.size + 2 * size) * np.finfo(float).eps * product).all():
        return None
    return labels


class PayoffEngine:
    """Vectorized payoff-curve evaluator bound to one auction instance.

    Each column of the aggregation matrix ``qmat`` is one distinct rival
    set, numbered by first appearance, and ``qmat[a, set]`` is agent ``a``'s
    conditional probability of facing it: ``curves`` multiplies the rivals'
    strict CDFs once per set and mixes the sets into the agents with one
    matrix product. When no scenario has more than one rival the sets are
    the CDF rows themselves (column ``n_agents`` is the all-ones row of a
    rival-free scenario), and nothing is gathered or multiplied.

    When some scenario has two or more rivals and the scenario distribution
    is a product over players (see :func:`_player_labels`), the columns are
    the players instead: ``curves`` first mixes each player's agents' CDFs,
    weighted by their participation probabilities normalized within the
    player, into ``P(player bids below b)``, multiplies the other players'
    mixtures per player, and ``qmat[a, p]`` is 1 when agent ``a`` is player
    ``p``'s. That avoids one column per combination of the other players'
    values; every other instance keeps its rival sets.

    ``n_groups`` counts the distinct conditional structures (rival sets and
    their probabilities) among the agents; ``dedup`` is accepted for
    compatibility and ignored. A ``qmat`` or workspace block (2 x rival sets
    x levels, or 3 x players x levels) above the table limit raises
    :class:`InvalidInstanceError`.

    ``curves`` takes the profile as its strict-CDF table (layout in
    :meth:`cdf_table`), whose row differences are the strategy weights.

    ``curves`` writes into a :meth:`workspace` that the caller owns and
    returns the workspace's ``curves`` buffer, so an array it returned is
    overwritten by the next call on the same workspace; without one it makes
    a fresh workspace per call. Calls are safe concurrently when each caller
    uses its own workspace or none.

    The engine holds its instance weakly, so the :func:`engine_for` cache
    keeps no instance alive.
    """

    def __init__(self, instance: AuctionInstance, dedup: bool = True):
        self._instance = weakref.ref(instance)
        n = instance.n_agents
        bids = instance.grid.bids
        mass = participation_probabilities(instance)
        rows = [tuple((tuple(sorted(s.members - {a})), q) for s, q in items)
                for a, items in enumerate(conditional_scenarios(instance))]
        labels = _player_labels(instance, mass) if max(len(s.members) for s in instance.scenarios) > 2 else None
        mixing = None
        if labels is not None:
            # the columns are the players: slot j of player p is p's j-th other player
            n_columns, name = int(labels.max()) + 1, "players"
            others = [[q for q in range(n_columns) if q != p] for p in range(n_columns)]
            slots: tuple[np.ndarray, ...] = tuple(np.array(slot, dtype=np.intp) for slot in zip(*others))
            mixing = np.zeros((n_columns, n + 1))
            mixing[labels, np.arange(n)] = mass / np.bincount(labels, weights=mass)[labels]
        else:
            name = "rival sets"
            column: dict[tuple[int, ...], int] = {}  # rival set -> column, by first appearance
            for items in rows:
                for rivals, _q in items:
                    column.setdefault(rivals, len(column))
            max_rivals = max(map(len, column), default=0)
            if max_rivals <= 1:
                slots = ()
                column = {rivals: rivals[0] if rivals else n for rivals in column}
                n_columns = n + 1
            else:
                # rival slot n points at the all-ones row, so padded slots and
                # rival-free scenarios contribute a neutral factor to the products
                padded = [rivals + (n,) * (max_rivals - len(rivals)) for rivals in column]  # in column order
                slots = tuple(np.array(slot, dtype=np.intp) for slot in zip(*padded))
                n_columns = len(column)
        problem = _table_problem((n, "agents"), (n_columns, name))
        if slots and not problem:  # the workspace's one block of products, gathered rows and mixtures
            problem = _table_problem((2 if mixing is None else 3, "product buffers"), (n_columns, name),
                                     (bids.size + 1, "levels"))
        if problem:
            raise InvalidInstanceError([problem])
        qmat = np.zeros((n, n_columns))
        if labels is not None:
            qmat[np.arange(n), labels] = 1.0
        else:
            for a, items in enumerate(rows):
                for rivals, q in items:
                    qmat[a, column[rivals]] = q

        self._n = n
        self._n_bids = bids.size
        self._alpha = instance.rule.alpha
        self._second_price_share = 1.0 - self._alpha
        self._use_mixture = self._alpha < 1.0
        self._bids = bids
        self._slots = slots
        self._mixing = mixing
        self._qmat = qmat
        self._value_margin = instance.values[:, None] - self._alpha * bids[None, :]
        self.n_groups = len(set(rows))

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

    def workspace(self) -> dict[str, np.ndarray]:
        """Fresh output buffers for :meth:`curves`, which overwrites them on every call.

        ``win`` is (n_agents, n_bids + 1) and ``curves`` (n_agents, n_bids);
        ``sets`` and ``gathered``, (rival sets, n_bids + 1), exist only when
        some scenario has two or more rivals. On instances that factor into
        players they are (players, n_bids + 1), and so is ``mixed``.
        """
        n, levels = self._n, self._n_bids + 1
        work = {"win": np.empty((n, levels)), "curves": np.empty((n, levels - 1))}
        if self._slots:
            # one block: freeing two equal blocks trips glibc's adaptive trim
            # threshold, so a fresh workspace per call faulted its pages in
            # anew every time, which made certify 2.5x slower at 500 rival sets
            names = ("sets", "gathered") if self._mixing is None else ("sets", "gathered", "mixed")
            work.update(zip(names, np.empty((len(names), self._slots[0].size, levels))))
        return work

    def curves(self, below: np.ndarray, work: dict[str, np.ndarray] | None = None) -> np.ndarray:
        """Expected payoff of every agent at every pure bid, given a profile.

        ``below`` is the profile's strict-CDF table (see :meth:`cdf_table`);
        returns an (n_agents, n_bids) array: the ``curves`` buffer of
        ``work``, or of a fresh :meth:`workspace` when ``work`` is None.
        """
        if below.shape != (self._n + 1, self._n_bids + 1):
            raise ValueError(f"expected a ({self._n + 1}, {self._n_bids + 1}) CDF table, got {below.shape}")
        if work is None:
            work = self.workspace()
        if not self._slots:
            set_win = below                           # one rival: its CDF row is the set's
        else:
            factors = below
            if self._mixing is not None:              # P(player bids below level), per player
                factors = np.matmul(self._mixing, below, out=work["mixed"])
            # P(top rival < level), per set: multiplied slot by slot, the order
            # of prod(axis=1); mode="clip" lets take write into out unbuffered
            set_win, gathered = work["sets"], work["gathered"]
            np.take(factors, self._slots[0], axis=0, out=set_win, mode="clip")
            for slot in self._slots[1:]:
                np.take(factors, slot, axis=0, out=gathered, mode="clip")
                set_win *= gathered
        win = np.matmul(self._qmat, set_win, out=work["win"])  # conditional mixture, per agent
        curves = np.multiply(self._value_margin, win[:, :-1], out=work["curves"])
        if self._use_mixture:
            top_pmf = np.diff(win, axis=1)            # P(top rival bids exactly grid[m])
            partial = np.empty_like(top_pmf)
            partial[:, 0] = 0.0
            np.cumsum((top_pmf * self._bids)[:, :-1], axis=1, out=partial[:, 1:])
            curves -= self._second_price_share * partial
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

