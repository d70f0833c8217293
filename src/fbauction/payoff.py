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
it with ``cdf_table``. The dense matrix products that mix the rival sets
into the agents (and the players' agents into players) sum in an order the
BLAS library picks; the tests check the same CSV bytes with 1 and 2 BLAS
threads on one machine, not across BLAS builds. Where the engine sums each
agent's few rival sets itself (the slot sum, on sparse instances), it adds
them in ascending column order with elementwise ufuncs, the same order on
every build.
"""
from __future__ import annotations

import weakref

import numpy as np

from .model import (AuctionInstance, InvalidInstanceError, Scenario, StrategyProfile, _table_problem,
                    participation_probabilities)


# The slot sum beats the dense BLAS product below SLOT_SUM_DENSITY of nonzero
# cells in the agents x columns aggregation matrix: the crossover measured with
# BLAS at 1 thread on a 2-core Xeon. It builds no table beyond its workspace,
# so it also serves wherever that matrix would exceed the table limit
SLOT_SUM_DENSITY = 1 / 32


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


def _player_labels(instance: AuctionInstance, mass: np.ndarray, rivals: list[frozenset]) -> np.ndarray | None:
    """Each agent's player when the scenario distribution is a product over players, else None.

    ``rivals[a]`` is the set of rival sets agent ``a`` faces. A player's
    agents all face the same ones, so the agents are grouped by them, the
    groups numbered by first agent. Two agents of one group never share a
    scenario (each would be in a rival set of the other), and swapping one
    for the other in a scenario gives a scenario; so with P groups and P
    members in every scenario, every combination of one agent per group
    occurs. It is a product when each probability also equals the product
    of its members' participation probabilities ``mass`` to a relative
    ``P * (S + 2P)`` machine epsilons, S scenarios: the rounding of that
    product and of ``mass``, a sum of at most S such products; a correlated
    joint differs by far more.
    """
    group: dict[frozenset, int] = {}
    labels = np.array([group.setdefault(faced, len(group)) for faced in rivals])
    size = len(group)
    if any(len(s.members) != size for s in instance.scenarios):
        return None
    members = np.array([sorted(s.members) for s in instance.scenarios])
    probs = np.array([s.prob for s in instance.scenarios])
    product = mass[members].prod(axis=1)
    if not (np.abs(probs - product) <= size * (probs.size + 2 * size) * np.finfo(float).eps * product).all():
        return None
    return labels


def _sorted_entries(entries: list[tuple[int, int, float]]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The nonzero ``(agent, column, weight)`` entries as three arrays, by agent, each agent's columns ascending."""
    agent, col, weight = map(np.array, zip(*entries))
    by_agent = np.lexsort((col, agent))
    return agent[by_agent], col[by_agent], weight[by_agent]


def _slot_sum_plan(n: int, agent: np.ndarray, col: np.ndarray, weight: np.ndarray):
    """The slot sum's layout of the :func:`_sorted_entries`.

    The agents are ranked by their entry count, descending and stable. Slot
    ``s`` holds the ``s``-th column (ascending) of every agent with more than
    ``s`` entries, in rank order, so it covers a prefix of the ranking.
    Returns one ``(columns, weights)`` pair per slot, the weights a
    ``(size, 1)`` column that broadcasts over the levels: each product is
    the same elementwise multiply as against a row of repeated weights, so
    the bits are too, and no nonzeros x levels table is built. Also each
    agent's rank, its row in slot 0.
    """
    counts = np.bincount(agent, minlength=n)
    rank = np.empty(n, dtype=np.intp)
    rank[np.argsort(-counts, kind="stable")] = np.arange(n)
    slot = np.arange(agent.size) - (np.cumsum(counts) - counts)[agent]
    layout = np.lexsort((rank[agent], slot))  # slot by slot, each in rank order
    columns, weight = col[layout].astype(np.intp), weight[layout]
    sizes = np.bincount(slot)
    slots = tuple((columns[start:start + size], weight[start:start + size, None])
                  for start, size in zip((np.cumsum(sizes) - sizes).tolist(), sizes.tolist()))
    return slots, rank


def _pure_plan(n: int, agent: np.ndarray, column: np.ndarray, weight: np.ndarray, bids: np.ndarray):
    """The layout :meth:`PayoffEngine.step_curves` and :meth:`PayoffEngine.facing`
    read, from the :func:`_sorted_entries` of a one-rival instance.

    By agent: each agent's ``count`` entries from ``start``, with their
    ``column`` (a rival, or ``n`` for none) and ``weight``. By column: the
    ``faced_count`` agents from ``faced_start`` in ``faced_by`` that face
    each column, ascending. Then ``price``: at each level ``l`` the bid
    ``l - 1``, and 0 at level 0, where no rival pays.
    """
    count, faced_count = np.bincount(agent, minlength=n), np.bincount(column, minlength=n + 1)
    return (count.cumsum() - count, count, column, weight, faced_count.cumsum() - faced_count, faced_count,
            agent[np.argsort(column, kind="stable")], np.append(0.0, bids))


def _ranges(start: np.ndarray, size: np.ndarray) -> np.ndarray:
    """The indices ``start[k] .. start[k] + size[k] - 1`` of every key ``k``, concatenated in key order."""
    return np.repeat(start - size.cumsum() + size, size) + np.arange(size.sum())


class PayoffEngine:
    """Vectorized payoff-curve evaluator bound to one auction instance.

    Each column of the aggregation matrix ``qmat`` multiplies the factor
    rows one key names, the keys numbered by first appearance, and
    ``curves`` mixes the columns into the agents with one matrix product.
    In general the rows are the strict CDFs, a key is a rival set, and
    ``qmat[a, set]`` is agent ``a``'s conditional probability of facing it.
    When no key has two members the columns are the CDF rows themselves
    (column ``n_agents`` is the all-ones row of a rival-free scenario), and
    nothing is gathered or multiplied.

    When few of ``qmat``'s cells would be nonzero, as in a large auction
    where each agent meets a few rivals, ``qmat`` is not built (``_qmat`` is
    None) and ``curves`` sums each agent's nonzero terms itself, the *slot
    sum*: the agents ranked by their term count, slot ``s`` holds every
    agent's ``s``-th column (see :func:`_slot_sum_plan`), and each slot's
    weighted rows are gathered and added onto the prefix of slot 0 they
    cover. Each agent's terms are thus summed in ascending column order,
    with no BLAS. "Few" is below ``SLOT_SUM_DENSITY`` of the cells; denser
    matrices take the matrix product, which was the faster of the two there,
    unless ``qmat`` would exceed the table limit: the slot sum builds no
    table beyond its workspace, so it serves there too.

    When some scenario has two or more rivals and the scenario distribution
    is a product over players (see :func:`_player_labels`), the rows are
    the players': ``curves`` mixes each player's agents' CDFs, weighted by
    their participation probabilities normalized within the player, into
    ``P(player bids below b)``; player ``p``'s key is the other players, and
    ``qmat[a, p]`` is 1 when agent ``a`` is ``p``'s. That avoids one column
    per combination of the other players' values.

    ``n_groups`` counts the distinct conditional structures (rival sets and
    their probabilities) among the agents; ``dedup`` is accepted for
    compatibility and ignored. When a workspace block of products (2 x
    rival sets x levels, or 3 x players x levels) exceeds the table limit,
    the engine raises :class:`InvalidInstanceError`; it refuses nothing
    else, and never an instance with one rival at most per scenario.

    ``curves`` takes the profile as its strict-CDF table (layout in
    :meth:`cdf_table`), whose row differences are the strategy weights.
    Where no scenario has two or more rivals (:attr:`affine`) and the engine
    takes the slot sum, :meth:`step_curves` gives the curves against a pure
    profile for a subset of the agents, and :meth:`facing` names the agents
    whose curves depend on a given agent's bid.

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
        labels = mixing = None
        if max(len(s.members) for s in instance.scenarios) > 2:
            labels = _player_labels(instance, mass, [frozenset(rivals for rivals, _q in items) for items in rows])
        # entry (agent, key, weight) puts weight at qmat[agent, key's column]; the column holds the
        # product of the factor rows the key names: a rival set's CDFs, or the other players' mixtures
        if labels is None:
            name = "rival sets"
            entries = [(a, rivals, q) for a, items in enumerate(rows) for rivals, q in items]
        else:
            name = "players"
            n_players = int(labels.max()) + 1
            mixing = np.zeros((n_players, n + 1))
            mixing[labels, np.arange(n)] = mass / np.bincount(labels, weights=mass)[labels]
            entries = [(a, tuple(p for p in range(n_players) if p != own), 1.0)
                       for a, own in enumerate(labels.tolist())]
        column: dict[tuple[int, ...], int] = {}  # key -> column, by first appearance
        for _a, key, _w in entries:
            column.setdefault(key, len(column))
        width = max(map(len, column), default=0)
        if width <= 1:  # the columns are the CDF rows themselves, row n for no rivals
            slots: tuple[np.ndarray, ...] = ()
            column = {key: key[0] if key else n for key in column}
            n_columns = n + 1
        else:
            # slot n points at the all-ones row, so padded slots and
            # rival-free scenarios contribute a neutral factor to the products
            padded = [key + (n,) * (width - len(key)) for key in column]  # in column order
            slots = tuple(np.array(slot, dtype=np.intp) for slot in zip(*padded))
            n_columns = len(column)
        # the slot sum builds no table beyond its workspace, so it serves where qmat would not fit
        sparse = len(entries) < SLOT_SUM_DENSITY * n * n_columns or bool(_table_problem((n, "agents"), (n_columns, name)))
        # the workspace's block of products, gathered rows and mixtures: the engine's only refusal
        problem = slots and _table_problem((2 if mixing is None else 3, "product buffers"), (n_columns, name),
                                           (bids.size + 1, "levels"))
        if problem:
            raise InvalidInstanceError([problem])
        agent, col, weight = _sorted_entries([(a, column[key], weight) for a, key, weight in entries])
        if sparse:
            self._qmat, self._slot_sum = None, _slot_sum_plan(n, agent, col, weight)
        else:
            self._qmat, self._slot_sum = np.zeros((n, n_columns)), None
            self._qmat[agent, col] = weight  # each (agent, column) pair is one entry
        # one rival at most, so the columns are the agents: the cumulative loop's layout
        self._pure_plan = _pure_plan(n, agent, col, weight, bids) if sparse and not slots else None

        self._n = n
        self._n_bids = bids.size
        self._alpha = instance.rule.alpha
        self._second_price_share = 1.0 - self._alpha
        self._use_mixture = self._alpha < 1.0
        self._bids = bids
        self._slots = slots
        self._mixing = mixing
        self._value_margin = instance.values[:, None] - self._alpha * bids[None, :]
        self.n_groups = len(set(rows))

    @property
    def instance(self) -> AuctionInstance | None:
        """The instance this engine evaluates, or None once it has been freed."""
        return self._instance()

    @property
    def affine(self) -> bool:
        """Whether :meth:`curves` is affine in the CDF table, up to rounding.

        It is when no scenario has two or more rivals: the engine then
        multiplies no CDF rows together, so on the line between two tables
        the curves lie on the line between theirs.
        """
        return not self._slots

    @property
    def aggregation(self) -> str:
        """How :meth:`curves` mixes the columns into the agents: ``"dense"`` or ``"slot sum"``."""
        return "dense" if self._slot_sum is None else "slot sum"

    @property
    def loop(self) -> str:
        """The loop form :func:`fbauction.solver.run` takes on this engine's instance.

        ``"step"`` where the curves are not affine, ``"cumulative"`` (Brown's
        cumulative payoffs, refreshed by :meth:`step_curves`) where they are
        and the engine takes the slot sum, else ``"jump"``.
        """
        if self._pure_plan is not None:
            return "cumulative"
        return "jump" if self.affine else "step"

    def facing(self, agents: np.ndarray) -> np.ndarray:
        """The agents that face any of ``agents`` as a rival, ascending, where :attr:`loop` is ``"cumulative"``."""
        *_, faced_start, faced_count, faced_by, _price = self._pure_plan
        hit = np.zeros(self._n, dtype=bool)
        hit[faced_by[_ranges(faced_start[agents], faced_count[agents])]] = True
        return hit.nonzero()[0]

    def step_curves(self, replies: np.ndarray, rows: np.ndarray, out: np.ndarray) -> np.ndarray:
        """Write into ``out[rows]`` the curves of agents ``rows`` against the pure profile ``replies``.

        ``replies[a]`` is agent ``a``'s bid index; where :attr:`loop` is
        ``"cumulative"``, the result matches :meth:`curves` of that
        profile's step table up to rounding. Each agent's rival CDFs are
        steps from 0 to 1, so its mixture is a row ``cumsum`` of a
        ``bincount`` of its weights at the levels just above its rivals'
        bids (level 0 for no rival), and the second-price tail the same of
        weights times those bids. No BLAS call, and each row's bins add its
        entries in column order, so agents with equal conditional rows get
        equal bits. Returns ``out``.
        """
        start, count, columns, weights, *_, price = self._pure_plan
        size = count[rows]
        take = _ranges(start[rows], size)
        levels = self._n_bids + 1
        level = np.concatenate((replies, (-1,)))[columns[take]] + 1  # where each rival's CDF steps to 1
        bins = np.repeat(np.arange(0, rows.size * levels, levels), size) + level
        shape = (rows.size, levels)
        win = np.bincount(bins, weights[take], rows.size * levels).reshape(shape).cumsum(axis=1)
        curves = np.multiply(self._value_margin.take(rows, axis=0), win[:, :-1])
        if self._use_mixture:
            paid = np.bincount(bins, weights[take] * price[level], rows.size * levels)
            curves -= self._second_price_share * paid.reshape(shape).cumsum(axis=1)[:, :-1]
        out[rows] = curves
        return out

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
        ``pmf`` and ``partial``, (n_agents, n_bids), exist only when the
        payment rule's alpha is below 1. ``sets`` and ``gathered``, (rival
        sets, n_bids + 1), exist only when some scenario has two or more
        rivals. On instances that factor into players they are (players,
        n_bids + 1), and so is ``mixed``. ``sums`` and ``terms``, (n_agents,
        n_bids + 1), exist only on the slot sum's path.
        """
        n, levels = self._n, self._n_bids + 1
        rows = {"win": n}
        if self._slots:
            names = ("sets", "gathered") if self._mixing is None else ("sets", "gathered", "mixed")
            rows.update(dict.fromkeys(names, self._slots[0].size))
        if self._slot_sum is not None:
            rows.update(sums=n, terms=n)
        # one block: freeing several large blocks trips glibc's adaptive trim
        # threshold, so a fresh workspace per call faulted its pages in anew
        # every time, which made certify 2.5x slower at 500 rival sets (1.7x
        # on a 195-agent slot sum)
        block = np.empty((sum(rows.values()), levels))
        work, start = {}, 0
        for name, size in rows.items():
            work[name] = block[start:start + size]
            start += size
        work["curves"] = np.empty((n, levels - 1))
        if self._use_mixture:
            # partial's first column is never written, so it stays 0: nothing rivals pay below the lowest level
            work.update(pmf=np.empty((n, levels - 1)), partial=np.zeros((n, levels - 1)))
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
            factors.take(self._slots[0], axis=0, out=set_win, mode="clip")
            for slot in self._slots[1:]:
                factors.take(slot, axis=0, out=gathered, mode="clip")
                set_win *= gathered
        if self._slot_sum is None:                    # conditional mixture, per agent
            win = np.matmul(self._qmat, set_win, out=work["win"])
        else:
            # the slot sum: slot 0's weighted rows, then each later slot's
            # added onto the prefix it covers, so each agent's terms sum in
            # ascending column order; the ranks put the sums in agent order
            slots, rank = self._slot_sum
            (columns, weights), *later = slots
            sums, terms = work["sums"], work["terms"]
            set_win.take(columns, axis=0, out=sums, mode="clip")
            sums *= weights
            for columns, weights in later:
                head, part = sums[:columns.size], terms[:columns.size]
                set_win.take(columns, axis=0, out=part, mode="clip")
                part *= weights
                head += part
            win = sums.take(rank, axis=0, out=work["win"], mode="clip")
        curves = np.multiply(self._value_margin, win[:, :-1], out=work["curves"])
        if self._use_mixture:
            # the operations of np.diff, a product, np.cumsum and a scaled
            # subtraction, in that order, written into the workspace
            pmf, partial = work["pmf"], work["partial"]
            np.subtract(win[:, 1:], win[:, :-1], out=pmf)  # P(top rival bids exactly grid[m])
            np.multiply(pmf, self._bids, out=pmf)
            pmf[:, :-1].cumsum(axis=1, out=partial[:, 1:])
            np.multiply(self._second_price_share, partial, out=partial)
            curves -= partial
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

