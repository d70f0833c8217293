"""Shared generators and reference oracles for the test suite."""
from __future__ import annotations

import itertools
import math
from pathlib import Path

import numpy as np

from fbauction import (
    AuctionInstance,
    BidGrid,
    PayoffEngine,
    PaymentRule,
    PlayerAuction,
    Scenario,
    SolverConfig,
    SolverResult,
    StrategyProfile,
    certify,
    conditional_scenarios,
    participation_probabilities,
)
from fbauction.model import PROB_TOL
from fbauction.payoff import engine_for
from fbauction.verify import best_replies


def point_mass_profile(n_agents: int, n_bids: int, bid_index: int = 0) -> StrategyProfile:
    """Every agent bids ``grid[bid_index]`` for sure."""
    w = np.zeros((n_agents, n_bids))
    w[:, bid_index] = 1.0
    return StrategyProfile.from_matrix(w)


def brute_force_curves(profile: StrategyProfile, instance: AuctionInstance, max_terms: int = 10_000_000) -> np.ndarray:
    """Reference for ``all_payoff_curves``: every agent's payoff at every grid
    level, by enumerating each scenario's joint rival bid outcomes.

    Exponential in the scenario size; raises ``ValueError`` before enumerating
    when any agent's outcomes number more than ``max_terms``.
    """
    bids = instance.grid.bids
    alpha = instance.rule.alpha
    mass = participation_probabilities(instance)
    supports = [np.flatnonzero(row) for row in profile.weights]
    # per agent: (P(scenario | agent participates), its rivals), in scenario order
    views = [[(s.prob / mass[a], sorted(s.members - {a})) for s in instance.scenarios if a in s.members]
             for a in range(instance.n_agents)]
    total_terms = max(sum(math.prod(max(1, supports[r].size) for r in rivals) for _q, rivals in rows)
                      for rows in views)
    if total_terms > max_terms:
        raise ValueError(f"enumeration of {total_terms} outcomes exceeds the {max_terms} guard")
    curves = np.zeros((instance.n_agents, bids.size))
    for agent, (value, rows) in enumerate(zip(instance.values, views)):
        for q, rivals in rows:
            if not rivals:
                curves[agent] += q * (value - alpha * bids)
                continue
            for combo in itertools.product(*(supports[r] for r in rivals)):
                weight = 1.0
                for r, j in zip(rivals, combo):
                    weight *= profile.weights[r, j]
                top_rival = max(bids[j] for j in combo)
                win = bids > top_rival  # ties and losses pay and win nothing
                curves[agent, win] += q * weight * (value - alpha * bids[win] - (1.0 - alpha) * top_rival)
    return curves


def gathered_curves(engine: PayoffEngine, instance: AuctionInstance, below: np.ndarray) -> np.ndarray:
    """Reference for ``PayoffEngine.curves``: the engine's margin table, the
    rival sets' CDF products formed by one gather,
    ``rows[set_members].prod(axis=1)``, in place of slot by slot, and one
    dense product with an aggregation matrix rebuilt here, whichever
    aggregation the engine takes.

    When the engine factors the instance into players (its ``_mixing`` is
    set), ``rows`` are the player mixtures ``_mixing @ below``, player
    ``p``'s set is every other player in ascending order, and an agent's
    weight 1 sits in its player's column. Otherwise ``rows`` is ``below``,
    and the columns are the instance's rival sets in order of first
    appearance (the engine's column order), each ascending and padded with
    row ``n_agents``, the all-ones row, or the CDF rows themselves when no
    set has two members; an agent's weight in a column is its conditional
    probability of facing that set.
    """
    n = instance.n_agents
    if engine._mixing is not None:
        rows = engine._mixing @ below
        n_players = rows.shape[0]
        set_members = np.array([[q for q in range(n_players) if q != p] for p in range(n_players)])
        set_win = rows[set_members].prod(axis=1)
        qmat = (engine._mixing[:, :n] > 0).T * 1.0  # one 1 per agent, in its player's column
    else:
        faced = [[(tuple(sorted(s.members - {a})), q) for s, q in items]
                 for a, items in enumerate(conditional_scenarios(instance))]
        sets = {rivals: None for items in faced for rivals, _q in items}
        width = max(map(len, sets))
        if width > 1:
            set_members = np.array([rivals + (n,) * (width - len(rivals)) for rivals in sets])
            set_win = below[set_members].prod(axis=1)
            column = {rivals: i for i, rivals in enumerate(sets)}
        else:
            set_win = below
            column = {rivals: rivals[0] if rivals else n for rivals in sets}
        qmat = np.zeros((n, set_win.shape[0]))
        for a, items in enumerate(faced):
            for rivals, q in items:
                qmat[a, column[rivals]] = q
    win = qmat @ set_win
    curves = engine._value_margin * win[:, :-1]
    if engine._use_mixture:
        top_pmf = np.diff(win, axis=1)
        partial = np.empty_like(top_pmf)
        partial[:, 0] = 0.0
        np.cumsum((top_pmf * engine._bids)[:, :-1], axis=1, out=partial[:, 1:])
        curves -= engine._second_price_share * partial
    return curves


def write_grid_csv_by_line(path: Path, instance: AuctionInstance, **columns: np.ndarray) -> None:
    """Reference for ``cli._write_grid_csv``: the same file, built line by
    line with one ``format(x, ".17g")`` call per cell."""
    def fmt(x) -> str:
        return format(float(x), ".17g")

    bids = [fmt(b) for b in instance.grid.bids]
    lines = [",".join(["agent_id", "bid", *columns])]
    for a, rows in enumerate(zip(*(c.tolist() for c in columns.values()))):
        for bid, *cells in zip(bids, *rows):
            lines.append(",".join([str(a), bid, *map(fmt, cells)]))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def step_loop_run(instance: AuctionInstance, config: SolverConfig) -> SolverResult:
    """Reference for ``run``: fictitious bidding one step per iteration, one
    ``curves`` call per step, as ``run`` did before it jumped over the steps
    in which no reply changes; every segment is one step."""
    engine = engine_for(instance)
    n, n_bids = instance.n_agents, instance.n_bids
    profile = StrategyProfile.uniform(n, n_bids) if config.init is None else config.init
    cdf = engine.cdf_table(profile.weights)
    agent_cdf = cdf[:n]
    above = np.lib.stride_tricks.sliding_window_view(np.arange(2 * n_bids + 1) > n_bids, n_bids + 1)[::-1]
    work = None
    renormalizations = 0
    trajectory: list[tuple[int, float]] = []
    last = config.max_iterations
    for k in range(last + 1):
        if k == last or k and not k % config.check_interval:
            work = None
            if k:
                totals = agent_cdf[:, -1]
                bad = np.abs(totals - 1.0) > PROB_TOL
                if bad.any():
                    agent_cdf[bad] /= totals[bad, None]
                    renormalizations += int(bad.sum())
                profile = StrategyProfile.from_matrix(np.diff(agent_cdf, axis=1))
            certificate = certify(profile, instance)
            trajectory.append((k, certificate.epsilon))
            if k == last or config.epsilon_target is not None and certificate.epsilon <= config.epsilon_target:
                break
        if work is None:
            work = engine.workspace()
        best = best_replies(engine.curves(cdf, work))
        eta = config.rate(k)
        agent_cdf *= 1.0 - eta
        np.add(agent_cdf, eta, out=agent_cdf, where=above[best])
    k = trajectory[-1][0]
    return SolverResult(profile=profile, iterations_run=k, certificate=certificate, trajectory=tuple(trajectory),
                        renormalizations=renormalizations, segments=k)


def random_small_instance(rng, max_agents=4, max_scenarios=5, max_grid=20, alpha=1.0) -> AuctionInstance:
    """Valid random instance small enough for brute-force enumeration."""
    n = int(rng.integers(2, max_agents + 1))
    members_seen: dict[frozenset[int], float] = {}
    for _ in range(200):
        members_seen.clear()
        for _ in range(int(rng.integers(1, max_scenarios + 1))):
            size = int(rng.integers(1, n + 1))
            members = frozenset(int(m) for m in rng.choice(n, size=size, replace=False))
            members_seen[members] = members_seen.get(members, 0.0) + 1.0
        if set().union(*members_seen) == set(range(n)):
            break
    probs = rng.random(len(members_seen)) + 0.05
    probs /= probs.sum()
    scenarios = tuple(Scenario(m, float(p)) for m, p in zip(members_seen, probs))
    n_bids = int(rng.integers(2, max_grid + 1))
    interior = np.unique(rng.random(n_bids - 1))
    grid = BidGrid(np.concatenate(([0.0], interior)))
    values = rng.random(n) * 1.2
    return AuctionInstance(values, scenarios, grid, PaymentRule(alpha))


def random_profile(rng, n_agents: int, n_bids: int) -> StrategyProfile:
    """Random mixed strategies with sparse supports and occasional point masses.

    Sparse supports put rival mass exactly on grid levels the deviator also
    uses, which exercises the ties-lose rule.
    """
    w = rng.random((n_agents, n_bids))
    w *= rng.random((n_agents, n_bids)) < 0.7
    for a in range(n_agents):
        if rng.random() < 0.25 or w[a].sum() == 0.0:
            w[a] = 0.0
            w[a, int(rng.integers(n_bids))] = 1.0
    w /= w.sum(axis=1, keepdims=True)
    return StrategyProfile.from_matrix(w)


def exhaustive_player_payoffs(
    players: PlayerAuction,
    agent_weights: list[np.ndarray],
    grid_bids: np.ndarray,
    alpha: float,
) -> np.ndarray:
    """Player expected payoffs by enumerating every value profile and bid combo.

    ``agent_weights`` is indexed by converted agent id (player-major, value
    order), so ``agent_weights[offset_i + t]`` is the bid distribution player
    ``i`` uses when holding its ``t``-th value.
    """
    sizes = [vs.size for vs in players.value_sets]
    offsets = np.concatenate(([0], np.cumsum(sizes)))[:-1]
    n_players = len(players.value_sets)
    n_bids = len(grid_bids)
    totals = np.zeros(n_players)
    for vidx in np.ndindex(*players.joint.shape):
        f = float(players.joint[vidx])
        if f == 0.0:
            continue
        strats = [agent_weights[int(offsets[i]) + int(vidx[i])] for i in range(n_players)]
        for combo in itertools.product(range(n_bids), repeat=n_players):
            weight = f
            for i in range(n_players):
                weight *= strats[i][combo[i]]
            if weight == 0.0:
                continue
            bids = [grid_bids[c] for c in combo]
            for i in range(n_players):
                rivals = bids[:i] + bids[i + 1:]
                top = max(rivals) if rivals else 0.0
                if not rivals or bids[i] > top:
                    payment = alpha * bids[i] + (1.0 - alpha) * top
                    totals[i] += weight * (players.value_sets[i][vidx[i]] - payment)
    return totals


def random_player_auction(rng, max_players=3, max_values=3) -> PlayerAuction:
    """Random discrete player-based auction with a dense random joint table."""
    n_players = int(rng.integers(1, max_players + 1))
    sizes = [int(rng.integers(1, max_values + 1)) for _ in range(n_players)]
    value_sets = []
    for size in sizes:
        vs = np.sort(rng.random(size))
        while np.any(np.diff(vs) <= 0):
            vs = np.sort(rng.random(size))
        value_sets.append(vs)
    joint = rng.random(tuple(sizes)) + 0.05
    # sprinkle in a zero-probability profile to exercise sparse conversion,
    # but only where every value keeps positive marginal mass
    if n_players >= 2 and min(sizes) >= 2 and rng.random() < 0.5:
        flat = joint.reshape(-1)
        flat[int(rng.integers(flat.size))] = 0.0
    joint /= joint.sum()
    return PlayerAuction(tuple(value_sets), joint)


def symmetric_binary_analytic_profile(instance: AuctionInstance) -> StrategyProfile:
    """Discretized closed-form equilibrium of the bundled symmetric instance:
    value-0 agents bid 0, value-1 agents follow CDF 1/(1-b) - 1 on [0, 1/2]."""
    bids = instance.grid.bids
    ref = np.minimum(1.0 / (1.0 - np.minimum(bids, 0.5)) - 1.0, 1.0)
    g_weights = np.diff(np.concatenate(([0.0], ref)))
    zero = np.zeros(bids.size)
    zero[0] = 1.0
    return StrategyProfile.from_matrix(np.vstack([zero, zero, g_weights, g_weights]))


def instances_match(a: AuctionInstance, b: AuctionInstance) -> bool:
    return (
        np.array_equal(a.values, b.values)
        and a.scenarios == b.scenarios
        and np.array_equal(a.grid.bids, b.grid.bids)
        and a.rule == b.rule
    )
