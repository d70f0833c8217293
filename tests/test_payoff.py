"""Payoff engine vs. the brute-force enumeration oracle."""
from __future__ import annotations

import gc
import warnings
import weakref
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fbauction.model
import fbauction.payoff as fb_payoff

from conftest import brute_force_curves, gathered_curves, random_profile, random_small_instance, symmetric_binary_analytic_profile
from fbauction import (
    AuctionInstance,
    BidGrid,
    InvalidInstanceError,
    PayoffEngine,
    PaymentRule,
    PlayerAuction,
    Scenario,
    SolverConfig,
    StrategyProfile,
    all_payoff_curves,
    conditional_scenarios,
    convert_player_to_agent,
    example_1,
    example_3,
    example_4,
    get_example,
    participation_probabilities,
    random_instance,
    run,
)


def _instance(values, member_sets, probs, grid_bids, alpha=1.0):
    scenarios = tuple(Scenario(frozenset(m), p) for m, p in zip(member_sets, probs))
    return AuctionInstance(np.array(values, dtype=float), scenarios, BidGrid(np.array(grid_bids, dtype=float)), PaymentRule(alpha))


# --- conditional scenarios --------------------------------------------------


def test_conditional_scenarios_chain():
    # agent 1 sits in both scenarios, agents 0 and 2 in one each
    inst = _instance([1 / 3, 2 / 3, 1.0], [(0, 1), (1, 2)], [0.5, 0.5], [0.0, 0.5, 1.0])
    table = conditional_scenarios(inst)
    assert [q for _, q in table[1]] == [0.5, 0.5]
    assert [q for _, q in table[0]] == [1.0]
    assert [q for _, q in table[2]] == [1.0]


def test_conditional_scenarios_single_grand_scenario():
    inst = _instance([0.5, 0.5, 0.5], [(0, 1, 2)], [1.0], [0.0, 1.0])
    table = conditional_scenarios(inst)
    for a in range(3):
        assert [q for _, q in table[a]] == [1.0]


def test_conditional_scenarios_four_scenario_mix():
    # three pairs among agents 0-2 plus the grand scenario, all equiprobable:
    # agent 3 conditions to certainty, agent 0 splits 1/3 across its three
    inst = _instance(
        [0.25, 0.5, 0.5, 1.0],
        [(0, 1), (1, 2), (0, 2), (0, 1, 2, 3)],
        [0.25] * 4,
        [0.0, 1.0],
    )
    table = conditional_scenarios(inst)
    assert [q for _, q in table[3]] == [1.0]
    assert [q for _, q in table[0]] == pytest.approx([1 / 3] * 3)


def test_agent_outside_every_scenario_is_rejected():
    # such an instance cannot be built, so no conditional row divides by zero
    with pytest.raises(InvalidInstanceError) as raised:
        _instance([0.5, 0.5, 0.5], [(0, 1)], [1.0], [0.0, 1.0])
    assert raised.value.problems == ["agent 2 never participates in any scenario"]


def test_conditional_scenarios_match_the_per_agent_filter():
    inst = example_4().instance
    mass = participation_probabilities(inst)
    table = conditional_scenarios(inst)
    assert table == tuple(tuple((s, s.prob / mass[a]) for s in inst.scenarios if a in s.members)
                          for a in range(inst.n_agents))


def test_engine_takes_the_slot_sum_where_the_aggregation_matrix_exceeds_the_table_limit(monkeypatch):
    # 4 agents x 2 grid levels pass validation; qmat would be 4 agents x 5 CDF
    # rows, and the slot sum builds no table beyond its workspace
    named = example_1()
    inst = AuctionInstance(named.instance.values, named.instance.scenarios, BidGrid.uniform(1.0, 1), named.instance.rule)
    profile = random_profile(np.random.default_rng(0), inst.n_agents, inst.n_bids)
    monkeypatch.setattr(fbauction.model, "MAX_TABLE_CELLS", 10)
    engine = PayoffEngine(inst)
    assert (engine.aggregation, engine.loop) == ("slot sum", "cumulative")
    assert np.abs(engine.curves(engine.cdf_table(profile.weights)) - brute_force_curves(profile, inst)).max() <= 1e-12
    assert run(inst, SolverConfig(max_iterations=100)).iterations_run == 100


def test_engine_rejects_a_rival_product_block_above_the_table_limit(monkeypatch):
    # example 3's scenarios differ in size, so it does not factor into players:
    # its workspace block is 2 x 7 rival sets x 402 levels = 5628 cells; its
    # qmat (28 cells) and agents x levels table (1604) fit the limit
    inst = example_3().instance
    for limit in (2_000, 2 * 7 * 402 - 1):
        monkeypatch.setattr(fbauction.model, "MAX_TABLE_CELLS", limit)
        with pytest.raises(InvalidInstanceError) as raised:
            PayoffEngine(inst)
        assert raised.value.problems == [f"2 product buffers x 7 rival sets x 402 levels exceed the {limit}-cell table limit"]
    monkeypatch.setattr(fbauction.model, "MAX_TABLE_CELLS", 2 * 7 * 402)
    assert PayoffEngine(inst).workspace()["sets"].shape == (7, 402)


def _five_by_six_joint(zero_cell: bool) -> np.ndarray:
    joint = np.ones((6,) * 5)
    if zero_cell:
        joint[1, 2, 3, 4, 5] = 0.0
    return joint / joint.sum()


def test_engine_accepts_rival_sets_whose_product_block_fits():
    # 5 players x 6 values with one value profile missing, so the players are
    # not independent: 30 agents, 7775 scenarios, 6480 rival sets of 4
    # rivals; the product block is 2 x 6480 x 402 = 5.2 M cells
    players = PlayerAuction((np.arange(1, 7) / 6,) * 5, _five_by_six_joint(zero_cell=True))
    values, scenarios, _partition = convert_player_to_agent(players)
    engine = PayoffEngine(AuctionInstance(values, scenarios, BidGrid.uniform(1.0, 400)))
    assert engine._mixing is None
    assert [slot.size for slot in engine._slots] == [6480] * 4


def _converted(players: PlayerAuction, steps: int = 20) -> AuctionInstance:
    values, scenarios, _partition = convert_player_to_agent(players)
    return AuctionInstance(values, scenarios, BidGrid.uniform(1.0, steps))


def _random_independent_players(seed: int, n_players: int, n_values: int) -> PlayerAuction:
    rng = np.random.default_rng(seed)
    marginals = rng.uniform(0.5, 1.5, size=(n_players, n_values))
    return PlayerAuction.independent([np.arange(1, n_values + 1) / n_values] * n_players,
                                     marginals / marginals.sum(axis=1, keepdims=True))


def _correlated_joint(zero_cell: bool) -> PlayerAuction:
    joint = np.random.default_rng(7).uniform(0.5, 1.5, size=(2, 3, 2))
    if zero_cell:
        joint[1, 2, 0] = 0.0
    return PlayerAuction(([0.2, 0.6], [0.3, 0.5, 0.9], [0.4, 0.8]), joint / joint.sum())


def _permuted(instance: AuctionInstance, order: np.ndarray) -> AuctionInstance:
    """``instance`` with agent ``a`` renumbered ``order[a]``."""
    values = np.empty_like(instance.values)
    values[order] = instance.values
    scenarios = tuple(Scenario(frozenset(order[sorted(s.members)].tolist()), s.prob) for s in instance.scenarios)
    return AuctionInstance(values, scenarios, instance.grid, instance.rule)


_FACTORED = {
    "example-4": lambda: example_4().instance,
    # the players' agents interleaved, so a builder that numbers its columns
    # other than by player fails the gathered products below
    "example-4-permuted": lambda: _permuted(example_4().instance, np.random.default_rng(4).permutation(9)),
    **{f"independent-{p}x{v}": lambda p=p, v=v: _converted(_random_independent_players(p, p, v))
       for p, v in ((3, 2), (4, 3), (5, 3))},
    "players-4x5": lambda: _converted(_random_independent_players(0, 4, 5), steps=400),
    "independent-5x6": lambda: _converted(PlayerAuction((np.arange(1, 7) / 6,) * 5, _five_by_six_joint(False))),
}
_NOT_FACTORED = {
    **{f"example-{n}": lambda n=n: get_example(n).instance for n in "1235"},
    "correlated-joint": lambda: _converted(_correlated_joint(zero_cell=False)),
    "joint-with-a-zero-cell": lambda: _converted(_correlated_joint(zero_cell=True)),
}


@pytest.mark.parametrize("build", _FACTORED.values(), ids=_FACTORED.keys())
def test_engine_factors_independent_players(build):
    # one column per player: each agent's column is its player's, and the
    # mixing rows give each player's agents their conditional weights
    inst = build()
    engine = PayoffEngine(inst)
    n_players = len(inst.scenarios[0].members)
    assert engine._mixing is not None
    assert engine._qmat.shape == (inst.n_agents, n_players)
    assert np.array_equal(engine._qmat.sum(axis=1), np.ones(inst.n_agents))
    assert engine._mixing.sum(axis=1) == pytest.approx(np.ones(n_players), abs=1e-14)
    assert [slot.size for slot in engine._slots] == [n_players] * (n_players - 1)
    table = engine.cdf_table(random_profile(np.random.default_rng(21), inst.n_agents, inst.n_bids).weights)
    assert np.array_equal(engine.curves(table), gathered_curves(engine, inst, table))


@pytest.mark.parametrize("seed", range(12))
def test_engine_finds_the_players_whatever_the_agent_numbering(seed):
    # a converted auction with its agents renumbered at random: the engine
    # factors exactly the independent ones, each agent's column is its player
    # (players numbered by their first agent), and the curves match both oracles
    rng = np.random.default_rng(seed)
    kind = ("independent", "correlated", "zero-cell")[seed % 3]
    n_players = 3 + seed // 3 % 2
    sizes = rng.integers(2, 7 - n_players, size=n_players)
    value_sets = [np.sort(rng.choice(np.arange(1, 21), size=k, replace=False)) / 20 for k in sizes]
    if kind == "independent":
        marginals = [rng.uniform(0.5, 1.5, size=k) for k in sizes]
        players = PlayerAuction.independent(value_sets, [m / m.sum() for m in marginals])
    else:
        joint = rng.uniform(0.5, 1.5, size=sizes)
        if kind == "zero-cell":
            joint.reshape(-1)[rng.integers(joint.size)] = 0.0
        players = PlayerAuction(tuple(value_sets), joint / joint.sum())
    values, scenarios, partition = convert_player_to_agent(players)
    order = rng.permutation(values.size)
    player = np.empty_like(partition)
    player[order] = partition
    first: dict[int, int] = {}
    expected = [first.setdefault(p, len(first)) for p in player.tolist()]
    for alpha in (1.0, 0.5):
        inst = _permuted(AuctionInstance(values, scenarios, BidGrid.uniform(1.0, 4), PaymentRule(alpha)), order)
        engine = PayoffEngine(inst)
        assert (engine._mixing is not None) == (kind == "independent")
        if kind == "independent":
            assert np.array_equal(engine._qmat, np.eye(n_players)[expected])
        profile = random_profile(rng, inst.n_agents, inst.n_bids)
        table = engine.cdf_table(profile.weights)
        curves = engine.curves(table)
        assert np.array_equal(curves, gathered_curves(engine, inst, table))
        assert curves == pytest.approx(brute_force_curves(profile, inst), abs=1e-12)


@pytest.mark.parametrize("build", _NOT_FACTORED.values(), ids=_NOT_FACTORED.keys())
def test_engine_keeps_the_rival_sets_of_instances_that_do_not_factor(build):
    engine = PayoffEngine(build())
    assert engine._mixing is None


# --- the slot sum: sparse aggregation ------------------------------------------


def _random_pairs(seed: int, n_agents: int, n_scenarios: int, steps: int = 100) -> AuctionInstance:
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # agents that draw no pair are dropped with a warning
        inst = random_instance(seed, n_agents, n_scenarios).instance
    return AuctionInstance(inst.values, inst.scenarios, BidGrid.uniform(1.0, steps), inst.rule)


def _few_bid_profile(rng, n_agents: int, n_bids: int) -> StrategyProfile:
    """Each agent mixes over at most three bids, so the brute-force oracle stays cheap."""
    w = np.zeros((n_agents, n_bids))
    for a in range(n_agents):
        w[a, rng.choice(n_bids, size=3, replace=False)] = rng.random(3) + 0.1
    return StrategyProfile.from_matrix(w / w.sum(axis=1, keepdims=True))


_DENSE_AGGREGATION = {
    **{f"example-{n}": lambda n=n: get_example(n).instance for n in "12345"},
    **{f"random-seed{seed}": lambda seed=seed: _random_pairs(seed, 10, 20) for seed in range(10)},
    "players-4x5": lambda: _converted(_random_independent_players(0, 4, 5), steps=400),
}


@pytest.mark.parametrize("build", _DENSE_AGGREGATION.values(), ids=_DENSE_AGGREGATION.keys())
def test_small_instances_keep_the_matrix_product(build):
    engine = PayoffEngine(build())
    assert engine._slot_sum is None and engine._qmat is not None


def test_a_large_pair_auction_takes_the_slot_sum():
    # 195 agents x 196 CDF rows with 794 nonzeros (2.1%), at most 9 per agent
    engine = PayoffEngine(_random_pairs(0, 200, 400))
    assert engine._qmat is None
    slots, rank = engine._slot_sum
    assert [columns.size for columns, _weights in slots] == [195, 182, 159, 115, 65, 40, 20, 11, 7]
    assert sorted(rank.tolist()) == list(range(195))


@pytest.mark.parametrize("n_agents", [150, 250, 400])
def test_slot_sum_matches_a_dense_product_and_brute_force(n_agents):
    rng = np.random.default_rng(n_agents)
    for steps in (100, 400):
        base = _random_pairs(n_agents, n_agents, 2 * n_agents, steps)
        profile = _few_bid_profile(rng, base.n_agents, base.n_bids)
        scale = np.abs(base.values).max()
        for alpha in (1.0, 0.5, 0.0):
            inst = _at_alpha(base, alpha)
            engine = PayoffEngine(inst)
            assert engine._slot_sum is not None
            table = engine.cdf_table(profile.weights)
            curves = engine.curves(table)
            assert np.abs(curves - gathered_curves(engine, inst, table)).max() <= 1e-15 * scale
            assert np.abs(curves - brute_force_curves(profile, inst)).max() <= 1e-12


def _equal_conditional_rows(alpha: float = 1.0) -> AuctionInstance:
    """Agents 0 and 1 hold one value and each meet agents 2-5 with equal
    probabilities; a chain over agents 2-199 makes the instance sparse."""
    n = 200
    values = np.random.default_rng(3).uniform(size=n)
    values[1] = values[0]
    member_sets = [(a, rival) for a in (0, 1) for rival in range(2, 6)] + [(a, a + 1) for a in range(2, n - 1)]
    return _instance(values, member_sets, [1 / len(member_sets)] * len(member_sets), np.linspace(0.0, 1.0, 101),
                     alpha)


def test_agents_with_equal_conditional_rows_get_bit_identical_curves():
    # The slot sum adds both rows' terms in one order; a BLAS product sums
    # each row by its position, so there the two can differ in the last bit
    n = 200
    inst = _equal_conditional_rows()
    engine = PayoffEngine(inst)
    assert engine._slot_sum is not None
    rng = np.random.default_rng(9)
    for _ in range(5):
        curves = engine.curves(engine.cdf_table(random_profile(rng, n, inst.n_bids).weights))
        assert np.array_equal(curves[0], curves[1])


_NOT_CUMULATIVE = {**_DENSE_AGGREGATION, "example-1-alpha0.5": lambda: _at_alpha(get_example("1").instance, 0.5)}


@pytest.mark.parametrize("build", _NOT_CUMULATIVE.values(), ids=_NOT_CUMULATIVE.keys())
def test_small_instances_keep_the_jump_or_step_loop(build):
    engine = PayoffEngine(build())
    assert engine.aggregation == "dense"
    assert engine.loop == ("jump" if engine.affine else "step")


@pytest.mark.parametrize("n_agents, n_scenarios", [(200, 400), (5000, 10_000)])
def test_large_pair_auctions_take_the_cumulative_loop(n_agents, n_scenarios):
    engine = PayoffEngine(_random_pairs(0, n_agents, n_scenarios))
    assert (engine.aggregation, engine.loop) == ("slot sum", "cumulative")


def _step_table(engine, replies, n_bids):
    """The strict-CDF table of the pure profile ``replies``."""
    return engine.cdf_table(np.eye(n_bids)[replies])


@pytest.mark.parametrize("alpha", [1.0, 0.5, 0.0])
def test_step_curves_match_the_curves_of_the_step_table(alpha):
    rng = np.random.default_rng(17)
    for seed in range(3):
        inst = _at_alpha(_random_pairs(seed, 200, 400), alpha)
        engine = PayoffEngine(inst)
        assert engine.loop == "cumulative"
        n = inst.n_agents
        for _ in range(3):
            replies = rng.integers(inst.n_bids, size=n)
            expected = engine.curves(_step_table(engine, replies, inst.n_bids))
            every = engine.step_curves(replies, np.arange(n), np.full_like(expected, np.nan))
            assert np.abs(every - expected).max() <= 1e-15 * np.abs(expected).max()
            rows = np.sort(rng.choice(n, size=max(1, n // 4), replace=False))
            some = engine.step_curves(replies, rows, np.full_like(expected, np.nan))
            assert np.array_equal(some[rows], every[rows])
            assert np.isnan(np.delete(some, rows, axis=0)).all()  # no other row is written


@pytest.mark.parametrize("alpha", [1.0, 0.5])
def test_step_curves_give_equal_conditional_rows_equal_bits(alpha):
    inst = _equal_conditional_rows(alpha)
    engine = PayoffEngine(inst)
    rng = np.random.default_rng(4)
    for _ in range(5):
        replies = rng.integers(inst.n_bids, size=inst.n_agents)
        out = engine.step_curves(replies, np.arange(inst.n_agents), np.empty((inst.n_agents, inst.n_bids)))
        assert np.array_equal(out[0], out[1])


def test_facing_names_the_agents_that_meet_the_given_ones():
    inst = _random_pairs(1, 200, 400)
    engine = PayoffEngine(inst)
    met = [set() for _ in range(inst.n_agents)]
    for s in inst.scenarios:
        for a in s.members:
            met[a] |= s.members - {a}
    rng = np.random.default_rng(2)
    for size in (1, 3, 20):
        agents = np.sort(rng.choice(inst.n_agents, size=size, replace=False))
        expected = sorted(b for a in agents.tolist() for b in range(inst.n_agents) if b in met[a])
        assert engine.facing(agents).tolist() == sorted(set(expected))
    assert engine.facing(np.array([], dtype=int)).tolist() == []
    assert PayoffEngine(_equal_conditional_rows()).facing(np.array([2])).tolist() == [0, 1, 3]


def test_a_pair_auction_beyond_the_dense_table_limit_solves():
    # as a dense matrix its 4891 agents x 4892 CDF rows exceed the table
    # limit; the slot sum builds no table beyond its workspace
    inst = _random_pairs(0, 5000, 10_000)
    result = run(inst, SolverConfig(max_iterations=20))
    assert result.iterations_run == 20
    assert np.isfinite(result.certificate.epsilon)


def test_the_engine_takes_the_aggregation_that_fits_the_table_limit(monkeypatch):
    # a 10-agent pair auction prefers its dense 10 x 11 matrix; below that
    # matrix's size it takes the slot sum, whose curves match the product's
    base = _random_pairs(0, 10, 20)
    profile = _few_bid_profile(np.random.default_rng(0), base.n_agents, base.n_bids)
    scale = np.abs(base.values).max()
    for alpha in (1.0, 0.5):
        inst = _at_alpha(base, alpha)
        dense = PayoffEngine(inst)
        assert dense.aggregation == "dense" and dense._qmat.shape == (10, 11)
        table = dense.cdf_table(profile.weights)
        with monkeypatch.context() as patch:
            patch.setattr(fbauction.model, "MAX_TABLE_CELLS", 10 * 11 - 1)
            engine = PayoffEngine(inst)
        assert (engine.aggregation, engine.loop) == ("slot sum", "cumulative")
        curves = engine.curves(table)
        assert np.abs(curves - dense.curves(table)).max() <= 1e-15 * scale
        assert np.abs(curves - brute_force_curves(profile, inst)).max() <= 1e-12


def test_sparse_pair_auctions_on_fine_grids_take_the_slot_sum():
    # 984 agents on 3000 steps: 3998 nonzeros in a 984 x 985 matrix (1/242),
    # which fits the table limit; and 195 agents on 800 steps: 794 nonzeros
    # in 195 x 196 (1/48). Below 1/32 the slot sum serves whatever the grid's width
    for inst in (_random_pairs(0, 1000, 2000, steps=3000), _random_pairs(0, 200, 400, steps=800)):
        engine = PayoffEngine(inst)
        assert (engine.aggregation, engine.loop) == ("slot sum", "cumulative")


def test_slot_sum_over_player_mixtures():
    # one scenario of 33 agents, each its own player: one 1 per agent in a
    # 33 x 33 matrix, sparse enough for the slot sum over the player mixtures
    n = 33
    rng = np.random.default_rng(33)
    inst = _instance(rng.uniform(size=n), [tuple(range(n))], [1.0], np.linspace(0.0, 1.0, 21))
    w = np.zeros((n, inst.n_bids))
    w[np.arange(n), rng.integers(inst.n_bids, size=n)] = 1.0
    for a in range(8):  # 2 ** 8 rival outcomes keep the brute force cheap
        w[a] = 0.0
        w[a, rng.choice(inst.n_bids, size=2, replace=False)] = 0.5
    profile = StrategyProfile.from_matrix(w)
    for alpha in (1.0, 0.5):
        at_alpha = _at_alpha(inst, alpha)
        engine = PayoffEngine(at_alpha)
        assert engine._mixing is not None and engine._slot_sum is not None
        table = engine.cdf_table(profile.weights)
        curves = engine.curves(table)
        assert np.abs(curves - gathered_curves(engine, at_alpha, table)).max() <= 1e-15
        assert np.abs(curves - brute_force_curves(profile, at_alpha)).max() <= 1e-12


def test_curves_rejects_a_weight_matrix():
    # curves reads the strict-CDF table, one row and one column wider
    inst = example_1().instance
    weights = StrategyProfile.uniform(inst.n_agents, inst.n_bids).weights
    with pytest.raises(ValueError, match=r"^expected a \(5, 402\) CDF table, got \(4, 401\)$"):
        PayoffEngine(inst).curves(weights)


# --- expected payoff ---------------------------------------------------------


def test_bid_at_value_pays_nothing_first_price():
    inst = _instance([0.5, 0.25], [(0, 1)], [1.0], [0.0, 0.25, 0.5, 1.0])
    rng = np.random.default_rng(0)
    for _ in range(5):
        profile = random_profile(rng, 2, 4)
        assert all_payoff_curves(profile, inst)[0, 2] == 0.0  # bid == value


def test_sole_participant_curve():
    inst = _instance([1.0], [(0,)], [1.0], [0.0, 0.5, 1.0])
    profile = StrategyProfile.uniform(1, 3)
    curve = all_payoff_curves(profile, inst)[0]
    assert curve.tolist() == [1.0, 0.5, 0.0]


def test_certain_win_and_tie_against_point_mass():
    grid = [0.0, 0.25, 0.5, 1.0]
    inst = _instance([1.0, 1.0], [(0, 1)], [1.0], grid)
    rival_low = StrategyProfile.from_matrix(np.array([[0, 0, 1, 0], [0, 1, 0, 0]], dtype=float))
    # rival point mass strictly below: certain win, pay own bid
    assert all_payoff_curves(rival_low, inst)[0, 2] == pytest.approx(0.5, abs=1e-15)
    assert brute_force_curves(rival_low, inst)[0, 2] == pytest.approx(0.5, abs=1e-15)
    # rival point mass exactly at the bid: ties lose
    rival_tie = StrategyProfile.from_matrix(np.array([[0, 0, 1, 0], [0, 0, 1, 0]], dtype=float))
    assert all_payoff_curves(rival_tie, inst)[0, 2] == 0.0
    assert brute_force_curves(rival_tie, inst)[0, 2] == 0.0


def test_engine_matches_brute_force():
    rng = np.random.default_rng(2024)
    for alpha in (1.0, 0.5, 0.0):
        for _ in range(12):
            inst = random_small_instance(rng, alpha=alpha)
            profile = random_profile(rng, inst.n_agents, inst.n_bids)
            assert all_payoff_curves(profile, inst) == pytest.approx(brute_force_curves(profile, inst), abs=1e-12)


@st.composite
def converted_player_cases(draw):
    """A converted independent-player auction and a profile.

    3-4 players with 2-3 values each give every agent 2-3 rivals, and the
    agents of one player face the same rival sets. Integer weights and point
    masses put rival mass exactly on the deviator's levels, so ties occur.
    """
    levels = [0.0, 0.25, 0.5, 0.75, 1.0]
    value_sets = [sorted(draw(st.lists(st.sampled_from(levels), min_size=2, max_size=3, unique=True)))
                  for _ in range(draw(st.integers(3, 4)))]
    marginals = [np.array(draw(st.lists(st.integers(1, 3), min_size=len(vs), max_size=len(vs))), dtype=float)
                 for vs in value_sets]
    values, scenarios, _partition = convert_player_to_agent(
        PlayerAuction.independent(value_sets, [m / m.sum() for m in marginals]))
    inst = AuctionInstance(values, scenarios, BidGrid.uniform(1.0, draw(st.integers(2, 3))))
    n, nb = inst.n_agents, inst.n_bids
    w = np.zeros((n, nb))
    for a in range(n):
        if draw(st.booleans()):
            w[a, draw(st.integers(0, nb - 1))] = 1.0
        else:
            w[a] = draw(st.lists(st.integers(0, 2), min_size=nb, max_size=nb).filter(any))
    w /= w.sum(axis=1, keepdims=True)
    return inst, StrategyProfile.from_matrix(w)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(converted_player_cases())
def test_engine_matches_brute_force_on_converted_player_auctions(case):
    # the players are independent, so the engine mixes each player's agents
    inst, profile = case
    for alpha in (1.0, 0.5, 0.0):
        inst = _at_alpha(inst, alpha)
        engine = PayoffEngine(inst)
        assert engine._mixing is not None
        curves = engine.curves(engine.cdf_table(profile.weights))
        assert curves == pytest.approx(brute_force_curves(profile, inst), abs=1e-12)


def _at_alpha(instance, alpha):
    return AuctionInstance(instance.values, instance.scenarios, instance.grid, PaymentRule(alpha))


def _three_independent_players():
    value_sets = [[0.2, 0.6], [0.3, 0.5, 0.9], [0.4, 0.8]]
    marginals = [[0.5, 0.5], [0.2, 0.3, 0.5], [0.7, 0.3]]
    values, scenarios, _partition = convert_player_to_agent(PlayerAuction.independent(value_sets, marginals))
    return AuctionInstance(values, scenarios, BidGrid.uniform(1.0, 60))


_WORKSPACE_CASES = {
    **{f"example-{n}": lambda n=n: get_example(n).instance for n in "12345"},
    "example-1-alpha0.5": lambda: _at_alpha(example_1().instance, 0.5),
    "three-independent-players": _three_independent_players,
    # 0, 1, 2 and 3 rivals, so the shorter rival sets have padded slots
    "rivals-0-to-3": lambda: _instance([0.9, 0.7, 0.5, 0.3], [(0,), (0, 1), (1, 2, 3), (0, 1, 2, 3)],
                                       [0.1, 0.2, 0.3, 0.4], np.linspace(0.0, 1.0, 9)),
}


@pytest.mark.parametrize("build", _WORKSPACE_CASES.values(), ids=_WORKSPACE_CASES.keys())
def test_curves_on_a_reused_workspace_match_the_gathered_products_bit_for_bit(build):
    inst = build()
    engine = PayoffEngine(inst)
    work = engine.workspace()
    rng = np.random.default_rng(14)
    for _ in range(4):  # each call overwrites the last one's buffers
        table = engine.cdf_table(random_profile(rng, inst.n_agents, inst.n_bids).weights)
        curves = engine.curves(table, work)
        assert curves is work["curves"]
        assert np.array_equal(curves, engine.curves(table))
        assert np.array_equal(curves, gathered_curves(engine, inst, table))


def test_mixed_payoff_degenerate_and_uniform():
    rng = np.random.default_rng(5)
    inst = random_small_instance(rng, max_grid=6)
    n, nb = inst.n_agents, inst.n_bids
    # point mass: mixed payoff equals the pure payoff at that bid
    j = int(rng.integers(nb))
    w = np.zeros((n, nb))
    w[:, 1] = 1.0
    w[0] = 0.0
    w[0, j] = 1.0
    profile = StrategyProfile.from_matrix(w)
    curve = all_payoff_curves(profile, inst)[0]
    assert np.dot(profile.weights[0], curve) == curve[j]
    # uniform strategy: mixed payoff is the average of the brute-force curve
    uniform = StrategyProfile.from_matrix(np.full((n, nb), 1.0 / nb))
    oracle = np.mean(brute_force_curves(uniform, inst)[0])
    assert np.dot(uniform.weights[0], all_payoff_curves(uniform, inst)[0]) == pytest.approx(oracle, abs=1e-12)


def test_first_price_payoff_bounds():
    rng = np.random.default_rng(17)
    for _ in range(10):
        inst = random_small_instance(rng, alpha=1.0)
        profile = random_profile(rng, inst.n_agents, inst.n_bids)
        for a, curve in enumerate(all_payoff_curves(profile, inst)):
            assert curve[0] >= -1e-15  # bidding 0 can never lose money
            margin = inst.values[a] - inst.grid.bids
            assert np.all(curve <= np.maximum(margin, 0.0) + 1e-15)


def test_brute_force_enumeration_guard():
    inst = _instance([1.0, 1.0, 1.0], [(0, 1, 2)], [1.0], np.linspace(0, 1, 12).tolist())
    profile = StrategyProfile.uniform(3, 12)
    with pytest.raises(ValueError, match=r"^enumeration of 144 outcomes exceeds the 100 guard$"):
        brute_force_curves(profile, inst, max_terms=100)


# --- payment-rule mixture -----------------------------------------------------


def test_alpha_one_reduces_to_first_price_bit_exactly():
    """The mixture branch with alpha = 1 carries a factor-zero correction and
    must reproduce the pure first-price branch bit for bit."""
    rng = np.random.default_rng(23)
    for _ in range(8):
        inst = random_small_instance(rng, alpha=1.0)
        profile = random_profile(rng, inst.n_agents, inst.n_bids)
        weights = profile.weights
        engine = PayoffEngine(inst)
        assert not engine._use_mixture
        pure = engine.curves(engine.cdf_table(weights))
        engine._use_mixture = True  # force the mixture code path, share is 0.0
        mixture = engine.curves(engine.cdf_table(weights))
        assert np.array_equal(pure, mixture)


def test_mixture_halves_payment_between_bids():
    # single rival at a known point mass: winner pays the average of both bids
    inst = _instance([1.0, 1.0], [(0, 1)], [1.0], [0.0, 0.25, 0.5], alpha=0.5)
    profile = StrategyProfile.from_matrix(np.array([[0, 0, 1], [0, 1, 0]], dtype=float))
    # win at 0.5 against 0.25: pay (0.5 + 0.25) / 2
    expected = 1.0 - (0.5 + 0.25) / 2.0
    assert all_payoff_curves(profile, inst)[0, 2] == pytest.approx(expected, abs=1e-15)


def test_singleton_scenario_pays_alpha_times_bid():
    inst = _instance([1.0], [(0,)], [1.0], [0.0, 0.5, 1.0], alpha=0.5)
    profile = StrategyProfile.uniform(1, 3)
    curve = all_payoff_curves(profile, inst)[0]
    assert curve == pytest.approx([1.0, 0.75, 0.5], abs=1e-15)


# --- reference instance ------------------------------------------------------


def test_symmetric_binary_instance_flat_payoff():
    """Against the closed-form equilibrium, a value-1 agent's payoff is flat
    at 0.5 on (0, 1/2] (up to the 1/400 discretization) and strictly below
    0.5 beyond 1/2."""
    named = example_1()
    inst = named.instance
    profile = symmetric_binary_analytic_profile(inst)
    curve = all_payoff_curves(profile, inst)[2]
    half = np.searchsorted(inst.grid.bids, 0.5)
    assert np.abs(curve[1 : half + 1] - 0.5).max() <= 2.6e-3
    assert np.all(curve[half + 1 :] < 0.5)
    assert np.dot(profile.weights[2], curve) == pytest.approx(0.5, abs=0.01)


def test_payoff_curves_threadsafe():
    named = example_1()
    inst = named.instance
    profile = symmetric_binary_analytic_profile(inst)
    expected = list(all_payoff_curves(profile, inst))
    with ThreadPoolExecutor(max_workers=4) as pool:
        got = list(pool.map(lambda a: all_payoff_curves(profile, inst)[a], range(4)))
    for want, have in zip(expected, got):
        assert np.array_equal(want, have)

    # one workspace per thread, each reused for many calls
    inst = example_4().instance  # two rivals per scenario, so the rival products have buffers too
    engine = fb_payoff.engine_for(inst)
    table = engine.cdf_table(random_profile(np.random.default_rng(4), inst.n_agents, inst.n_bids).weights)
    expected = engine.curves(table)

    def own_workspace(_thread):
        work = engine.workspace()
        return [engine.curves(table, work).copy() for _ in range(50)]

    with ThreadPoolExecutor(max_workers=4) as pool:
        for results in pool.map(own_workspace, range(4)):
            assert all(np.array_equal(expected, have) for have in results)


def test_engine_cache_keeps_no_instance_alive(monkeypatch):
    monkeypatch.setattr(fb_payoff, "_ENGINES", weakref.WeakKeyDictionary())
    gc.disable()  # the instance must die by reference counting alone
    try:
        inst = _instance([1.0, 0.5], [(0, 1)], [1.0], [0.0, 0.5, 1.0])
        engine = fb_payoff.engine_for(inst)
        assert engine.instance is inst
        assert len(fb_payoff._ENGINES) == 1
        dead = weakref.ref(inst)
        del inst
        assert dead() is None
        assert len(fb_payoff._ENGINES) == 0
        assert engine.instance is None
    finally:
        gc.enable()
