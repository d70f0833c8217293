"""Payoff engine vs. the brute-force enumeration oracle."""
from __future__ import annotations

import gc
import weakref
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fbauction.model
import fbauction.payoff as fb_payoff

from conftest import random_profile, random_small_instance, symmetric_binary_analytic_profile
from fbauction import (
    AuctionInstance,
    BidGrid,
    InvalidInstanceError,
    PayoffEngine,
    PaymentRule,
    PlayerAuction,
    Scenario,
    StrategyProfile,
    all_payoff_curves,
    brute_force_payoff,
    conditional_scenarios,
    convert_player_to_agent,
    example_1,
    example_4,
    participation_probabilities,
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
    assert [q for _, q in table.for_agent(1)] == [0.5, 0.5]
    assert [q for _, q in table.for_agent(0)] == [1.0]
    assert [q for _, q in table.for_agent(2)] == [1.0]


def test_conditional_scenarios_single_grand_scenario():
    inst = _instance([0.5, 0.5, 0.5], [(0, 1, 2)], [1.0], [0.0, 1.0])
    table = conditional_scenarios(inst)
    for a in range(3):
        assert [q for _, q in table.for_agent(a)] == [1.0]


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
    assert [q for _, q in table.for_agent(3)] == [1.0]
    assert [q for _, q in table.for_agent(0)] == pytest.approx([1 / 3] * 3)


def test_agent_outside_every_scenario_is_rejected():
    # such an instance cannot be built, so no conditional row divides by zero
    with pytest.raises(InvalidInstanceError) as raised:
        _instance([0.5, 0.5, 0.5], [(0, 1)], [1.0], [0.0, 1.0])
    assert raised.value.problems == ["agent 2 never participates in any scenario"]


def test_conditional_scenarios_match_the_per_agent_filter():
    inst = example_4().instance
    mass = participation_probabilities(inst)
    table = conditional_scenarios(inst)
    for a in range(inst.n_agents):
        assert table.for_agent(a) == tuple((s, s.prob / mass[a]) for s in inst.scenarios if a in s.members)


def test_engine_rejects_an_aggregation_matrix_above_the_table_limit(monkeypatch):
    # 4 agents x 2 grid levels pass validation; qmat is 4 agents x 5 rival sets
    named = example_1()
    inst = AuctionInstance(named.instance.values, named.instance.scenarios, BidGrid.uniform(1.0, 1), named.instance.rule)
    monkeypatch.setattr(fbauction.model, "MAX_TABLE_CELLS", 10)
    with pytest.raises(InvalidInstanceError) as raised:
        PayoffEngine(inst)
    assert raised.value.problems == ["4 agents x 5 rival sets exceed the 10-cell table limit"]
    with pytest.raises(InvalidInstanceError):
        run(inst, named.config)


def test_engine_rejects_a_rival_gather_above_the_table_limit(monkeypatch):
    # example 4 gathers 27 rival sets x 2 rivals x 402 levels = 21708 cells;
    # its qmat (243 cells) and agents x levels table (3609) fit the limit
    monkeypatch.setattr(fbauction.model, "MAX_TABLE_CELLS", 20_000)
    with pytest.raises(InvalidInstanceError) as raised:
        PayoffEngine(example_4().instance)
    assert raised.value.problems == ["27 rival sets x 2 rivals x 402 levels exceed the 20000-cell table limit"]


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
    assert brute_force_payoff(0, 2, rival_low, inst) == pytest.approx(0.5, abs=1e-15)
    # rival point mass exactly at the bid: ties lose
    rival_tie = StrategyProfile.from_matrix(np.array([[0, 0, 1, 0], [0, 0, 1, 0]], dtype=float))
    assert all_payoff_curves(rival_tie, inst)[0, 2] == 0.0
    assert brute_force_payoff(0, 2, rival_tie, inst) == 0.0


def test_bid_index_out_of_range():
    inst = _instance([1.0], [(0,)], [1.0], [0.0, 1.0])
    profile = StrategyProfile.uniform(1, 2)
    with pytest.raises(IndexError):
        brute_force_payoff(0, 5, profile, inst)


def test_engine_matches_brute_force():
    rng = np.random.default_rng(2024)
    for alpha in (1.0, 0.5, 0.0):
        for _ in range(12):
            inst = random_small_instance(rng, alpha=alpha)
            profile = random_profile(rng, inst.n_agents, inst.n_bids)
            agent = int(rng.integers(inst.n_agents))
            curve = all_payoff_curves(profile, inst)[agent]
            for j in {0, inst.n_bids - 1, int(rng.integers(inst.n_bids))}:
                fast = curve[j]
                slow = brute_force_payoff(agent, j, profile, inst)
                assert fast == pytest.approx(slow, abs=1e-12)


@st.composite
def converted_player_cases(draw):
    """A converted independent-player auction, a profile and one agent.

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
    alpha = draw(st.sampled_from([0.0, 0.5, 1.0]))
    inst = AuctionInstance(values, scenarios, BidGrid.uniform(1.0, draw(st.integers(2, 3))), PaymentRule(alpha))
    n, nb = inst.n_agents, inst.n_bids
    w = np.zeros((n, nb))
    for a in range(n):
        if draw(st.booleans()):
            w[a, draw(st.integers(0, nb - 1))] = 1.0
        else:
            w[a] = draw(st.lists(st.integers(0, 2), min_size=nb, max_size=nb).filter(any))
    w /= w.sum(axis=1, keepdims=True)
    return inst, StrategyProfile.from_matrix(w), draw(st.integers(0, n - 1))


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(converted_player_cases())
def test_engine_matches_brute_force_on_converted_player_auctions(case):
    inst, profile, agent = case
    engine = PayoffEngine(inst)
    curve = engine.curves(engine.cdf_table(profile.weights))[agent]
    oracle = [brute_force_payoff(agent, j, profile, inst) for j in range(inst.n_bids)]
    assert curve == pytest.approx(oracle, abs=1e-12)


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
    oracle = np.mean([brute_force_payoff(0, k, uniform, inst) for k in range(nb)])
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
    with pytest.raises(ValueError):
        brute_force_payoff(0, 1, profile, inst, max_terms=100)


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
