"""Model types, validation, and the player-to-agent conversion."""
from __future__ import annotations

import numpy as np
import pytest

import fbauction.model
from conftest import exhaustive_player_payoffs, random_player_auction, random_profile
from fbauction import (
    AuctionInstance,
    BidGrid,
    InvalidInstanceError,
    MixedStrategy,
    PaymentRule,
    PlayerAuction,
    Scenario,
    StrategyProfile,
    certify,
    convert_player_to_agent,
    participation_probabilities,
    player_payoff,
    validate_instance,
)


def test_bid_grid_uniform():
    grid = BidGrid.uniform(1.0, 400)
    assert len(grid) == 401
    assert grid.bids[0] == 0.0
    assert grid.bids[-1] == 1.0
    assert grid.bids[1] == 1.0 / 400.0


@pytest.mark.parametrize("max_bid", [np.nan, np.inf, 0.0])
def test_bid_grid_uniform_rejects_bad_max_bid(max_bid):
    with pytest.raises(ValueError, match="max_bid must be positive and finite"):
        BidGrid.uniform(max_bid, 4)


def test_bid_grid_uniform_rejects_oversized_grid():
    # checked before linspace: 10**9 steps would allocate 8 GB
    for steps in (fbauction.model.MAX_TABLE_CELLS, 10**9):
        with pytest.raises(ValueError, match="grid levels exceed the"):
            BidGrid.uniform(1.0, steps)


def test_validate_reports_oversized_table(monkeypatch):
    inst = _pair_instance([1.0])  # 2 agents x 5 grid levels
    assert validate_instance(inst) == []
    monkeypatch.setattr(fbauction.model, "MAX_TABLE_CELLS", 9)
    assert validate_instance(inst) == ["2 agents x 5 grid levels exceed the 9-cell table limit"]


@pytest.mark.parametrize(
    "bids",
    [[0.0], [0.1, 0.5], [0.0, 0.5, 0.5], [0.0, 0.5, 0.2], [0.0, np.nan, 1.0], [0.0, 1.0, np.inf]],
)
def test_bid_grid_rejects_bad_levels(bids):
    with pytest.raises(ValueError):
        BidGrid(np.array(bids))


def test_scenario_invariants():
    with pytest.raises(ValueError):
        Scenario(frozenset(), 0.5)
    with pytest.raises(ValueError):
        Scenario(frozenset({0}), -0.1)
    with pytest.raises(ValueError):
        Scenario(frozenset({0}), 1.5)


def test_payment_rule_range():
    assert PaymentRule(0.5).alpha == 0.5
    with pytest.raises(ValueError):
        PaymentRule(1.2)


def _pair_instance(probs, values=(0.3, 0.7), grid_steps=4):
    scenarios = tuple(Scenario(frozenset({0, 1}), p) for p in probs)
    return AuctionInstance(np.array(values), scenarios, BidGrid.uniform(1.0, grid_steps))


def test_scenarios_canonicalized():
    inst = AuctionInstance(
        values=np.array([0.5, 0.5, 0.5]),
        scenarios=(
            Scenario(frozenset({1, 2}), 0.25),
            Scenario(frozenset({0, 1}), 0.25),
            Scenario(frozenset({1, 2}), 0.25),
            Scenario(frozenset({0, 2}), 0.0),
            Scenario(frozenset({0, 1}), 0.25),
        ),
        grid=BidGrid.uniform(1.0, 4),
    )
    assert [sorted(s.members) for s in inst.scenarios] == [[0, 1], [1, 2]]
    assert [s.prob for s in inst.scenarios] == [0.5, 0.5]
    # agent 2's only positive-probability scenario survived the zero drop
    assert validate_instance(inst) == []


def test_validate_reports_probability_sum():
    scenarios = (Scenario(frozenset({0, 1}), 0.5), Scenario(frozenset({0}), 0.6))
    with pytest.raises(InvalidInstanceError) as raised:
        AuctionInstance(np.array([0.3, 0.7]), scenarios, BidGrid.uniform(1.0, 4))
    assert any("sum to 1.1" in msg for msg in raised.value.problems)


def test_validate_reports_missing_agent():
    scenarios = (Scenario(frozenset({0, 1}), 1.0),)
    with pytest.raises(InvalidInstanceError) as raised:
        AuctionInstance(np.array([0.1, 0.2, 0.3]), scenarios, BidGrid.uniform(1.0, 4))
    assert any("agent 2 never participates" in msg for msg in raised.value.problems)


def test_validate_reports_unknown_member_and_negative_value():
    scenarios = (Scenario(frozenset({0, 5}), 1.0),)
    with pytest.raises(InvalidInstanceError) as raised:
        AuctionInstance(np.array([-0.1, 0.2, np.nan, np.inf]), scenarios, BidGrid.uniform(1.0, 4))
    report = raised.value.problems
    assert any("unknown agents [5]" in msg for msg in report)
    assert any("negative values" in msg for msg in report)
    assert "agents [2, 3] have non-finite values" in report
    assert any("agent 1 never participates" in msg for msg in report)


def test_validate_reports_an_unknown_member_once():
    scenarios = (Scenario(frozenset({0, 2}), 0.5), Scenario(frozenset({1, 2}), 0.5))
    with pytest.raises(InvalidInstanceError) as raised:
        AuctionInstance(np.array([0.1, 0.2]), scenarios, BidGrid.uniform(1.0, 4))
    assert raised.value.problems == ["scenarios reference unknown agents [2]"]


def test_mixed_strategy_invariants():
    MixedStrategy(np.array([0.5, 0.5]))
    with pytest.raises(ValueError):
        MixedStrategy(np.array([0.5, 0.6]))
    with pytest.raises(ValueError):
        MixedStrategy(np.array([1.5, -0.5]))


def test_strategy_profile_shapes():
    profile = StrategyProfile.uniform(3, 5)
    assert profile.n_agents == 3
    assert profile.weights.shape == (3, 5)
    point = StrategyProfile.point_mass(2, 4, bid_index=1)
    assert point.strategies[0].weights[1] == 1.0
    with pytest.raises(ValueError):
        StrategyProfile([[1.0], [0.5, 0.5]])
    with pytest.raises(TypeError):  # a profile is a weight matrix, not a sequence of strategies
        StrategyProfile((MixedStrategy(np.array([1.0, 0.0])), MixedStrategy(np.array([0.5, 0.5]))))


def test_model_types_are_immutable():
    inst = _pair_instance([1.0])
    with pytest.raises(Exception):
        inst.values[0] = 2.0
    with pytest.raises(Exception):
        inst.grid.bids[0] = 0.5
    strat = MixedStrategy(np.array([1.0, 0.0]))
    with pytest.raises(Exception):
        strat.weights[0] = 0.3


def test_participation_probabilities():
    inst = AuctionInstance(
        values=np.array([0.0, 0.0, 1.0, 1.0]),
        scenarios=tuple(Scenario(frozenset(m), 0.25) for m in [(0, 1), (2, 3), (0, 3), (1, 2)]),
        grid=BidGrid.uniform(1.0, 4),
    )
    assert np.allclose(participation_probabilities(inst), 0.5)


@pytest.mark.parametrize("stray", [2, -1])
def test_unknown_scenario_members_are_rejected(stray):
    # member 2 would read the absent-rival row of the CDF table, and -1 would
    # credit agent 1 with participation it never has
    scenarios = (Scenario(frozenset({0, 1}), 0.5), Scenario(frozenset({0, stray}), 0.5))
    with pytest.raises(InvalidInstanceError) as raised:
        AuctionInstance(np.array([1.0, 1.0]), scenarios, BidGrid.uniform(1.0, 4))
    assert raised.value.problems == [f"scenarios reference unknown agents [{stray}]"]


# --- player-based view and conversion -------------------------------------


def test_convert_single_player_single_value():
    players = PlayerAuction((np.array([0.7]),), np.array([1.0]))
    values, scenarios, partition = convert_player_to_agent(players)
    assert values.tolist() == [0.7]
    assert len(scenarios) == 1
    assert scenarios[0].members == frozenset({0})
    assert scenarios[0].prob == 1.0
    assert partition.blocks == ((0,),)


def test_convert_three_symmetric_players():
    players = PlayerAuction.independent(
        value_sets=[[0.1, 0.2, 0.25]] * 3,
        marginals=[[0.25, 0.25, 0.5], [0.05, 0.45, 0.5], [0.05, 0.45, 0.5]],
    )
    values, scenarios, partition = convert_player_to_agent(players)
    assert values.size == 9
    assert len(scenarios) == 27  # full support: nothing pruned
    assert partition.blocks == ((0, 1, 2), (3, 4, 5), (6, 7, 8))
    total = sum(s.prob for s in scenarios)
    assert total == pytest.approx(1.0, abs=1e-9)
    # every scenario picks exactly one agent per player
    for s in scenarios:
        assert sorted(partition.agent_player[list(s.members)].tolist()) == [0, 1, 2]


def test_convert_drops_zero_probability_profiles():
    joint = np.array([[0.5, 0.0], [0.25, 0.25]])
    players = PlayerAuction((np.array([0.1, 0.2]), np.array([0.3, 0.4])), joint)
    _values, scenarios, _partition = convert_player_to_agent(players)
    assert len(scenarios) == 3


def test_convert_output_validates():
    rng = np.random.default_rng(7)
    for _ in range(10):
        players = random_player_auction(rng)
        values, scenarios, _ = convert_player_to_agent(players)
        inst = AuctionInstance(values, scenarios, BidGrid.uniform(1.0, 4))
        assert validate_instance(inst) == []
        assert sum(s.prob for s in inst.scenarios) == pytest.approx(1.0, abs=1e-9)


def test_convert_uniform_binary_matches_symmetric_pair():
    """Two players with {0,1} values, uniform independent, is the symmetric
    four-agent instance with scenarios {01, 23, 03, 12} after relabeling."""
    players = PlayerAuction.independent([[0.0, 1.0], [0.0, 1.0]], [[0.5, 0.5], [0.5, 0.5]])
    values, scenarios, _ = convert_player_to_agent(players)
    # converted agent order is (p0 v0, p0 v1, p1 v0, p1 v1); relabel to group
    # the two value-0 agents first
    relabel = {0: 0, 2: 1, 1: 2, 3: 3}
    relabeled = {frozenset(relabel[m] for m in s.members) for s in scenarios}
    assert np.array_equal(values[[0, 2, 1, 3]], np.array([0.0, 0.0, 1.0, 1.0]))
    assert relabeled == {
        frozenset({0, 1}),
        frozenset({2, 3}),
        frozenset({0, 3}),
        frozenset({1, 2}),
    }
    assert {s.prob for s in scenarios} == {0.25}


def test_player_auction_rejects_empty_value_set():
    with pytest.raises(ValueError):
        PlayerAuction((np.array([]),), np.array([1.0]))


@pytest.mark.parametrize(
    "value_sets, joint, message",
    [
        ([[0.1], [0.2]], [[np.nan]], "joint probabilities must be finite"),
        ([[0.1, 0.2], [0.3]], [[np.nan], [0.5]], "joint probabilities must be finite"),
        ([[0.1, 0.2], [0.3]], [[np.inf], [0.5]], "joint probabilities must be finite"),
        ([[0.1, np.inf]], [0.5, 0.5], "player 0 has non-finite values"),
        ([[0.2], [np.nan, 0.1]], [[0.5, 0.5]], "player 1 has non-finite values"),
    ],
)
def test_player_auction_rejects_non_finite_input(value_sets, joint, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        PlayerAuction(tuple(np.array(vs) for vs in value_sets), np.array(joint))


def test_player_payoff_linearity_and_identity():
    players = PlayerAuction.independent([[0.2], [0.4]], [[1.0], [1.0]])
    _, _, partition = convert_player_to_agent(players)
    zero = player_payoff(partition, np.zeros(2), np.ones(2))
    assert zero.tolist() == [0.0, 0.0]
    # one agent per player with participation 1: player payoff is agent payoff
    out = player_payoff(partition, np.array([0.3, -0.1]), np.ones(2))
    assert out.tolist() == [0.3, -0.1]
    with pytest.raises(ValueError):
        player_payoff(partition, np.zeros(3), np.ones(2))


def test_player_payoff_at_analytic_equilibrium():
    """Symmetric binary-value pair at the closed-form equilibrium.

    Each player's payoff recomposes from its agents as roughly 0.25: the
    value-1 agent earns about 0.5 conditional on participating, half the
    time, and the value-0 agent earns nothing. The exhaustive player-based
    enumeration is the reference.
    """
    players = PlayerAuction.independent([[0.0, 1.0], [0.0, 1.0]], [[0.5, 0.5], [0.5, 0.5]])
    values, scenarios, partition = convert_player_to_agent(players)
    grid = BidGrid.uniform(1.0, 400)
    inst = AuctionInstance(values, scenarios, grid)

    bids = grid.bids
    ref = np.minimum(1.0 / (1.0 - np.minimum(bids, 0.5)) - 1.0, 1.0)
    g_weights = np.diff(np.concatenate(([0.0], ref)))
    zero_bid = np.zeros(len(grid))
    zero_bid[0] = 1.0
    rows = [zero_bid, g_weights, zero_bid, g_weights]  # agent order: p0v0, p0v1, p1v0, p1v1
    profile = StrategyProfile.from_matrix(np.vstack(rows))

    agent_payoffs = certify(profile, inst).payoffs
    recomposed = player_payoff(partition, agent_payoffs, participation_probabilities(inst))
    direct = exhaustive_player_payoffs(players, rows, bids, alpha=1.0)
    assert np.allclose(recomposed, direct, atol=1e-12)
    assert recomposed == pytest.approx([0.25, 0.25], abs=0.01)
    # conditional payoff of the value-1 agents sits at the flat 0.5 level
    assert agent_payoffs[[1, 3]] == pytest.approx([0.5, 0.5], abs=0.01)


def test_player_agent_payoff_round_trip():
    """Agent-based evaluation recomposes to the exhaustive player payoff."""
    rng = np.random.default_rng(42)
    checked = 0
    while checked < 12:
        players = random_player_auction(rng)
        values, scenarios, partition = convert_player_to_agent(players)
        n_bids = int(rng.integers(2, 6))
        interior = np.unique(rng.random(n_bids - 1))
        grid = BidGrid(np.concatenate(([0.0], interior)))
        alpha = float(rng.choice([1.0, 0.5, 0.0]))
        inst = AuctionInstance(values, scenarios, grid, PaymentRule(alpha))
        profile = random_profile(rng, inst.n_agents, inst.n_bids)
        weights = [s.weights for s in profile.strategies]

        agent_payoffs = certify(profile, inst).payoffs
        recomposed = player_payoff(partition, agent_payoffs, participation_probabilities(inst))
        direct = exhaustive_player_payoffs(players, weights, grid.bids, alpha)
        assert np.allclose(recomposed, direct, atol=1e-12)
        checked += 1
