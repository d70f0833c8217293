"""Certificates and distance-to-reference diagnostics."""
from __future__ import annotations

import numpy as np
import pytest

import fbauction.verify as fb_verify
from conftest import random_profile, random_small_instance
from fbauction import (
    AuctionInstance,
    BidGrid,
    MixedStrategy,
    Scenario,
    StrategyProfile,
    all_payoff_curves,
    brute_force_payoff,
    cdf_distance,
    certificate_to_json,
    certify,
)


def test_certify_refuses_non_finite_epsilon(monkeypatch):
    # no valid instance yields a NaN payoff, so make agent 1's whole payoff
    # curve NaN by hand; its rivals' stay finite
    scenarios = (Scenario(frozenset({0, 1}), 0.5), Scenario(frozenset({1, 2}), 0.5))
    inst = AuctionInstance(np.array([1.0, 0.75, 0.5]), scenarios, BidGrid(np.array([0.0, 0.5, 1.0])))
    curves = fb_verify.all_payoff_curves

    def nan_for_agent_1(profile, instance):
        out = curves(profile, instance).copy()
        out[1] = np.nan
        return out

    monkeypatch.setattr(fb_verify, "all_payoff_curves", nan_for_agent_1)
    with pytest.raises(ValueError, match=r"non-finite best-reply gap for agents \[1\]$"):
        certify(StrategyProfile.uniform(3, 3), inst)


def test_certify_mutual_best_response_is_exact():
    scenarios = (Scenario(frozenset({0, 1}), 1.0),)
    inst = AuctionInstance(np.array([1.0, 0.5]), scenarios, BidGrid(np.array([0.0, 0.25, 0.5, 1.0])))
    w = np.zeros((2, 4))
    w[0, 1] = 1.0
    w[1, 0] = 1.0
    cert = certify(StrategyProfile.from_matrix(w), inst)
    assert cert.epsilon == 0.0
    assert cert.gaps.tolist() == [0.0, 0.0]
    assert cert.best_response_bids.tolist() == [1, 0]
    assert cert.payoffs == pytest.approx([0.75, 0.0], abs=1e-15)


def test_certificate_and_brute_force_gaps_agree():
    rng = np.random.default_rng(31)
    for alpha in (1.0, 0.5):
        inst = random_small_instance(rng, max_grid=8, alpha=alpha)
        profile = random_profile(rng, inst.n_agents, inst.n_bids)
        cert = certify(profile, inst)
        assert cert.epsilon >= 0.0
        for a in range(inst.n_agents):
            curve = np.array([brute_force_payoff(a, j, profile, inst) for j in range(inst.n_bids)])
            achieved = float(np.dot(profile.strategies[a].weights, curve))
            gap = max(curve.max() - achieved, 0.0)
            assert cert.gaps[a] == pytest.approx(gap, abs=1e-10)
            assert cert.payoffs[a] == pytest.approx(achieved, abs=1e-10)


def test_no_mixed_deviation_beats_the_gap():
    rng = np.random.default_rng(77)
    inst = random_small_instance(rng)
    profile = random_profile(rng, inst.n_agents, inst.n_bids)
    cert = certify(profile, inst)
    for _ in range(20):
        agent = int(rng.integers(inst.n_agents))
        weights = profile.weights.copy()
        weights[agent] = random_profile(rng, 1, inst.n_bids).weights[0]
        deviated = StrategyProfile(weights)
        gain = np.dot(deviated.weights[agent], all_payoff_curves(deviated, inst)[agent]) - cert.payoffs[agent]
        assert gain <= cert.gaps[agent] + 1e-12


def test_certificate_json_fields():
    rng = np.random.default_rng(8)
    inst = random_small_instance(rng)
    cert = certify(random_profile(rng, inst.n_agents, inst.n_bids), inst)
    doc = certificate_to_json(cert, iterations=123, config_echo={"max_iterations": 123})
    assert set(doc) == {"epsilon", "gaps", "payoffs", "best_response_bids", "iterations", "config_echo"}
    assert doc["iterations"] == 123
    assert len(doc["gaps"]) == inst.n_agents
    assert doc["epsilon"] == max(doc["gaps"])


def test_cdf_distance_identity():
    grid = BidGrid(np.array([0.0, 0.25, 0.5, 1.0]))

    def ref(b):
        return min(b + 0.5, 1.0)

    weights = np.diff(np.concatenate(([0.0], [ref(b) for b in grid.bids])))
    strategy = MixedStrategy(weights)
    assert cdf_distance(strategy, ref, grid) == 0.0


def test_cdf_distance_point_mass_vs_analytic_reference():
    grid = BidGrid.uniform(1.0, 400)

    def ref(b):
        return min(1.0 / (1.0 - b) - 1.0, 1.0) if b < 0.5 else 1.0

    point = np.zeros(len(grid))
    point[0] = 1.0
    # all mass at 0 against a reference that starts at 0: gap of 1 at b = 0
    assert cdf_distance(MixedStrategy(point), ref, grid) == 1.0


def test_cdf_distance_rejects_bad_references():
    grid = BidGrid(np.array([0.0, 0.5, 1.0]))
    strategy = MixedStrategy(np.array([0.2, 0.3, 0.5]))
    with pytest.raises(ValueError):
        cdf_distance(strategy, lambda b: 1.0 - b, grid)  # decreasing
    with pytest.raises(ValueError):
        cdf_distance(strategy, lambda b: 0.5 * b, grid)  # ends at 0.5
    with pytest.raises(ValueError, match="^reference CDF must be finite on the grid$"):
        cdf_distance(strategy, lambda b: np.nan if b == 0.5 else min(1.0, b), grid)


def test_cdf_distance_rejects_a_strategy_of_another_grid():
    strategy = MixedStrategy(np.array([0.2, 0.3, 0.5]))
    with pytest.raises(ValueError, match="^strategy and grid sizes differ$"):
        cdf_distance(strategy, lambda b: b, BidGrid.uniform(1.0, 4))
