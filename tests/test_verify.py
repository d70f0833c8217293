"""Certificates and distance-to-reference diagnostics."""
from __future__ import annotations

import re

import numpy as np
import pytest

import fbauction.verify as fb_verify
from conftest import brute_force_curves, random_profile, random_small_instance
from fbauction import (
    AuctionInstance,
    BidGrid,
    Scenario,
    StrategyProfile,
    all_payoff_curves,
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
        for a, curve in enumerate(brute_force_curves(profile, inst)):
            achieved = float(np.dot(profile.weights[a], curve))
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
    doc = certificate_to_json(cert)
    assert set(doc) == {"epsilon", "gaps", "payoffs", "best_response_bids"}
    assert len(doc["gaps"]) == inst.n_agents
    assert doc["epsilon"] == max(doc["gaps"])


def test_cdf_distance_identity():
    grid = BidGrid(np.array([0.0, 0.25, 0.5, 1.0]))

    def ref(b):
        return min(b + 0.5, 1.0)

    weights = np.diff(np.concatenate(([0.0], [ref(b) for b in grid.bids])))
    assert cdf_distance(weights, ref, grid) == 0.0


def test_cdf_distance_point_mass_vs_analytic_reference():
    grid = BidGrid.uniform(1.0, 400)

    def ref(b):
        return min(1.0 / (1.0 - b) - 1.0, 1.0) if b < 0.5 else 1.0

    point = np.zeros(len(grid))
    point[0] = 1.0
    # all mass at 0 against a reference that starts at 0: gap of 1 at b = 0
    assert cdf_distance(point, ref, grid) == 1.0


def test_cdf_distance_rejects_bad_references():
    grid = BidGrid(np.array([0.0, 0.5, 1.0]))
    strategy = np.array([0.2, 0.3, 0.5])
    with pytest.raises(ValueError):
        cdf_distance(strategy, lambda b: 1.0 - b, grid)  # decreasing
    with pytest.raises(ValueError):
        cdf_distance(strategy, lambda b: 0.5 * b, grid)  # ends at 0.5
    with pytest.raises(ValueError, match="^reference CDF must be finite on the grid$"):
        cdf_distance(strategy, lambda b: np.nan if b == 0.5 else min(1.0, b), grid)


def test_cdf_distance_rejects_a_strategy_of_another_grid():
    with pytest.raises(ValueError, match="^strategy and grid sizes differ$"):
        cdf_distance(np.array([0.2, 0.3, 0.5]), lambda b: b, BidGrid.uniform(1.0, 4))


@pytest.mark.parametrize("weights, message", [
    pytest.param([0.5, 0.6, 0.0], "strategy weights sum to 1.1, expected 1", id="sum"),
    pytest.param([1.5, -0.5, 0.0], "strategy weights must be non-negative", id="negative"),
    pytest.param([np.nan, 0.5, 0.5], "strategy weights must be finite", id="nan"),
    pytest.param([[1.0, 0.0, 0.0]], "strategy weights must be a non-empty 1-d array, got shape (1, 3)", id="matrix"),
])
def test_cdf_distance_rejects_a_row_that_is_not_a_probability_vector(weights, message):
    grid = BidGrid(np.array([0.0, 0.5, 1.0]))
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        cdf_distance(np.array(weights), lambda b: b, grid)
    assert cdf_distance(np.array([0.5, 0.0, 0.5]), lambda b: b, grid) == 0.5
