"""Fictitious-bidding loop: updates, schedules, termination, determinism."""
from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from conftest import random_profile, symmetric_binary_analytic_profile
from fbauction import (
    AuctionInstance,
    BidGrid,
    InvalidInstanceError,
    LearningSchedule,
    PaymentRule,
    Scenario,
    SolverConfig,
    StrategyProfile,
    all_payoff_curves,
    certify,
    example_1,
    example_3,
    random_instance,
    run,
)
from fbauction.payoff import engine_for
from fbauction.verify import best_replies


def _instance(values, member_sets, probs, grid_bids, alpha=1.0):
    scenarios = tuple(Scenario(frozenset(m), p) for m, p in zip(member_sets, probs))
    return AuctionInstance(np.array(values, dtype=float), scenarios, BidGrid(np.array(grid_bids, dtype=float)), PaymentRule(alpha))


def _step(profile, config, inst):
    """One fictitious-bidding update of ``profile``: ``run`` from it for a single iteration."""
    return run(inst, dataclasses.replace(config, init=profile, max_iterations=1)).profile


def _classical_fp(named):
    """Equal-weight averaging of all past best replies from a point-mass start."""
    init = StrategyProfile.point_mass(named.instance.n_agents, named.instance.n_bids)
    return dataclasses.replace(named.config, schedule=LearningSchedule.harmonic(1.0), init=init)


def test_schedule_rates():
    harmonic = LearningSchedule.harmonic(1.0)
    assert harmonic.rate(0) == 1.0
    assert harmonic.rate(3) == 0.25
    constant = LearningSchedule.constant(0.05)
    assert constant.rate(0) == constant.rate(10**6) == 0.05
    with pytest.raises(ValueError):
        LearningSchedule.harmonic(1.5)  # first step would leave the simplex
    with pytest.raises(ValueError):
        LearningSchedule.constant(0.0)
    with pytest.raises(ValueError):
        LearningSchedule("geometric", 0.5)


def test_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(max_iterations=-1)
    with pytest.raises(ValueError):
        SolverConfig(check_interval=0)
    for init in ("gaussian", "uniform", "point-mass-at-zero"):  # a start is a profile or None
        with pytest.raises(ValueError):
            SolverConfig(init=init)
    with pytest.raises(ValueError):
        SolverConfig(epsilon_target=-0.1)
    with pytest.raises(ValueError):
        SolverConfig(epsilon_target=float("nan"))


def test_best_response_sole_participant():
    inst = _instance([1.0], [(0,)], [1.0], [0.0, 0.5, 1.0])
    profile = StrategyProfile.uniform(1, 3)
    assert certify(profile, inst).best_response_bids.tolist() == [0]
    assert all_payoff_curves(profile, inst)[0, 0] == 1.0


def test_best_response_breaks_ties_to_lowest_index():
    # a sole participant with alpha = 0 pays nothing: flat curve, exact ties
    inst = _instance([0.75], [(0,)], [1.0], [0.0, 0.5, 1.0], alpha=0.0)
    profile = StrategyProfile.uniform(1, 3)
    index = certify(profile, inst).best_response_bids[0]
    assert index == 0
    assert all_payoff_curves(profile, inst)[0, index] == 0.75


def test_best_response_on_a_flat_payoff_region():
    # at the discretized closed-form equilibrium a value-1 agent's payoff is
    # flat on (0, 1/2]: the best reply lands there and earns about 0.5
    named = example_1()
    profile = symmetric_binary_analytic_profile(named.instance)
    index = certify(profile, named.instance).best_response_bids[2]
    bid = named.instance.grid.bids[index]
    assert 0.0 < bid <= 0.5
    assert all_payoff_curves(profile, named.instance)[2, index] == pytest.approx(0.5, abs=2.6e-3)


def test_fb_step_full_rate_gives_point_masses():
    inst = _instance([0.6, 1.0], [(0, 1)], [1.0], [0.0, 0.25, 0.5, 1.0])
    config = SolverConfig(schedule=LearningSchedule.harmonic(1.0), max_iterations=1)
    rng = np.random.default_rng(1)
    profile = random_profile(rng, 2, 4)
    # eta_0 = 1: the update replaces each strategy by its best reply outright
    stepped = _step(profile, config, inst)
    expected = np.zeros((2, 4))
    expected[[0, 1], certify(profile, inst).best_response_bids] = 1.0
    assert np.array_equal(stepped.weights, expected)


def test_fb_step_uses_one_snapshot_for_everyone():
    """Relabeling agents and relabeling back reproduces the step bit for bit,
    so no agent's update can depend on another agent's update this round."""
    named = example_1()
    inst = named.instance
    rng = np.random.default_rng(9)
    profile = random_profile(rng, 4, inst.n_bids)
    config = SolverConfig(schedule=LearningSchedule.constant(0.25), max_iterations=1)

    perm = [2, 0, 3, 1]  # new index of each old agent
    permuted_inst = AuctionInstance(
        values=inst.values[np.argsort(perm)],
        scenarios=tuple(Scenario(frozenset(perm[m] for m in s.members), s.prob) for s in inst.scenarios),
        grid=inst.grid,
        rule=inst.rule,
    )
    permuted_profile = StrategyProfile.from_matrix(profile.weights[np.argsort(perm)])

    direct = _step(profile, config, inst).weights
    roundabout = _step(permuted_profile, config, permuted_inst).weights[perm]
    assert np.array_equal(direct, roundabout)


def test_fb_step_fixed_point_at_mutual_best_response():
    # value-1 agent undercut at 0.25, value-0.5 agent priced out at 0:
    # each is the other's lowest-index best reply
    inst = _instance([1.0, 0.5], [(0, 1)], [1.0], [0.0, 0.25, 0.5, 1.0])
    w = np.zeros((2, 4))
    w[0, 1] = 1.0
    w[1, 0] = 1.0
    profile = StrategyProfile.from_matrix(w)
    assert certify(profile, inst).epsilon == 0.0
    config = SolverConfig(schedule=LearningSchedule.constant(0.25), max_iterations=1)
    stepped = _step(profile, config, inst)
    assert np.allclose(stepped.weights, w, atol=1e-15)
    assert np.array_equal(stepped.weights != 0.0, w != 0.0)


def test_run_zero_iterations_certifies_initialization():
    named = example_1()
    config = dataclasses.replace(named.config, max_iterations=0)
    result = run(named.instance, config)
    assert result.iterations_run == 0
    assert np.array_equal(result.profile.weights, StrategyProfile.uniform(4, 401).weights)
    assert result.certificate.epsilon > 0.1  # uniform start is far from equilibrium
    assert result.trajectory == ((0, result.certificate.epsilon),)


def test_run_is_deterministic():
    named = example_1()
    config = dataclasses.replace(named.config, max_iterations=3000, check_interval=500)
    first = run(named.instance, config)
    second = run(named.instance, config)
    assert np.array_equal(first.profile.weights, second.profile.weights)
    assert first.certificate.epsilon == second.certificate.epsilon
    assert first.trajectory == second.trajectory
    assert first.iterations_run == second.iterations_run == 3000


def test_run_stops_at_epsilon_target():
    named = example_1()
    config = dataclasses.replace(
        named.config, max_iterations=50_000, check_interval=200, epsilon_target=0.05
    )
    result = run(named.instance, config)
    assert result.iterations_run < 50_000
    assert result.iterations_run % 200 == 0
    assert result.certificate.epsilon <= 0.05
    # trajectory samples every interval until the stop
    ticks = [k for k, _ in result.trajectory]
    assert ticks == list(range(200, result.iterations_run + 1, 200))


def test_run_rejects_invalid_instance():
    # the instance rejects itself on construction, so run never receives it
    scenarios = (Scenario(frozenset({0}), 1.0),)
    with pytest.raises(InvalidInstanceError) as raised:
        AuctionInstance(np.array([0.5, 0.5]), scenarios, BidGrid.uniform(1.0, 4))
    assert raised.value.problems == ["agent 1 never participates in any scenario"]


def test_simplex_preserved_across_many_steps():
    named = example_1()
    config = dataclasses.replace(named.config, max_iterations=20_000)
    result = run(named.instance, config)
    sums = result.profile.weights.sum(axis=1)
    assert np.abs(sums - 1.0).max() <= 1e-9
    assert result.renormalizations == 0


@pytest.mark.parametrize("named, ties", [(example_1(), True), (random_instance(0), False)],
                         ids=["example-1", "random-0"])
def test_run_matches_the_update_rule_on_strategy_weights(monkeypatch, named, ties):
    """``run`` carries CDF tables; replaying its best replies on the weights
    themselves, ``w <- (1 - eta) w + eta e_best``, gives the same profile.

    Each replayed reply must be a best reply to the replayed profile. Example
    1 has exact payoff ties (at step 134 levels 133 and 134 both pay
    35511/53600), which either rounding path may break either way, so there
    a reply only has to come within 1e-12 of the best payoff.
    """
    inst, steps = named.instance, 3000
    engine = engine_for(inst)
    plain_curves = engine.curves
    replies = []

    def recording_curves(table):
        curves = plain_curves(table)
        replies.append(best_replies(curves))
        return curves

    monkeypatch.setattr(engine, "curves", recording_curves)
    result = run(inst, dataclasses.replace(named.config, max_iterations=steps, check_interval=steps))
    assert len(replies) == steps + 1  # one per step, then the certificate's

    w = StrategyProfile.uniform(inst.n_agents, inst.n_bids).weights.copy()
    rows = np.arange(inst.n_agents)
    off_rule = 0
    for k, best in enumerate(replies[:steps]):
        curves = plain_curves(engine.cdf_table(w))
        assert np.all(curves[rows, best] >= curves.max(axis=1) - 1e-12)
        off_rule += int(np.any(best != best_replies(curves)))
        eta = named.config.schedule.rate(k)
        w *= 1.0 - eta
        w[rows, best] += eta
    assert np.abs(result.profile.weights - w).max() <= 1e-12
    assert ties or off_rule == 0


def test_weights_stay_exactly_on_the_simplex_through_ties():
    # example 3 has multi-rival scenarios and many tied best replies
    named = example_3()
    result = run(named.instance, dataclasses.replace(named.config, max_iterations=20_000))
    weights = result.profile.weights
    assert weights.min() >= 0.0
    assert np.abs(weights.sum(axis=1) - 1.0).max() <= 1e-15
    assert result.renormalizations == 0


def test_classical_fp_mode_counts_best_responses():
    """With equal-weight averaging, weights are exactly the best-reply
    frequencies of the run so far, replayed here step by step."""
    named = example_1()
    inst = named.instance
    config = _classical_fp(named)

    steps = 400
    counts = np.zeros((4, inst.n_bids))
    profile = StrategyProfile.point_mass(4, inst.n_bids)
    for k in range(steps):
        counts[np.arange(4), certify(profile, inst).best_response_bids] += 1.0
        profile = run(inst, dataclasses.replace(config, max_iterations=k + 1)).profile
        replayed = counts / (k + 1)
        assert np.abs(profile.weights - replayed).max() <= 1e-12 * (k + 1)


def test_classical_fp_first_step_is_pure_best_response():
    named = example_1()
    inst = named.instance
    config = dataclasses.replace(_classical_fp(named), max_iterations=1)
    init = StrategyProfile.point_mass(4, inst.n_bids)
    stepped = run(inst, config).profile
    best = certify(init, inst).best_response_bids
    assert np.all(stepped.weights[np.arange(4), best] == 1.0)


def test_explicit_initialization_is_respected():
    named = example_1()
    rng = np.random.default_rng(4)
    start = random_profile(rng, 4, named.instance.n_bids)
    config = dataclasses.replace(named.config, max_iterations=0, init=start)
    result = run(named.instance, config)
    assert np.array_equal(result.profile.weights, start.weights)
    bad = StrategyProfile.uniform(4, 10)
    with pytest.raises(ValueError):
        run(named.instance, dataclasses.replace(named.config, init=bad, max_iterations=1))
