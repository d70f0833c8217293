"""End-to-end reproduction checks for the bundled instances.

Each numbered criterion prints one PASS/FAIL line; run with

    pytest tests/test_acceptance.py -v -s

The whole module takes about 72 s with BLAS at 1 thread on a 2-core host:
criterion 5 takes 57 s and criterion 2's setup 6.6 s, because both run a
million solver iterations per instance at their reference settings.
"""
from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from conftest import exhaustive_player_payoffs, random_player_auction, random_profile, random_small_instance
from fbauction import (
    AuctionInstance,
    BidGrid,
    LearningSchedule,
    PayoffEngine,
    PaymentRule,
    StrategyProfile,
    all_payoff_curves,
    brute_force_payoff,
    cdf_distance,
    certify,
    convert_player_to_agent,
    example_1,
    example_2,
    example_3,
    example_4,
    example_5,
    participation_probabilities,
    player_payoff,
    random_instance,
    run,
)

pytestmark = pytest.mark.acceptance


def _report(criterion: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {criterion}: {detail}")
    assert ok, f"{criterion}: {detail}"


@pytest.fixture(scope="module")
def example1_run():
    named = example_1()
    return named, run(named.instance, named.config)


@pytest.fixture(scope="module")
def example2_run():
    named = example_2()
    return named, run(named.instance, named.config)


def test_criterion_1_symmetric_binary_reproduction(example1_run):
    named, result = example1_run
    eps = result.certificate.epsilon
    profile = result.profile

    zero_mass = min(profile.strategies[a].weights[0] for a in (0, 1))

    def ref(b):
        return min(1.0 / (1.0 - b) - 1.0, 1.0) if b < 0.5 else 1.0

    distance = max(cdf_distance(profile.strategies[a], ref, named.instance.grid) for a in (2, 3))
    curves = all_payoff_curves(profile, named.instance)
    payoffs = [np.dot(profile.weights[a], curves[a]) for a in (2, 3)]
    ok = (
        eps <= 1e-3
        and zero_mass >= 0.99
        and distance <= 0.05
        and all(abs(p - 0.5) <= 0.02 for p in payoffs)
    )
    _report(
        "criterion 1 (example 1: grid 400, 1e5 iterations)",
        ok,
        f"eps={eps:.2e} (<=1e-3), zero-bid mass={zero_mass:.4f} (>=0.99), "
        f"cdf distance={distance:.4f} (<=0.05), value-1 payoffs={payoffs[0]:.4f}/{payoffs[1]:.4f} (0.5+-0.02)",
    )


def test_criterion_2_chain_instance(example2_run):
    _named, result = example2_run
    eps = result.certificate.epsilon
    _report("criterion 2 (example 2: grid 600, 1e6 iterations)", eps <= 1e-3, f"eps={eps:.2e} (<=1e-3)")


def test_criterion_3_grand_scenario_instance():
    named = example_3()
    result = run(named.instance, named.config)
    eps = result.certificate.epsilon
    _report("criterion 3 (example 3: grid 400, 1e5 iterations)", eps <= 1e-2, f"eps={eps:.2e} (<=1e-2)")


def test_criterion_4_converted_independent_instances():
    eps4 = run(example_4().instance, example_4().config).certificate.epsilon
    eps5 = run(example_5().instance, example_5().config).certificate.epsilon
    ok = eps4 <= 1e-3 and eps5 <= 5e-3
    _report(
        "criterion 4 (examples 4 and 5 via player conversion)",
        ok,
        f"eps4={eps4:.2e} (<=1e-3), eps5={eps5:.2e} (<=5e-3)",
    )


def test_criterion_5_random_batch_envelope():
    epsilons = []
    for seed in range(10):
        named = random_instance(seed)
        result = run(named.instance, named.config)
        epsilons.append(result.certificate.epsilon)
        print(f"  seed {seed}: eps={result.certificate.epsilon:.5f}")
    within_tight = sum(e <= 0.02 for e in epsilons)
    ok = within_tight >= 9 and all(e <= 0.05 for e in epsilons)
    _report(
        "criterion 5 (10 random instances at reference settings)",
        ok,
        f"{within_tight}/10 runs <=0.02, max eps={max(epsilons):.5f} (<=0.05)",
    )


def test_criterion_6_oracle_equivalence():
    rng = np.random.default_rng(1234)
    cases = 0
    worst = 0.0
    for alpha in (1.0, 0.5, 0.0):
        for _ in range(34):
            inst = random_small_instance(rng, alpha=alpha)
            profile = random_profile(rng, inst.n_agents, inst.n_bids)
            agent = int(rng.integers(inst.n_agents))
            curve = all_payoff_curves(profile, inst)[agent]
            for j in {0, inst.n_bids - 1, int(rng.integers(inst.n_bids))}:
                fast = curve[j]
                slow = brute_force_payoff(agent, j, profile, inst)
                worst = max(worst, abs(fast - slow))
            cases += 1
    ok = cases >= 100 and worst <= 1e-12
    _report(
        "criterion 6 (closed-form engine vs brute-force oracle)",
        ok,
        f"{cases} instances across alpha in (1, 0.5, 0), max |diff|={worst:.2e} (<=1e-12)",
    )


def test_criterion_7_player_agent_round_trip():
    rng = np.random.default_rng(4321)
    checked = 0
    worst = 0.0
    while checked < 20:
        players = random_player_auction(rng, max_players=3, max_values=3)
        values, scenarios, partition = convert_player_to_agent(players)
        n_bids = int(rng.integers(2, 6))
        interior = np.unique(rng.random(n_bids - 1))
        grid = BidGrid(np.concatenate(([0.0], interior)))
        alpha = float(rng.choice([1.0, 0.5, 0.0]))
        inst = AuctionInstance(values, scenarios, grid, PaymentRule(alpha))
        profile = random_profile(rng, inst.n_agents, inst.n_bids)

        agent_payoffs = certify(profile, inst).payoffs
        recomposed = player_payoff(partition, agent_payoffs, participation_probabilities(inst))
        direct = exhaustive_player_payoffs(players, [s.weights for s in profile.strategies], grid.bids, alpha)
        worst = max(worst, float(np.abs(recomposed - direct).max()))
        checked += 1
    ok = worst <= 1e-10
    _report(
        "criterion 7 (player payoffs recompose from agent payoffs)",
        ok,
        f"{checked} random auctions, max |diff|={worst:.2e} (<=1e-10)",
    )


def test_criterion_8_invariant_suite(example2_run):
    _named, long_run = example2_run
    drift = float(np.abs(long_run.profile.weights.sum(axis=1) - 1.0).max())
    simplex_ok = drift <= 1e-9

    named1 = example_1()
    short = dataclasses.replace(named1.config, max_iterations=3000, check_interval=500)
    first, second = run(named1.instance, short), run(named1.instance, short)
    determinism_ok = (
        np.array_equal(first.profile.weights, second.profile.weights)
        and first.certificate.epsilon == second.certificate.epsilon
        and first.trajectory == second.trajectory
    )

    # distinct conditional structures among example 4's agents (one aggregation row per agent)
    shared_groups = PayoffEngine(example_4().instance).n_groups

    # classical fictitious play: equal-weight averaging from a point-mass start
    fp_config = dataclasses.replace(named1.config, schedule=LearningSchedule.harmonic(1.0),
                                    init=StrategyProfile.point_mass(4, named1.instance.n_bids))
    steps = 500
    agents = np.arange(4)
    counts = np.zeros((4, named1.instance.n_bids))
    profile = StrategyProfile.point_mass(4, named1.instance.n_bids)
    replay_ok = True
    for k in range(steps):
        counts[agents, certify(profile, named1.instance).best_response_bids] += 1.0
        profile = run(named1.instance, dataclasses.replace(fp_config, max_iterations=k + 1)).profile
        if np.abs(profile.weights - counts / (k + 1)).max() > 1e-12 * (k + 1):
            replay_ok = False
            break

    ok = simplex_ok and determinism_ok and replay_ok
    _report(
        "criterion 8 (invariant suite)",
        ok,
        f"simplex drift over 1e6 steps={drift:.1e} (<=1e-9, {long_run.renormalizations} renormalizations), "
        f"determinism={'bit-identical' if determinism_ok else 'MISMATCH'}, "
        f"example-4 conditional structures={shared_groups}/9 agents, "
        f"classical-FP replay={'exact' if replay_ok else 'MISMATCH'} over {steps} steps",
    )


def test_criterion_9_payment_mixture(example1_run):
    named, _ = example1_run
    rng = np.random.default_rng(99)
    paths_equal = True
    for _ in range(5):
        inst = random_small_instance(rng, alpha=1.0)
        weights = random_profile(rng, inst.n_agents, inst.n_bids).weights
        engine = PayoffEngine(inst)
        pure = engine.curves(engine.cdf_table(weights))
        engine._use_mixture = True  # run the mixture path with a zero share
        if not np.array_equal(pure, engine.curves(engine.cdf_table(weights))):
            paths_equal = False

    mixed_instance = AuctionInstance(
        named.instance.values, named.instance.scenarios, named.instance.grid, PaymentRule(0.5)
    )
    result = run(mixed_instance, named.config)
    eps = result.certificate.epsilon
    ok = paths_equal and eps <= 1e-2
    _report(
        "criterion 9 (payment mixture)",
        ok,
        f"alpha=1 path {'bit-equal to first price' if paths_equal else 'DIVERGES'}, "
        f"alpha=0.5 on example 1: eps={eps:.2e} (<=1e-2)",
    )
