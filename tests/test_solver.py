"""Fictitious-bidding loop: updates, schedules, termination, determinism."""
from __future__ import annotations

import dataclasses
import functools
import warnings

import numpy as np
import pytest

import fbauction.solver
from conftest import point_mass_profile, random_profile, step_loop_run, symmetric_binary_analytic_profile
from fbauction import (
    AuctionInstance,
    BidGrid,
    InvalidInstanceError,
    NamedInstance,
    PaymentRule,
    PlayerAuction,
    Scenario,
    SolverConfig,
    StrategyProfile,
    all_payoff_curves,
    certify,
    convert_player_to_agent,
    example_1,
    example_2,
    example_3,
    example_4,
    example_5,
    random_instance,
    run,
)
from fbauction.payoff import engine_for
from fbauction.verify import best_replies


def _instance(values, member_sets, probs, grid_bids, alpha=1.0):
    scenarios = tuple(Scenario(frozenset(m), p) for m, p in zip(member_sets, probs))
    return AuctionInstance(np.array(values, dtype=float), scenarios, BidGrid(np.array(grid_bids, dtype=float)), PaymentRule(alpha))


def _pairs_named(seed):
    """A random pair auction of 200 agents and 400 pairs, as ``perfbench``'s ``pairs-200x400``."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # agents that draw no pair are dropped with a warning
        return random_instance(seed, 200, 400)


def _step(profile, config, inst):
    """One fictitious-bidding update of ``profile``: ``run`` from it for a single iteration."""
    return run(inst, dataclasses.replace(config, init=profile, max_iterations=1)).profile


def _classical_fp(named):
    """Equal-weight averaging of all past best replies from a point-mass start."""
    init = point_mass_profile(named.instance.n_agents, named.instance.n_bids)
    return dataclasses.replace(named.config, schedule="harmonic", coefficient=1.0, init=init)


def test_schedule_rates():
    harmonic = SolverConfig(schedule="harmonic", coefficient=1.0)
    assert harmonic.rate(0) == 1.0
    assert harmonic.rate(3) == 0.25
    linear = SolverConfig(schedule="linear", coefficient=1.0)
    assert linear.rate(0) == 1.0  # the first step wipes the start
    assert linear.rate(2) == 0.5
    assert SolverConfig(schedule="linear", coefficient=0.5).rate(2) == 0.25
    constant = SolverConfig(schedule="constant", coefficient=0.05)
    assert constant.rate(0) == constant.rate(10**6) == 0.05
    with pytest.raises(ValueError, match="coefficient must lie in"):
        SolverConfig(coefficient=1.5)  # first step would leave the simplex
    with pytest.raises(ValueError, match="coefficient must lie in"):
        SolverConfig(schedule="constant", coefficient=0.0)
    with pytest.raises(ValueError, match="unknown schedule kind 'geometric'"):
        SolverConfig(schedule="geometric", coefficient=0.5)


def test_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(max_iterations=-1)
    with pytest.raises(ValueError):
        SolverConfig(check_interval=0)
    # the integer fields take whole numbers only, like scenario members
    config = SolverConfig(max_iterations=1e3, check_interval=10.0)
    assert (config.max_iterations, config.check_interval) == (1000, 10)
    assert type(config.max_iterations) is int and type(config.check_interval) is int
    for field in ("max_iterations", "check_interval"):
        for value in (2.5, True):
            with pytest.raises(ValueError, match=f"{field} must be an integer, got {value!r}"):
                SolverConfig(**{field: value})
    for init in ("gaussian", "uniform", "point-mass-at-zero"):  # a start is a profile or None
        with pytest.raises(ValueError):
            SolverConfig(init=init)
    with pytest.raises(ValueError):
        SolverConfig(epsilon_target=-0.1)
    with pytest.raises(ValueError):
        SolverConfig(epsilon_target=float("nan"))
    # a bool is no number, though Python compares it as 0 or 1
    # and a string no number either, though numpy would parse it
    for value in (True, "0.1"):
        with pytest.raises(ValueError, match=f"^epsilon_target must be a number, got {value!r}$"):
            SolverConfig(epsilon_target=value)
    for schedule in SolverConfig.SCHEDULES:
        for value in (True, "1"):
            with pytest.raises(ValueError, match=f"^coefficient must be a number, got {value!r}$"):
                SolverConfig(schedule=schedule, coefficient=value)


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
    config = SolverConfig(schedule="harmonic", coefficient=1.0, max_iterations=1)
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
    config = SolverConfig(schedule="constant", coefficient=0.25, max_iterations=1)

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
    config = SolverConfig(schedule="constant", coefficient=0.25, max_iterations=1)
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


@pytest.mark.parametrize("named, interval, loop", [(example_3(), 200, "step"), (example_1(), 200, "jump"),
                                                   (_pairs_named(0), 50, "cumulative")],
                         ids=["example-3", "example-1", "pairs-200x400"])
def test_run_stops_at_epsilon_target(named, interval, loop):
    """Each loop form stops at the first check that reaches the target."""
    assert engine_for(named.instance).loop == loop
    config = dataclasses.replace(
        named.config, max_iterations=50_000, check_interval=interval, epsilon_target=0.05
    )
    result = run(named.instance, config)
    assert result.iterations_run < 50_000
    assert result.iterations_run % interval == 0
    assert result.certificate.epsilon <= 0.05
    # trajectory samples every interval until the stop, and only the last sample reaches the target
    ticks = [k for k, _ in result.trajectory]
    assert ticks == list(range(interval, result.iterations_run + 1, interval))
    assert all(eps > 0.05 for _k, eps in result.trajectory[:-1])


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


def _at_half(named):
    return dataclasses.replace(named, instance=dataclasses.replace(named.instance, rule=PaymentRule(0.5)))


def _harmonic(named):
    return dataclasses.replace(named, config=dataclasses.replace(named.config, schedule="harmonic", coefficient=1.0))


# examples 3 and 4 gather rival-set products (4 through its players' mixtures), so run takes one step per
# segment there; the instances where it jumps are replayed segment by segment below
@pytest.mark.parametrize("named, ties", [(example_3(), True), (example_4(), True)], ids=["example-3", "example-4"])
def test_run_matches_the_update_rule_on_strategy_weights(monkeypatch, named, ties):
    """``run`` carries CDF tables; replaying its best replies on the weights
    themselves, ``w <- (1 - eta) w + eta e_best``, gives the same profile.

    Each replayed reply must be a best reply to the replayed profile. Both
    examples have exact payoff ties, which either rounding path may break
    either way, so there a reply only has to come within 1e-12 of the best
    payoff.
    """
    inst, steps = named.instance, 3000
    engine = engine_for(inst)
    plain_curves = engine.curves
    replies = []

    def recording_curves(table, *work):
        curves = plain_curves(table, *work)
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
        eta = named.config.rate(k)
        w *= 1.0 - eta
        w[rows, best] += eta
    assert np.abs(result.profile.weights - w).max() <= 1e-12
    assert ties or off_rule == 0


def _recorded_segments(monkeypatch, inst, config):
    """``run``'s result and its segments, each ``(k, best, m)``: from ``k``
    steps taken, the replies ``best`` held for ``m`` steps."""
    plain_replies, plain_held_steps = fbauction.solver.best_replies, fbauction.solver._held_steps
    recorded = []  # [best, m] per segment: run picks replies once per segment, and m only where it tries a jump

    def recording_replies(curves):
        best = plain_replies(curves)
        recorded.append([best.copy(), 1])
        return best

    def recording_held_steps(*args):
        m, keep = plain_held_steps(*args)
        recorded[-1][1] = m
        return m, keep

    monkeypatch.setattr(fbauction.solver, "best_replies", recording_replies)
    monkeypatch.setattr(fbauction.solver, "_held_steps", recording_held_steps)
    result = run(inst, config)
    starts = np.cumsum([0] + [m for _best, m in recorded]).tolist()
    return result, [(k, best, m) for k, (best, m) in zip(starts, recorded)]


# one rival per scenario, so run jumps over the steps in which no reply changes; examples 1 (with and
# without the second-price tail), 2 and 5 have exact payoff ties, on which run and a step loop may part
@pytest.mark.parametrize("named, ties", [(example_1(), True), (_at_half(example_1()), True),
                                         (random_instance(0), False), (_harmonic(example_2()), True),
                                         (_harmonic(example_5()), True), (_pairs_named(0), False),
                                         (_at_half(_pairs_named(0)), False)],
                         ids=["example-1", "example-1-alpha0.5", "random-0", "example-2-harmonic",
                              "example-5-harmonic", "pairs-200x400", "pairs-200x400-alpha0.5"])
def test_segments_replay_on_strategy_weights(monkeypatch, named, ties):
    """Replaying ``run``'s segments step by step on the weights themselves,
    ``w <- (1 - eta) w + eta e_best`` with each segment's replies held for
    its ``m`` steps, gives the same profile to 1e-12, and at every step the
    held reply comes within 1e-12 of the best payoff to the replayed profile.

    Without exact ties (random seed 0) the held reply is the one
    ``best_replies`` picks at every step.
    """
    inst, steps = named.instance, 3000
    engine = engine_for(inst)
    result, segments = _recorded_segments(monkeypatch, inst, dataclasses.replace(
        named.config, max_iterations=steps, check_interval=steps))
    assert result.segments == len(segments)
    assert segments[-1][0] + segments[-1][2] == result.iterations_run == steps

    w = StrategyProfile.uniform(inst.n_agents, inst.n_bids).weights.copy()
    rows = np.arange(inst.n_agents)
    off_rule = 0
    for k, best, m in segments:
        for step in range(k, k + m):
            curves = engine.curves(engine.cdf_table(w))
            assert np.all(curves[rows, best] >= curves.max(axis=1) - 1e-12)
            off_rule += int(np.any(best != best_replies(curves)))
            eta = named.config.rate(step)
            w *= 1.0 - eta
            w[rows, best] += eta
    assert np.abs(result.profile.weights - w).max() <= 1e-12
    assert ties or off_rule == 0


def _correlated_players():
    """Three correlated players in agent form: rival sets of two, not factored into players."""
    joint = np.arange(1.0, 13.0).reshape(2, 3, 2)
    players = PlayerAuction(([0.2, 0.6], [0.3, 0.5, 0.9], [0.4, 0.8]), joint / joint.sum())
    values, scenarios, _partition = convert_player_to_agent(players)
    return NamedInstance("correlated-players", AuctionInstance(values, scenarios, BidGrid.uniform(1.0, 50)),
                         SolverConfig())


@pytest.mark.parametrize("named", [example_3(), example_4(), _at_half(example_4()), _correlated_players()],
                         ids=["example-3", "example-4", "example-4-alpha0.5", "correlated-players"])
def test_run_is_the_step_loop_where_curves_are_not_affine(named):
    inst = named.instance
    assert not engine_for(inst).affine
    config = dataclasses.replace(named.config, max_iterations=2000, check_interval=500)
    result, reference = run(inst, config), step_loop_run(inst, config)
    assert np.array_equal(result.profile.weights, reference.profile.weights)
    assert result.trajectory == reference.trajectory
    for field in ("gaps", "payoffs", "best_response_bids"):
        assert np.array_equal(getattr(result.certificate, field), getattr(reference.certificate, field))
    assert result.renormalizations == reference.renormalizations
    assert result.segments == result.iterations_run == 2000  # one segment per step


# a constant rate of 0.05 forgets the past within a few dozen steps, so the replies cycle and run seldom
# jumps; at 0.001 it jumps
@pytest.mark.parametrize("alpha", [1.0, 0.5])
@pytest.mark.parametrize("schedule, coefficient, jumps", [("harmonic", 1.0, True), ("harmonic", 0.5, True),
                                                          ("linear", 1.0, True), ("constant", 0.05, False),
                                                          ("constant", 0.001, True)])
def test_run_certifies_the_step_loop_epsilons_where_it_jumps(schedule, coefficient, jumps, alpha):
    """On random pair auctions ``run`` jumps, rounding otherwise than a step
    loop; each check's certified epsilon agrees with the loop's to 1e-9."""
    config = SolverConfig(schedule=schedule, coefficient=coefficient, max_iterations=3000, check_interval=500)
    jumped = False
    for seed in range(3):
        inst = _at_half(random_instance(seed)).instance if alpha == 0.5 else random_instance(seed).instance
        assert engine_for(inst).affine
        result, reference = run(inst, config), step_loop_run(inst, config)
        assert [k for k, _eps in result.trajectory] == [k for k, _eps in reference.trajectory]
        for (_k, eps), (_k, expected) in zip(result.trajectory, reference.trajectory):
            assert eps == pytest.approx(expected, rel=1e-9, abs=0.0)
        jumped |= result.segments < result.iterations_run
    assert jumped or not jumps


@functools.lru_cache(maxsize=None)
def _pairs(seed: int, alpha: float = 1.0) -> AuctionInstance:
    return dataclasses.replace(_pairs_named(seed).instance, rule=PaymentRule(alpha))


def _assert_certifies_the_step_loop(inst, config):
    """``run`` and the step loop check on the same iterations, each check's
    epsilon agrees to 1e-9 relative and the final weights to 1e-12."""
    result, reference = run(inst, config), step_loop_run(inst, config)
    assert result.iterations_run == reference.iterations_run
    assert [k for k, _eps in result.trajectory] == [k for k, _eps in reference.trajectory]
    for (_k, eps), (_k, expected) in zip(result.trajectory, reference.trajectory):
        assert eps == pytest.approx(expected, rel=1e-9, abs=0.0)
    assert np.abs(result.profile.weights - reference.profile.weights).max() <= 1e-12
    assert result.certificate.epsilon == certify(result.profile, inst).epsilon
    return result


_SCHEDULES = [("harmonic", 1.0), ("harmonic", 0.5), ("linear", 1.0), ("constant", 0.05), ("constant", 0.001)]


@pytest.mark.parametrize("alpha", [1.0, 0.5])
@pytest.mark.parametrize("schedule, coefficient", _SCHEDULES)
def test_cumulative_payoffs_certify_the_step_loop_epsilons(schedule, coefficient, alpha):
    """On slot-sum pair auctions ``run`` carries Brown's cumulative payoffs
    and masses in place of the CDF table; its checks agree with a step loop's."""
    config = SolverConfig(schedule=schedule, coefficient=coefficient, max_iterations=1000, check_interval=250)
    for seed in range(3):
        inst = _pairs(seed, alpha)
        assert engine_for(inst).loop == "cumulative"
        _assert_certifies_the_step_loop(inst, config)


def test_cumulative_payoffs_from_an_explicit_start_and_at_the_edges():
    """An explicit ``init``, budgets of 0 and 1 and a check after every
    iteration behave as on the step loop; with no step, the start is returned."""
    inst = _pairs(0)
    start = random_profile(np.random.default_rng(5), inst.n_agents, inst.n_bids)
    for init in (None, start):
        for schedule, coefficient in _SCHEDULES:
            config = SolverConfig(schedule=schedule, coefficient=coefficient, init=init)
            for iterations, interval in ((0, 1000), (1, 1000), (60, 1)):
                result = _assert_certifies_the_step_loop(
                    inst, dataclasses.replace(config, max_iterations=iterations, check_interval=interval))
                assert result.segments <= result.iterations_run == iterations
        expected = StrategyProfile.uniform(inst.n_agents, inst.n_bids) if init is None else init
        result = run(inst, SolverConfig(max_iterations=0, init=init))
        assert np.array_equal(result.profile.weights, expected.weights)


@pytest.mark.parametrize("schedule, coefficient", _SCHEDULES)
def test_cumulative_payoffs_rescale_their_masses_exactly(monkeypatch, schedule, coefficient):
    """A low rescale threshold, a power of 2, rescales the masses in most
    steps and changes no bit of the result."""
    config = SolverConfig(schedule=schedule, coefficient=coefficient, max_iterations=600, check_interval=200)
    inst = _pairs(1, 0.5)
    plain = run(inst, config)
    monkeypatch.setattr(fbauction.solver, "_RESCALE_AT", 2.0)
    rescaled = run(inst, config)
    assert np.array_equal(rescaled.profile.weights, plain.profile.weights)
    assert rescaled.trajectory == plain.trajectory
    assert rescaled.segments == plain.segments


def test_cumulative_payoffs_jump_to_keeps_near_the_underflow():
    """With every value 0 the replies hold at bid 0, so at a constant rate of
    0.5 each jump runs to the next check, about 1000 steps that keep
    ~1e-300 of the mass; the masses are rescaled before they overflow."""
    inst = dataclasses.replace(_pairs(0), values=np.zeros(_pairs(0).n_agents))
    config = SolverConfig(schedule="constant", coefficient=0.5, max_iterations=6000, check_interval=997)
    result, reference = run(inst, config), step_loop_run(inst, config)
    assert result.segments < 20
    assert [k for k, _eps in result.trajectory] == [k for k, _eps in reference.trajectory]
    assert np.allclose([eps for _k, eps in result.trajectory], [eps for _k, eps in reference.trajectory],
                       rtol=0.0, atol=1e-12)
    assert np.abs(result.profile.weights - reference.profile.weights).max() <= 1e-12


def test_run_takes_the_loop_its_engine_names(monkeypatch):
    """``run`` carries the cumulative payoffs exactly where the engine's loop is ``"cumulative"``."""
    taken = []
    for name in ("_CdfTable", "_CumulativePayoffs"):
        state = getattr(fbauction.solver, name)
        monkeypatch.setattr(fbauction.solver, name,
                            lambda engine, weights, state=state: taken.append(state.__name__) or state(engine, weights))
    config = SolverConfig(max_iterations=2)
    for inst in (_pairs(0), random_instance(0).instance, example_3().instance):
        run(inst, config)
    assert taken == ["_CumulativePayoffs", "_CdfTable", "_CdfTable"]


def test_held_steps_keep_the_product_of_the_step_rates():
    """``_held_steps`` finds the first m whose steps keep at most the bound,
    the product of ``1 - rate(k + i)`` over ``i < m``: on the closed forms
    (harmonic and linear with coefficient 1, constant) and on the chunked
    products (other coefficients) alike."""
    def kept(config, k, m):
        return float(np.prod(1.0 - config.rate(np.arange(k, k + m, dtype=float)) * np.ones(m)))

    for config in (SolverConfig(), SolverConfig(schedule="linear"), SolverConfig(schedule="constant", coefficient=0.05),
                   SolverConfig(coefficient=0.5), SolverConfig(schedule="linear", coefficient=0.5)):
        for k, bound in ((10, 0.5), (1000, 0.999), (1000, 0.1), (5, 0.01)):
            m, keep = fbauction.solver._held_steps(config, k, bound, 10**6)
            assert keep == pytest.approx(kept(config, k, m), rel=1e-10)
            assert kept(config, k, m) <= bound * (1 + 1e-10) and kept(config, k, m - 1) > bound * (1 - 1e-10)
        assert fbauction.solver._held_steps(config, 10, 0.0, 777)[0] == 777  # no switch: up to the limit
        assert fbauction.solver._held_steps(config, 10, 1.0, 777)[0] == 1  # a tie: one step


def test_segment_count():
    """One segment per step where every step is taken; fewer where the run jumps."""
    named = random_instance(0)
    result = run(named.instance, dataclasses.replace(named.config, max_iterations=3000))
    assert result.iterations_run == 3000
    assert result.segments < 3000
    assert run(named.instance, dataclasses.replace(named.config, max_iterations=0)).segments == 0


def test_weights_stay_exactly_on_the_simplex_through_ties():
    # example 3 has multi-rival scenarios and many tied best replies
    named = example_3()
    result = run(named.instance, dataclasses.replace(named.config, max_iterations=20_000))
    weights = result.profile.weights
    assert weights.min() >= 0.0
    assert np.abs(weights.sum(axis=1) - 1.0).max() <= 1e-15
    assert result.renormalizations == 0


def _assert_weighted_reply_frequencies(config, weight, steps=400):
    """From a point-mass start on example 1, the weights after each of ``steps`` steps are the
    frequencies of the best replies so far, reply ``i`` (counted from 0) weighted by ``weight(i)``."""
    inst = example_1().instance
    config = dataclasses.replace(config, init=point_mass_profile(4, inst.n_bids))
    counts = np.zeros((4, inst.n_bids))
    total = 0.0
    profile = config.init
    for k in range(steps):
        counts[np.arange(4), certify(profile, inst).best_response_bids] += weight(k)
        total += weight(k)
        profile = run(inst, dataclasses.replace(config, max_iterations=k + 1)).profile
        replayed = counts / total
        assert np.abs(profile.weights - replayed).max() <= 1e-12 * (k + 1)


def test_classical_fp_mode_counts_best_responses():
    """With equal-weight averaging, weights are exactly the best-reply
    frequencies of the run so far, replayed here step by step."""
    _assert_weighted_reply_frequencies(_classical_fp(example_1()), lambda i: 1.0)


def test_linear_schedule_weights_replies_by_iteration():
    """With linear averaging, reply ``i`` carries weight ``2 (i + 1) / (k (k + 1))`` after ``k`` steps."""
    _assert_weighted_reply_frequencies(SolverConfig(schedule="linear", coefficient=1.0), lambda i: i + 1.0)


def test_classical_fp_first_step_is_pure_best_response():
    named = example_1()
    inst = named.instance
    config = dataclasses.replace(_classical_fp(named), max_iterations=1)
    init = point_mass_profile(4, inst.n_bids)
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


@pytest.mark.parametrize("named", [example_1(), _pairs_named(0)], ids=["example-1", "pairs-200x400"])
def test_drift_guard_renormalizes_rows_off_the_simplex(monkeypatch, named):
    # rows that sum to 1 + 5e-10 pass PROB_TOL; with the guard's tolerance at
    # 1e-12 every row is off the simplex at the one check, after 10 steps, on
    # the CDF table (example 1) and on the cumulative payoffs (the pair auction)
    inst = named.instance
    start = StrategyProfile.uniform(inst.n_agents, inst.n_bids).weights * (1.0 + 5e-10)
    config = SolverConfig(schedule="constant", coefficient=0.01, max_iterations=10, check_interval=10,
                          init=StrategyProfile(start))
    monkeypatch.setattr(fbauction.solver, "PROB_TOL", 1e-12)
    result = run(inst, config)
    assert result.renormalizations == inst.n_agents
    assert np.abs(result.profile.weights.sum(axis=1) - 1.0).max() <= 1e-15
    assert result.certificate.epsilon == certify(result.profile, inst).epsilon
