"""Bundled instances, the random generator, and file round-trips."""
from __future__ import annotations

import json

import numpy as np
import pytest

import fbauction
from conftest import exhaustive_player_payoffs, instances_match
from fbauction import (
    AuctionInstance,
    BidGrid,
    InvalidInstanceError,
    PayoffEngine,
    PlayerAuction,
    StrategyProfile,
    certify,
    conditional_scenarios,
    convert_player_to_agent,
    example_1,
    example_2,
    example_3,
    example_4,
    example_5,
    fixture_path,
    get_example,
    instance_from_dict,
    instance_to_dict,
    load_instance,
    participation_probabilities,
    player_payoff,
    random_instance,
    save_instance,
    validate_instance,
)
from fbauction.instances import grid_to_spec


def test_every_builtin_validates():
    for key in ["1", "2", "3", "4", "5"]:
        named = get_example(key)
        assert validate_instance(named.instance) == [], key
        assert sum(s.prob for s in named.instance.scenarios) == pytest.approx(1.0, abs=1e-9)


def test_recommended_schedules():
    # each example takes the schedule that first reached its expected_epsilon sooner
    assert {key: get_example(key).config.schedule for key in "12345"} == {
        "1": "harmonic", "2": "linear", "3": "linear", "4": "linear", "5": "linear"}
    assert random_instance(0).config.schedule == "harmonic"
    assert all(get_example(key).config.coefficient == 1.0 for key in "12345")


def test_example_1_structure():
    named = example_1()
    inst = named.instance
    assert inst.values.tolist() == [0.0, 0.0, 1.0, 1.0]
    assert len(inst.scenarios) == 4
    assert {s.prob for s in inst.scenarios} == {0.25}
    assert np.allclose(participation_probabilities(inst), 0.5)
    assert len(inst.grid) == 401
    assert named.config.max_iterations == 100_000
    assert named.expected_epsilon == 8e-5


def test_example_1_is_symmetric_under_pair_swap():
    # swapping the two value-0 agents together with the two value-1 agents
    # maps the scenario set onto itself
    inst = example_1().instance
    perm = {0: 1, 1: 0, 2: 3, 3: 2}
    swapped = {frozenset(perm[m] for m in s.members) for s in inst.scenarios}
    assert swapped == {s.members for s in inst.scenarios}
    assert np.array_equal(inst.values[[1, 0, 3, 2]], inst.values)


def test_example_2_structure():
    named = example_2()
    inst = named.instance
    assert inst.values == pytest.approx([1 / 3, 2 / 3, 1.0])
    table = conditional_scenarios(inst)
    assert [q for _, q in table[1]] == [0.5, 0.5]
    assert [q for _, q in table[0]] == [1.0]
    assert len(inst.grid) == 601
    assert named.config.max_iterations == 1_000_000


def test_example_3_structure():
    named = example_3()
    inst = named.instance
    assert inst.values.tolist() == [0.25, 0.5, 0.5, 1.0]
    part = participation_probabilities(inst)
    assert part[0] == pytest.approx(0.75)
    # the top-value agent only ever appears in the grand scenario
    grand = [s for s in inst.scenarios if 3 in s.members]
    assert len(grand) == 1
    assert grand[0].members == frozenset({0, 1, 2, 3})


def test_example_4_structure():
    named = example_4()
    inst = named.instance
    assert inst.n_agents == 9
    assert len(inst.scenarios) == 27
    # participation probabilities recompose the stated per-player marginals
    part = participation_probabilities(inst)
    assert part[:3] == pytest.approx([0.25, 0.25, 0.5])
    assert part[3:6] == pytest.approx([0.05, 0.45, 0.5])
    assert part[6:] == pytest.approx([0.05, 0.45, 0.5])
    assert float(inst.grid.bids[-1]) == 0.25
    # same-player agents share rival structure: 5 distinct conditional structures
    assert PayoffEngine(inst).n_groups == 5


def test_example_5_structure():
    named = example_5()
    inst = named.instance
    assert inst.n_agents == 5
    assert len(inst.scenarios) == 6
    assert sum(s.prob for s in inst.scenarios) == pytest.approx(1.0, abs=1e-12)
    assert validate_instance(inst) == []


@pytest.mark.parametrize("builder", [example_4, example_5])
def test_converted_examples_recompose_player_payoffs(builder):
    """Per-player payoffs recomposed from agent payoffs agree with exhaustive
    player-based enumeration on a coarse copy of the converted instances."""
    named = builder()
    marginals = {
        "example-4": [[0.25, 0.25, 0.5], [0.05, 0.45, 0.5], [0.05, 0.45, 0.5]],
        "example-5": [[0.25, 0.75], [0.05, 0.45, 0.5]],
    }[named.name]
    value_sets = {
        "example-4": [[0.1, 0.2, 0.25]] * 3,
        "example-5": [[0.1, 0.25], [0.1, 0.2, 0.25]],
    }[named.name]
    players = PlayerAuction.independent(value_sets, marginals)
    coarse = AuctionInstance(
        named.instance.values, named.instance.scenarios, BidGrid.uniform(0.25, 8), named.instance.rule
    )
    rng = np.random.default_rng(13)
    w = rng.random((coarse.n_agents, coarse.n_bids))
    w /= w.sum(axis=1, keepdims=True)
    profile = StrategyProfile.from_matrix(w)
    agent_payoffs = certify(profile, coarse).payoffs
    partition = convert_player_to_agent(players)[2]
    recomposed = player_payoff(partition, agent_payoffs, participation_probabilities(coarse))
    direct = exhaustive_player_payoffs(players, list(w), coarse.grid.bids, alpha=1.0)
    assert np.allclose(recomposed, direct, atol=1e-12)


def test_random_instance_reproducible():
    a = random_instance(123)
    b = random_instance(123)
    assert a.name == b.name == "random-seed123"
    assert instances_match(a.instance, b.instance)
    assert random_instance(124).instance.scenarios != a.instance.scenarios


def test_random_instance_probabilities():
    named = random_instance(5)
    inst = named.instance
    assert validate_instance(inst) == []
    assert sum(s.prob for s in inst.scenarios) == pytest.approx(1.0, abs=1e-9)
    # twenty pair draws: probabilities are multiples of 1/20, merged duplicates allowed
    for s in inst.scenarios:
        assert len(s.members) == 2
        assert (s.prob * 20) == pytest.approx(round(s.prob * 20), abs=1e-9)
    assert len(inst.grid) == 101
    assert named.config.max_iterations == 1_000_000


def test_random_instance_prunes_uncovered_agents():
    with pytest.warns(UserWarning, match="drew no scenario"):
        named = random_instance(0, n_agents=6, n_scenarios=1)
    inst = named.instance
    assert inst.n_agents == 2
    assert validate_instance(inst) == []


def test_random_instance_reports_dropped_agents_by_count():
    # 49 998 of the 50 000 agents are dropped; the warning counts them, not lists them
    with pytest.warns(UserWarning, match="drew no scenario") as record:
        random_instance(0, n_agents=50_000, n_scenarios=1)
    (warning,) = record
    assert len(str(warning.message)) < 200


def test_random_instance_rejects_oversized_table_before_drawing(monkeypatch):
    monkeypatch.setattr(fbauction.model, "MAX_TABLE_CELLS", 10 * 101 - 1)
    with pytest.raises(ValueError, match="^10 agents x 101 grid levels exceed the 1009-cell table limit$") as raised:
        random_instance(0, n_agents=10)
    assert raised.value.argument == "n_agents"
    assert random_instance(0, n_agents=9).instance.n_bids == 101
    # the pair table is bounded too, and the scenario count is checked first
    with pytest.raises(ValueError, match="^505 scenarios x 2 members exceed the 1009-cell table limit$") as raised:
        random_instance(0, n_agents=10, n_scenarios=505)
    assert raised.value.argument == "n_scenarios"
    assert len(random_instance(0, n_agents=9, n_scenarios=504).instance.scenarios) <= 504


def test_player_file_rejects_too_many_value_profiles_before_converting(monkeypatch):
    doc = {"players": [{"values": [0.1, 0.2, 0.3], "probs": [0.2, 0.3, 0.5]}] * 3, "grid": {"max": 1.0, "steps": 4}}
    converted = []
    convert = fbauction.instances.convert_player_to_agent
    monkeypatch.setattr(fbauction.instances, "convert_player_to_agent", lambda p: converted.append(p) or convert(p))
    monkeypatch.setattr(fbauction.model, "MAX_TABLE_CELLS", 27 * 3 - 1)
    with pytest.raises(ValueError, match="^27 value profiles x 3 players exceed the 80-cell table limit$"):
        instance_from_dict(doc)
    assert converted == []
    monkeypatch.setattr(fbauction.model, "MAX_TABLE_CELLS", 27 * 3)
    assert len(instance_from_dict(doc).scenarios) == 27
    assert len(converted) == 1


def test_random_instance_needs_two_agents():
    with pytest.raises(ValueError):
        random_instance(0, n_agents=1)


# --- file I/O ----------------------------------------------------------------


def test_fixture_files_match_builders():
    for name, builder in [("example1", example_1), ("example2", example_2), ("example3", example_3),
                          ("example4", example_4), ("example5", example_5),
                          ("random-seed0", lambda: random_instance(0))]:
        loaded = load_instance(fixture_path(name))
        assert instances_match(loaded, builder().instance), name


def test_round_trip_serialization(tmp_path):
    inst = example_3().instance
    path = tmp_path / "ex3.json"
    save_instance(inst, path)
    assert instances_match(load_instance(path), inst)
    rand = random_instance(9).instance
    save_instance(rand, tmp_path / "rand.json")
    assert instances_match(load_instance(tmp_path / "rand.json"), rand)


def test_loader_rejects_bad_probability_sum(tmp_path):
    doc = {
        "values": [0.5, 0.5],
        "scenarios": [{"members": [0, 1], "prob": 0.9}],
        "grid": {"max": 1.0, "steps": 10},
    }
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(InvalidInstanceError) as exc:
        load_instance(path)
    assert any("sum to 0.9" in p for p in exc.value.problems)


def test_loader_rejects_malformed_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(json.JSONDecodeError):
        load_instance(path)


def test_loader_handles_correlated_joint_table():
    doc = {
        "players": [
            {"values": [0.2, 0.8]},
            {"values": [0.3, 0.9]},
        ],
        "joint": [[0.5, 0.0], [0.0, 0.5]],  # perfectly correlated draws
        "grid": {"max": 1.0, "steps": 10},
    }
    inst = instance_from_dict(doc)
    assert inst.n_agents == 4
    assert len(inst.scenarios) == 2  # zero-probability profiles pruned
    assert {tuple(sorted(s.members)) for s in inst.scenarios} == {(0, 2), (1, 3)}


def test_loader_defaults_payment_rule():
    doc = instance_to_dict(example_1().instance)
    del doc["rule"]
    assert instance_from_dict(doc).rule.alpha == 1.0
    assert instance_from_dict({**doc, "rule": {}}).rule.alpha == 1.0


def test_grid_spec_requires_uniform_grid():
    with pytest.raises(ValueError):
        grid_to_spec(BidGrid(np.array([0.0, 0.1, 0.9])))
    spec = grid_to_spec(BidGrid.uniform(0.25, 400))
    assert spec == {"max": 0.25, "steps": 400}


def test_get_example_unknown_name():
    for name in ("99", "random"):  # random instances come from random_instance alone
        with pytest.raises(KeyError) as raised:
            get_example(name)
        assert raised.value.args == (f"unknown example {name!r}; choose from ['1', '2', '3', '4', '5']",)
    named = random_instance(3, n_agents=6, n_scenarios=8)
    assert named.name == "random-seed3"
    assert all(len(s.members) == 2 for s in named.instance.scenarios)
