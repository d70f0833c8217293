"""Approximate Bayes-Nash equilibria of sealed-bid auctions with correlated values.

The auction is modeled in agent form: one agent per (bidder, value)
realization, with a probability distribution over which agent subsets
participate. Strategies are probability vectors over a discrete bid grid,
solved by fictitious bidding (iterated best replies mixed into an averaged
profile) and certified exactly against all pure deviations on the grid.
"""

from .model import (
    FIRST_PRICE,
    AgentPartition,
    AuctionInstance,
    BidGrid,
    InvalidInstanceError,
    MixedStrategy,
    PaymentRule,
    PlayerAuction,
    Scenario,
    StrategyProfile,
    convert_player_to_agent,
    participation_probabilities,
    player_payoff,
    validate_instance,
)
from .payoff import (
    ConditionalScenarioTable,
    PayoffEngine,
    all_payoff_curves,
    brute_force_payoff,
    conditional_scenarios,
)
from .solver import LearningSchedule, SolverConfig, SolverResult, run
from .verify import EquilibriumCertificate, cdf_distance, certificate_to_json, certify
from .instances import (
    BUILTIN_EXAMPLES,
    NamedInstance,
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
    random_instance,
    save_instance,
)

__version__ = "0.1.0"

__all__ = [
    "AgentPartition",
    "AuctionInstance",
    "BidGrid",
    "BUILTIN_EXAMPLES",
    "ConditionalScenarioTable",
    "EquilibriumCertificate",
    "FIRST_PRICE",
    "InvalidInstanceError",
    "LearningSchedule",
    "MixedStrategy",
    "NamedInstance",
    "PayoffEngine",
    "PaymentRule",
    "PlayerAuction",
    "Scenario",
    "SolverConfig",
    "SolverResult",
    "StrategyProfile",
    "all_payoff_curves",
    "brute_force_payoff",
    "cdf_distance",
    "certificate_to_json",
    "certify",
    "conditional_scenarios",
    "convert_player_to_agent",
    "example_1",
    "example_2",
    "example_3",
    "example_4",
    "example_5",
    "fixture_path",
    "get_example",
    "instance_from_dict",
    "instance_to_dict",
    "load_instance",
    "participation_probabilities",
    "player_payoff",
    "random_instance",
    "run",
    "save_instance",
    "validate_instance",
]
