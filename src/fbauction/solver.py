"""Fictitious bidding: iterated best replies against an averaged profile.

Every iteration, each agent computes a best reply to the *current* strategy
profile (the same snapshot for all agents), then mixes a point mass at that
reply into its strategy. The loop carries the profile as the strict-CDF table
``F`` that :meth:`PayoffEngine.curves` reads (``F[a, j]`` = P(agent ``a``
bids below level ``j``)), so the mix is a scale and a suffix add:

    F_next[a, j] = (1 - eta_k) * F[a, j] + eta_k * [j > best reply of a]

The weights, the row differences of ``F``, are formed only for a certificate;
both operations are monotone in floating point, so they are never negative.

With ``eta_k = 1/(k+1)`` the profile is the running empirical frequency of
past best replies (classical fictitious play); with constant ``eta`` it is an
exponential moving average that progressively forgets the initialization.
Replies are picked by :func:`~fbauction.verify.best_replies`, the rule the
certificate uses, so a run is deterministic for one build.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

# validate_instance is unused here; perfbench's tracer patches it here by name
from .model import PROB_TOL, AuctionInstance, StrategyProfile, validate_instance
from .payoff import engine_for
from .verify import EquilibriumCertificate, best_replies, certify


@dataclass(frozen=True)
class LearningSchedule:
    """Step-size sequence: ``c / (k+1)`` (harmonic) or constant ``c``.

    The default, harmonic with coefficient 1, weighs every past best reply
    equally and wipes the initialization on the first step; small
    coefficients leave most of the initialization in place forever, so use
    them deliberately.
    """

    kind: str = "harmonic"
    coefficient: float = 1.0

    def __post_init__(self):
        if self.kind not in ("harmonic", "constant"):
            raise ValueError(f"unknown schedule kind {self.kind!r}")
        if not 0.0 < self.coefficient <= 1.0:
            raise ValueError("coefficient must lie in (0, 1] so every step stays a convex mix")

    @classmethod
    def harmonic(cls, coefficient: float = 1.0) -> "LearningSchedule":
        return cls("harmonic", coefficient)

    @classmethod
    def constant(cls, coefficient: float) -> "LearningSchedule":
        return cls("constant", coefficient)

    def rate(self, k: int) -> float:
        if self.kind == "harmonic":
            return self.coefficient / (k + 1)
        return self.coefficient


@dataclass(frozen=True, eq=False)
class SolverConfig:
    """Everything needed to reproduce a solver run.

    ``init`` is the starting :class:`StrategyProfile`, or ``None`` for the
    uniform one. An epsilon certificate is computed every ``check_interval``
    iterations and after the last one (each check costs about one
    iteration); when ``epsilon_target`` is set the run stops at the first
    check that reaches it. ``independent_player_cache`` is accepted for
    compatibility and ignored: the payoff engine has one aggregation row per
    agent and builds nothing per player.
    """

    schedule: LearningSchedule = field(default_factory=LearningSchedule)
    max_iterations: int = 100_000
    epsilon_target: float | None = None
    check_interval: int = 1000
    init: StrategyProfile | None = None
    independent_player_cache: bool = False

    def __post_init__(self):
        if self.max_iterations < 0:
            raise ValueError("max_iterations must be >= 0")
        if self.check_interval < 1:
            raise ValueError("check_interval must be >= 1")
        if not (self.init is None or isinstance(self.init, StrategyProfile)):
            raise ValueError(f"init must be a StrategyProfile or None, got {self.init!r}")
        if self.epsilon_target is not None and not self.epsilon_target >= 0:
            raise ValueError(f"epsilon_target must be >= 0, got {self.epsilon_target}")

    def echo(self) -> dict:
        """JSON-friendly snapshot of the configuration."""
        return {
            "schedule": {"kind": self.schedule.kind, "coefficient": self.schedule.coefficient},
            "max_iterations": self.max_iterations,
            "epsilon_target": self.epsilon_target,
            "check_interval": self.check_interval,
            "init": "uniform" if self.init is None else "explicit",
        }


@dataclass(frozen=True, eq=False)
class SolverResult:
    """Final profile plus the certificate and sampled epsilon history."""

    profile: StrategyProfile
    iterations_run: int
    certificate: EquilibriumCertificate
    trajectory: tuple[tuple[int, float], ...]
    renormalizations: int = 0


def run(instance: AuctionInstance, config: SolverConfig) -> SolverResult:
    """Run fictitious bidding on ``instance`` until the budget or target is hit.

    Raises :class:`InvalidInstanceError` if the payoff engine's tables would
    exceed the table limit. The returned certificate always describes the
    returned profile.
    """
    engine = engine_for(instance)
    n, n_bids = instance.n_agents, instance.n_bids
    init = StrategyProfile.uniform(n, n_bids) if config.init is None else config.init
    cdf = engine.cdf_table(init.weights)  # raises ValueError on a wrongly shaped init
    agent_cdf = cdf[:n]  # a view; the last row stays all ones
    levels = np.arange(n_bids + 1)

    profile = init
    renormalizations = 0
    trajectory: list[tuple[int, float]] = []
    last = config.max_iterations
    for k in range(1, last + 1):
        best = best_replies(engine.curves(cdf))
        eta = config.schedule.rate(k - 1)
        agent_cdf *= 1.0 - eta
        np.add(agent_cdf, eta, out=agent_cdf, where=levels > best[:, None])
        if k % config.check_interval and k < last:
            continue

        # the update is an exact convex mix, so rounding drift is ~1e-16 per
        # step; rows that from_matrix would reject are renormalized first
        totals = agent_cdf[:, -1]
        bad = np.abs(totals - 1.0) > PROB_TOL
        if bad.any():
            agent_cdf[bad] /= totals[bad, None]
            renormalizations += int(bad.sum())
        profile = StrategyProfile.from_matrix(np.diff(agent_cdf, axis=1))
        certificate = certify(profile, instance)
        trajectory.append((k, certificate.epsilon))
        if config.epsilon_target is not None and certificate.epsilon <= config.epsilon_target:
            break

    if not trajectory:
        # no iteration ran: certify the initialization itself, which the
        # table's row differences would match only up to rounding
        certificate = certify(init, instance)
        trajectory.append((0, certificate.epsilon))

    return SolverResult(
        profile=profile,
        iterations_run=trajectory[-1][0],
        certificate=certificate,
        trajectory=tuple(trajectory),
        renormalizations=renormalizations,
    )
