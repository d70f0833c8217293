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
Best-reply ties break to the lowest grid index, so runs are deterministic.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .model import AuctionInstance, InvalidInstanceError, StrategyProfile, validate_instance
from .payoff import engine_for
from .verify import EquilibriumCertificate, certify

DRIFT_TOL = 1e-9

INIT_UNIFORM = "uniform"
INIT_ZERO_BID = "point-mass-at-zero"


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

    ``init`` is ``"uniform"``, ``"point-mass-at-zero"``, or an explicit
    :class:`StrategyProfile`. An epsilon certificate is computed every
    ``check_interval`` iterations (each check costs about one iteration);
    when ``epsilon_target`` is set the run stops at the first check that
    reaches it. ``independent_player_cache`` is accepted for compatibility
    and ignored: the payoff engine always shares aggregation between agents
    with identical rival structure.
    """

    schedule: LearningSchedule = field(default_factory=LearningSchedule)
    max_iterations: int = 100_000
    epsilon_target: float | None = None
    check_interval: int = 1000
    init: str | StrategyProfile = INIT_UNIFORM
    independent_player_cache: bool = False

    def __post_init__(self):
        if self.max_iterations < 0:
            raise ValueError("max_iterations must be >= 0")
        if self.check_interval < 1:
            raise ValueError("check_interval must be >= 1")
        if isinstance(self.init, str) and self.init not in (INIT_UNIFORM, INIT_ZERO_BID):
            raise ValueError(f"unknown initialization {self.init!r}")
        if self.epsilon_target is not None and not self.epsilon_target >= 0:
            raise ValueError(f"epsilon_target must be >= 0, got {self.epsilon_target}")

    def echo(self) -> dict:
        """JSON-friendly snapshot of the configuration."""
        init = self.init if isinstance(self.init, str) else "explicit"
        return {
            "schedule": {"kind": self.schedule.kind, "coefficient": self.schedule.coefficient},
            "max_iterations": self.max_iterations,
            "epsilon_target": self.epsilon_target,
            "check_interval": self.check_interval,
            "init": init,
        }


@dataclass(frozen=True, eq=False)
class SolverResult:
    """Final profile plus the certificate and sampled epsilon history."""

    profile: StrategyProfile
    iterations_run: int
    certificate: EquilibriumCertificate
    trajectory: tuple[tuple[int, float], ...]
    renormalizations: int = 0


def _initial_profile(config: SolverConfig, n_agents: int, n_bids: int) -> StrategyProfile:
    if isinstance(config.init, StrategyProfile):
        shape = config.init.weights.shape
        if shape != (n_agents, n_bids):
            raise ValueError(f"explicit initialization has shape {shape}, instance needs ({n_agents}, {n_bids})")
        return config.init
    if config.init == INIT_ZERO_BID:
        return StrategyProfile.point_mass(n_agents, n_bids)
    return StrategyProfile.uniform(n_agents, n_bids)


def run(instance: AuctionInstance, config: SolverConfig) -> SolverResult:
    """Run fictitious bidding on ``instance`` until the budget or target is hit.

    Raises :class:`InvalidInstanceError` if the instance fails validation.
    The returned certificate always describes the returned profile.
    """
    problems = validate_instance(instance)
    if problems:
        raise InvalidInstanceError(problems)

    engine = engine_for(instance)
    n, n_bids = instance.n_agents, instance.n_bids
    init = _initial_profile(config, n, n_bids)
    cdf = engine.cdf_table(init.weights)
    agent_cdf = cdf[:n]  # a view; the last row stays all ones
    levels = np.arange(n_bids + 1)

    renormalizations = 0
    trajectory: list[tuple[int, float]] = []

    def check(iterations: int) -> tuple[StrategyProfile, EquilibriumCertificate]:
        # the update is an exact convex mix, so rounding drift is ~1e-16 per
        # step; rows that drift further are renormalized before certification
        nonlocal renormalizations
        if iterations == 0:
            profile = init  # the table's row differences match it only up to rounding
        else:
            totals = agent_cdf[:, -1]
            bad = np.abs(totals - 1.0) > DRIFT_TOL
            if bad.any():
                agent_cdf[bad] /= totals[bad, None]
                renormalizations += int(bad.sum())
            profile = StrategyProfile.from_matrix(np.diff(agent_cdf, axis=1))
        certificate = certify(profile, instance)
        trajectory.append((iterations, certificate.epsilon))
        return profile, certificate

    checked_at = -1
    iterations = 0
    for k in range(config.max_iterations):
        curves = engine.curves(cdf)
        best = np.argmax(curves, axis=1)
        eta = config.schedule.rate(k)
        agent_cdf *= 1.0 - eta
        np.add(agent_cdf, eta, out=agent_cdf, where=levels > best[:, None])
        iterations = k + 1

        if iterations % config.check_interval == 0:
            profile, certificate = check(iterations)
            checked_at = iterations
            if config.epsilon_target is not None and certificate.epsilon <= config.epsilon_target:
                break

    if checked_at != iterations:
        profile, certificate = check(iterations)

    return SolverResult(
        profile=profile,
        iterations_run=iterations,
        certificate=certificate,
        trajectory=tuple(trajectory),
        renormalizations=renormalizations,
    )
