"""Fictitious bidding: iterated best replies against an averaged profile.

Every iteration, each agent computes a best reply to the *current* strategy
profile (the same snapshot for all agents), then mixes a point mass at that
reply into its strategy. The loop carries the profile as the strict-CDF table
``F`` that :meth:`PayoffEngine.curves` reads (``F[a, j]`` = P(agent ``a``
bids below level ``j``)), so the mix is a scale and a suffix add:

    F_next[a, j] = (1 - eta_k) * F[a, j] + eta_k * [j > best reply of a]

after ``k`` steps. The weights, the row differences of ``F``, are formed only
at the one check site, which certifies every ``check_interval``-th iterate and
the last (the start itself when no step runs); both operations are monotone in
floating point, so the weights are never negative.

With ``eta_k = 1/(k+1)`` the profile is the running empirical frequency of
past best replies (classical fictitious play); with ``eta_k = 2/(k+2)`` it is
their frequency weighted by iteration, later replies counting more; with
constant ``eta`` it is an exponential moving average that progressively
forgets the initialization.
Replies are picked by :func:`~fbauction.verify.best_replies`, the rule the
certificate uses, so a run is deterministic for one build.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# validate_instance is unused here; perfbench's tracer patches it here by name
from .model import PROB_TOL, AuctionInstance, StrategyProfile, _exact_int, _number, validate_instance
from .payoff import engine_for
from .verify import EquilibriumCertificate, best_replies, certify


@dataclass(frozen=True, eq=False)
class SolverConfig:
    """Everything needed to reproduce a solver run.

    The step size after ``k`` steps is ``coefficient / (k+1)`` when
    ``schedule`` is ``"harmonic"``, ``coefficient * 2 / (k+2)`` when it is
    ``"linear"`` and ``coefficient`` when it is ``"constant"``. The default,
    harmonic with coefficient 1, weighs every past best reply equally; linear
    with coefficient 1 weighs reply ``i`` (counted from 0) in proportion to
    ``i + 1``, as CFR+ averages its iterates. Both wipe the initialization on
    the first step. Small coefficients leave most of the initialization in
    place forever, so use them deliberately.

    ``init`` is the starting :class:`StrategyProfile`, or ``None`` for the
    uniform one. ``max_iterations`` and ``check_interval`` are whole numbers.
    An epsilon certificate is computed every ``check_interval`` iterations and
    after the last one (each check costs about one iteration); when
    ``epsilon_target`` is set the run stops at the first check that reaches
    it. ``independent_player_cache`` is accepted for compatibility and
    ignored: the payoff engine has one aggregation row per agent.
    """

    SCHEDULES = ("harmonic", "linear", "constant")  # a class constant, not a field
    schedule: str = "harmonic"
    coefficient: float = 1.0
    max_iterations: int = 100_000
    epsilon_target: float | None = None
    check_interval: int = 1000
    init: StrategyProfile | None = None
    independent_player_cache: bool = False

    def __post_init__(self):
        if self.schedule not in self.SCHEDULES:
            raise ValueError(f"unknown schedule kind {self.schedule!r}")
        if not 0.0 < _number(self.coefficient, "coefficient") <= 1.0:
            raise ValueError("coefficient must lie in (0, 1] so every step stays a convex mix")
        object.__setattr__(self, "max_iterations", _exact_int(self.max_iterations, "max_iterations"))
        object.__setattr__(self, "check_interval", _exact_int(self.check_interval, "check_interval"))
        if self.max_iterations < 0:
            raise ValueError("max_iterations must be >= 0")
        if self.check_interval < 1:
            raise ValueError("check_interval must be >= 1")
        if not (self.init is None or isinstance(self.init, StrategyProfile)):
            raise ValueError(f"init must be a StrategyProfile or None, got {self.init!r}")
        if self.epsilon_target is not None and not _number(self.epsilon_target, "epsilon_target") >= 0:
            raise ValueError(f"epsilon_target must be >= 0, got {self.epsilon_target}")

    def rate(self, k: int) -> float:
        """The step size after ``k`` steps."""
        if self.schedule == "harmonic":
            return self.coefficient / (k + 1)
        if self.schedule == "linear":
            return self.coefficient * 2 / (k + 2)
        return self.coefficient

    def echo(self) -> dict:
        """JSON-friendly snapshot of the configuration."""
        return {
            "schedule": {"kind": self.schedule, "coefficient": self.coefficient},
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
    profile = StrategyProfile.uniform(n, n_bids) if config.init is None else config.init
    cdf = engine.cdf_table(profile.weights)  # raises ValueError on a wrongly shaped init
    agent_cdf = cdf[:n]  # a view; the last row stays all ones
    # above[b, j] is j > b: row b is a window onto one shared step, read backwards, so no table is built
    above = np.lib.stride_tricks.sliding_window_view(np.arange(2 * n_bids + 1) > n_bids, n_bids + 1)[::-1]
    work = None  # the curves workspace: each iteration overwrites the last's, which its replies consumed

    renormalizations = 0
    trajectory: list[tuple[int, float]] = []
    last = config.max_iterations
    for k in range(last + 1):  # k best-reply steps taken so far
        if k == last or k and not k % config.check_interval:
            work = None  # certify makes its own; freeing ours first lowers the peak memory
            if k:  # the start is certified as given
                # an exact convex mix drifts ~1e-16 per step; renormalize rows from_matrix would reject
                totals = agent_cdf[:, -1]
                bad = np.abs(totals - 1.0) > PROB_TOL
                if bad.any():
                    agent_cdf[bad] /= totals[bad, None]
                    renormalizations += int(bad.sum())
                profile = StrategyProfile.from_matrix(np.diff(agent_cdf, axis=1))
            certificate = certify(profile, instance)
            trajectory.append((k, certificate.epsilon))
            if k == last or config.epsilon_target is not None and certificate.epsilon <= config.epsilon_target:
                break
        if work is None:
            work = engine.workspace()
        best = best_replies(engine.curves(cdf, work))
        eta = config.rate(k)
        agent_cdf *= 1.0 - eta
        np.add(agent_cdf, eta, out=agent_cdf, where=above[best])

    return SolverResult(
        profile=profile,
        iterations_run=trajectory[-1][0],
        certificate=certificate,
        trajectory=tuple(trajectory),
        renormalizations=renormalizations,
    )
