"""Certification of strategy profiles: exact best-reply gaps on the grid.

A profile is an epsilon-Nash equilibrium of the grid game when no agent can
gain more than epsilon by any unilateral deviation. Deviation payoffs are
linear in the deviator's mixed strategy, so it is enough to check pure bids:
the certified gap per agent is ``max over grid of payoff curve - achieved
payoff``, and epsilon is the largest gap.
"""
from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .model import AuctionInstance, BidGrid, MixedStrategy, StrategyProfile
from .payoff import all_payoff_curves

logger = logging.getLogger(__name__)


def best_replies(curves: np.ndarray) -> np.ndarray:
    """Each agent's best pure reply: the lowest index among a row's largest computed payoffs.

    Payoffs tied in exact arithmetic can differ in the last bit, and then the
    rounding picks the reply: on example 1 at step 134, levels 133 and 134
    pay the same, and another summation order can break that tie the other
    way (ROADMAP.md item 1, best replies that do not depend on summation order).
    """
    return np.argmax(curves, axis=1)


@dataclass(frozen=True, eq=False)
class EquilibriumCertificate:
    """Exact deviation gaps for one strategy profile.

    ``gaps[a]`` is how much agent ``a`` could gain by deviating to its best
    pure bid, ``payoffs[a]`` its achieved expected payoff, ``epsilon`` the
    maximum gap, and ``best_response_bids[a]`` its reply by :func:`best_replies`.
    """

    epsilon: float
    gaps: np.ndarray
    payoffs: np.ndarray
    best_response_bids: np.ndarray


def certify(profile: StrategyProfile, instance: AuctionInstance) -> EquilibriumCertificate:
    """Compute the exact epsilon-Nash certificate of ``profile``.

    Raises ``ValueError`` naming the agents whose gap is not finite (NaN or
    infinite payoffs), so no certificate ever reports a non-finite epsilon.
    """
    weights = profile.weights
    curves = all_payoff_curves(profile, instance)
    achieved = np.einsum("aj,aj->a", weights, curves)
    gaps = curves.max(axis=1) + 0.0 - achieved  # + 0.0 turns the -0.0 of losing bids above value into 0.0
    broken = np.flatnonzero(~np.isfinite(gaps))
    if broken.size:
        raise ValueError(f"non-finite best-reply gap for agents {broken.tolist()}")
    if np.any(gaps < 0.0):
        worst = float(gaps.min())
        # achieved is a convex combination of curve values, so a negative gap
        # can only be rounding noise
        level = logging.WARNING if worst < -1e-12 else logging.DEBUG
        logger.log(level, "clamping %d negative best-reply gaps (min %.3e)", int((gaps < 0).sum()), worst)
        gaps = np.where(gaps < 0.0, 0.0, gaps)
    return EquilibriumCertificate(
        epsilon=float(gaps.max()),
        gaps=gaps,
        payoffs=achieved,
        best_response_bids=best_replies(curves),
    )


def certificate_to_json(
    certificate: EquilibriumCertificate,
    iterations: int | None = None,
    config_echo: dict | None = None,
) -> dict:
    """Serializable view of a certificate, with optional run context."""
    return {
        "epsilon": certificate.epsilon,
        "gaps": certificate.gaps.tolist(),
        "payoffs": certificate.payoffs.tolist(),
        "best_response_bids": certificate.best_response_bids.tolist(),
        "iterations": iterations,
        "config_echo": config_echo,
    }


def cdf_distance(strategy: MixedStrategy, reference_cdf: Callable[[float], float], grid: BidGrid) -> float:
    """Sup distance between a strategy's CDF and a reference CDF on the grid.

    The reference is evaluated at every grid level and must be finite and
    non-decreasing there and reach 1 at the top of the grid.
    """
    ref = np.array([float(reference_cdf(b)) for b in grid.bids])
    if not np.all(np.isfinite(ref)):
        raise ValueError("reference CDF must be finite on the grid")
    if np.any(np.diff(ref) < 0.0):
        raise ValueError("reference CDF must be non-decreasing on the grid")
    if abs(ref[-1] - 1.0) > 1e-9:
        raise ValueError(f"reference CDF ends at {ref[-1]:.12g}, expected 1")
    if strategy.weights.size != len(grid):
        raise ValueError("strategy and grid sizes differ")
    empirical = np.cumsum(strategy.weights)
    return float(np.abs(empirical - ref).max())
