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

``run`` advances in *segments*. A segment computes the curves and the best
replies once, then takes ``m >= 1`` steps with those replies as one update,

    F <- keep * F + (1 - keep) * S,    keep = product of (1 - eta_{k+i}) over i < m,

where ``S`` is the step table of the replies. No segment passes a check, so
the checks fall on the same iterations as in a loop of single steps. While
the replies hold, ``F`` moves along the line toward ``S``: the piecewise-linear
path of Brown's fictitious play (Brown 1951; Robinson 1951). Where no
scenario has two or more rivals (:attr:`PayoffEngine.affine`) the curves are
affine in ``F``, the second-price tail included, so with ``C = curves(F)`` and
``C_S = curves(S)`` the first reply switch on that line comes at

    lam* = min d0 / (d0 + d1) over the cells with d1 > 0,
    d0 = C[a, b] - C[a, j],  d1 = C_S[a, j] - C_S[a, b],

``b`` agent ``a``'s reply. The segment then *jumps*: ``m`` is the first step
count whose line share ``1 - keep`` reaches ``lam*``, at most the steps to the
next check. A jump costs a second ``curves`` call and a few passes over the
table, so ``run`` tries one only once the replies have repeated for ``need``
segments in a row. ``need`` starts at 1, doubles after each try that jumps
a single step and returns to 1 after a longer jump, so where replies change
in most steps (example 1, a 200-agent pair auction) tries grow rare. The
choice rests on what the run observes alone. Jumps round otherwise than
single steps, so a run that jumps can break an exact payoff tie the other
way and part from the step loop there. On instances with rival sets of two
or more the curves are not affine along the line, and every segment is one
step: the step loop, bit for bit.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# validate_instance is unused here; perfbench's tracer patches it here by name
from .model import PROB_TOL, AuctionInstance, StrategyProfile, _exact_int, _number, validate_instance
from .payoff import PayoffEngine, engine_for
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
    after the last one; when ``epsilon_target`` is set the run stops at the
    first check that reaches it. A check costs about one ``curves`` call, as
    much as one step. Where ``run`` jumps over the steps in which no reply
    changes (see the module docstring), an iteration costs far less than a
    step, so there a check costs many iterations. ``independent_player_cache`` is accepted for compatibility and
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
    """Final profile plus the certificate and sampled epsilon history.

    ``iterations_run`` counts every step, the ones jumped over included;
    ``segments`` counts the segments, the times the replies were computed,
    at most one per step.
    """

    profile: StrategyProfile
    iterations_run: int
    certificate: EquilibriumCertificate
    trajectory: tuple[tuple[int, float], ...]
    renormalizations: int = 0
    segments: int = 0


def _closed_keep(config: SolverConfig, k: int):
    """The share of the table that ``m`` steps from step ``k`` keep, as a
    function of ``m``, where that product of ``1 - rate(k + i)`` over ``i <
    m`` has a closed form; else None."""
    c = config.coefficient
    if config.schedule == "constant":
        return lambda m: (1.0 - c) ** m
    if c != 1.0:
        return None
    if config.schedule == "harmonic":
        return lambda m: k / (k + m)
    return lambda m: k * (k + 1) / ((k + m) * (k + m + 1))


def _held_steps(config: SolverConfig, k: int, keep_bound: float, limit: int) -> tuple[int, float]:
    """How long replies held from step ``k`` last: the first ``m <= limit``
    whose ``m`` steps keep at most ``keep_bound`` of the table, else ``limit``,
    and the share those ``m`` steps keep.

    A closed form is searched by doubling, then bisection. Otherwise the
    products are formed in chunks that double from 16 steps. Either way the
    search costs about as much as the ``m`` it finds, or its logarithm,
    whatever the limit.
    """
    keep = _closed_keep(config, k)
    if keep is not None:
        low, high = 0, 1  # keep(low) is above the bound, except at low = 0, where no step is taken
        while keep(high) > keep_bound:
            if high == limit:
                return limit, keep(limit)
            low, high = high, min(2 * high, limit)
        while high - low > 1:
            mid = (low + high) // 2
            low, high = (mid, high) if keep(mid) > keep_bound else (low, mid)
        return high, keep(high)
    kept, m, size = 1.0, 0, 16
    while m < limit:
        size = min(size, limit - m)
        chunk = kept * np.cumprod(1.0 - config.rate(np.arange(k + m, k + m + size)))
        over = int(np.count_nonzero(chunk > keep_bound))  # chunk falls, so the first m is just past these
        if over < size:
            return m + over + 1, float(chunk[over])
        kept, m, size = float(chunk[-1]), m + size, 2 * size
    return limit, kept


def _hold(engine: PayoffEngine, work: dict[str, np.ndarray], curves: np.ndarray, best: np.ndarray,
          held_table: np.ndarray, config: SolverConfig, k: int, limit: int) -> tuple[int, float]:
    """How many steps from step ``k`` the replies ``best`` to ``curves`` stay
    best, at most ``limit``, and the share of the table those steps keep.

    ``held_table`` holds the step table S of ``best``; ``work``, the
    workspace ``curves`` came from, is overwritten. Along the line ``(1 -
    lam) F + lam S`` bid ``j`` overtakes reply ``b`` at ``lam = d0 / (d0 +
    d1)``, where the steps keep ``d1 / (d0 + d1)`` of F; a cell with ``d1
    <= 0`` gives no positive share.
    """
    at_best = best + np.arange(0, curves.size, curves.shape[1])  # flat indices of the replies
    d0 = curves.take(at_best)[:, None] - curves
    step_curves = engine.curves(held_table, work)
    d1 = step_curves - step_curves.take(at_best)[:, None]
    total = np.maximum(d0 + d1, np.finfo(float).tiny)  # d0 >= 0, so the floor only averts 0 / 0
    return _held_steps(config, k, float((d1 / total).max()), limit)


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
    held_table = np.ones_like(cdf) if engine.affine else None  # the step table of the replies held, to jump
    # the last segment's replies, the segments in a row that repeated them, and how many must before a jump
    previous, streak, need = None, 0, 1
    work = None  # the curves workspace: each segment overwrites the last's, which its replies consumed

    renormalizations = skipped = 0  # skipped: the steps jumped over, each segment's first step aside
    trajectory: list[tuple[int, float]] = []
    last = config.max_iterations
    k = 0  # best-reply steps taken so far
    while True:
        if k == last or k and not k % config.check_interval:
            work = curves = None  # certify makes its own; freeing ours first lowers the peak memory
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
            bound = min(last, (k // config.check_interval + 1) * config.check_interval)  # the next check
        # one segment: the replies, then one step with them, or m steps in one update where it jumps
        curves = engine.curves(cdf, work)
        best = best_replies(curves)
        eta = config.rate(k)
        keep = 1.0 - eta
        if held_table is not None:
            replies = best.tobytes()  # bytes compare in a tenth of the time np.array_equal takes
            streak = streak + 1 if replies == previous else 0
            previous = replies
            if streak >= need and bound - k > 1:
                held_table[:n] = above[best]
                m, kept = _hold(engine, work, curves, best, held_table, config, k, bound - k)
                need = 1 if m > 1 else 2 * need  # after a jump of one step, wait for a longer run of replies
                if m > 1:
                    keep, eta = kept, 1.0 - kept
                    k += m - 1
                    skipped += m - 1
        agent_cdf *= keep
        np.add(agent_cdf, eta, out=agent_cdf, where=above[best])
        k += 1

    return SolverResult(
        profile=profile,
        iterations_run=k,
        certificate=certificate,
        trajectory=tuple(trajectory),
        renormalizations=renormalizations,
        segments=k - skipped,
    )
