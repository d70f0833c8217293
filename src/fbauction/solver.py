"""Fictitious bidding: iterated best replies against an averaged profile.

Every iteration, each agent computes a best reply to the *current* strategy
profile (the same snapshot for all agents), then mixes a point mass at that
reply into its strategy:

    w_next[a] = (1 - eta_k) * w[a] + eta_k * e_(best reply of a)

after ``k`` steps. With ``eta_k = 1/(k+1)`` the profile is the running
empirical frequency of past best replies (classical fictitious play); with
``eta_k = 2/(k+2)`` it is their frequency weighted by iteration, later
replies counting more; with constant ``eta`` it is an exponential moving
average that progressively forgets the initialization.
Replies are picked by :func:`~fbauction.verify.best_replies`, the rule the
certificate uses, so a run is deterministic for one build.

``run`` is one loop of *segments*. A segment takes the replies once, then
takes ``m >= 1`` steps with those replies as one update,

    w <- keep * w + (1 - keep) * e,    keep = product of (1 - eta_{k+i}) over i < m,

where ``e`` is the pure profile of the replies. No segment passes a check,
so the one check site certifies every ``check_interval``-th iterate and the
last (the start itself when no step runs), as a loop of single steps would.
While the replies hold, the profile moves along the line toward ``e``: the
piecewise-linear path of Brown's fictitious play (Brown 1951; Robinson
1951). Where no scenario has two or more rivals (:attr:`PayoffEngine.affine`)
the curves are affine in the profile, the second-price tail included, so
with ``C`` its curves and ``C_S`` those of ``e`` the first reply switch on
that line comes at

    lam* = min d0 / (d0 + d1) over the cells with d1 > 0,
    d0 = C[a, b] - C[a, j],  d1 = C_S[a, j] - C_S[a, b],

``b`` agent ``a``'s reply. The segment then *jumps*: ``m`` is the first step
count whose line share ``1 - keep`` reaches ``lam*``, at most the steps to the
next check. A try costs a few passes over a table, so ``run`` tries one only
once the replies have repeated for ``need`` segments in a row. ``need``
starts at 1, doubles after each try that jumps a single step and returns to
1 after a longer jump, so where replies change in most steps (example 1, a
200-agent pair auction) tries grow rare. The choice rests on what the run
observes alone. Jumps round otherwise than single steps, so a run that jumps
can break an exact payoff tie the other way and part from the step loop
there. On instances with rival sets of two or more the curves are not affine
along the line, and every segment is one step: the step loop, bit for bit.

The loop carries the profile as one of two *states*, by
:attr:`PayoffEngine.loop`; each takes the replies, gives a jump's keep
bound, applies ``m`` steps and forms the profile at a check.

- ``"step"`` and ``"jump"``: the strict-CDF table ``F`` that
  :meth:`PayoffEngine.curves` reads (``F[a, j]`` = P(agent ``a`` bids below
  level ``j``)). A step is a scale and a suffix add, ``F <- keep * F + (1 -
  keep) * S`` with ``S`` the step table of the replies, and the weights, the
  row differences of ``F``, are formed at the checks alone; both operations
  are monotone in floating point, so the weights are never negative. A
  jump's keep bound costs a second ``curves`` call, on ``S``.
- ``"cumulative"`` (the engine is affine and takes the slot sum: large
  sparse pair auctions): Brown's own form of the dynamic, the cumulative
  payoffs ``U = sum_i mass_i * curves(S_i)`` over the start and every step
  so far, and the step curves ``D = curves(S)`` of the replies held. The
  curves being affine, ``U`` is ``M * curves(F)`` for the total mass ``M``,
  so the replies to ``U`` are the replies to ``F``. A step with keep share
  ``kappa`` adds ``mass * D`` to ``U`` at the mass ``M * (1/kappa - 1)``,
  which makes ``M <- M / kappa``; ``kappa = 0`` replaces the start and
  every reply before it. Each
  segment books the mass of every reply run that ended to its (agent, bid)
  and refreshes ``D`` only in the rows of the agents that face an agent
  whose reply changed (:meth:`PayoffEngine.step_curves`,
  :meth:`PayoffEngine.facing`), so no step passes over a CDF table; the
  weights, the booked masses over ``M``, are formed at the checks alone.
  Before ``M`` would pass ``_RESCALE_AT``, as only the constant schedule's
  does, all masses are scaled down by a power of 2, which rounds nothing,
  so every schedule, coefficient and start takes this state. A jump's bound
  needs no ``curves`` call: the replies hold until the added mass reaches
  ``(U[a, b] - U[a, j]) / (D[a, j] - D[a, b])`` on some cell with ``D[a, j]
  > D[a, b]``. The replies to ``U`` round otherwise than those to
  ``curves(F)``, so this state too can break an exact payoff tie otherwise
  than the step loop.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# validate_instance is unused here; perfbench's tracer patches it here by name
from .model import PROB_TOL, AuctionInstance, StrategyProfile, _exact_int, _number, validate_instance
from .payoff import PayoffEngine, engine_for
from .verify import EquilibriumCertificate, best_replies, certify

# the cumulative payoffs scale their masses down by a power of 2 before their
# total would pass this one; the constant schedule's total grows that far
_RESCALE_AT = 2.0 ** 64


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
    much as one step on the CDF table. Where ``run`` jumps over the steps in
    which no reply changes (see the module docstring), an iteration costs far
    less than a step, so there a check costs many iterations. On the
    cumulative payoffs, the other state of the loop, a step refreshes only
    the payoff rows a reply change touches, and a check costs about eight
    steps on a 195-agent pair auction. ``independent_player_cache`` is
    accepted for compatibility and ignored: the payoff engine has one
    aggregation row per agent.
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


def _switch_keep(gaps: np.ndarray, step_gaps: np.ndarray) -> float:
    """The largest share of the mass that steps with the replies keep
    before some reply stops being best; overwrites both arguments.

    ``gaps[a, j]`` is how far bid ``j``'s payoff falls short of reply
    ``b``'s, over the total mass (``d0``), ``step_gaps`` the same against
    the replies' step profile (``-d1``). Bid ``j`` overtakes reply ``b``
    once the steps keep ``d1 / (d0 + d1)`` of the mass; a cell with ``d1 <=
    0`` gives no positive share.
    """
    total = np.subtract(gaps, step_gaps, out=gaps)
    np.maximum(total, np.finfo(float).tiny, out=total)  # d0 >= 0, so the floor only averts 0 / 0
    return -float(np.divide(step_gaps, total, out=step_gaps).min())


def _renormalize(rows: np.ndarray, totals: np.ndarray) -> int:
    """Divide the ``rows`` whose ``totals`` stray from 1 by more than
    ``PROB_TOL`` by their totals, and count them: an exact convex mix drifts
    ~1e-16 per step, and ``from_matrix`` would reject such rows."""
    bad = np.abs(totals - 1.0) > PROB_TOL
    if bad.any():
        rows[bad] /= totals[bad, None]
    return int(bad.sum())


class _CdfTable:
    """The strict-CDF table ``F``: the state ``run`` carries where the engine's loop is ``"step"`` or ``"jump"``."""

    def __init__(self, engine: PayoffEngine, weights: np.ndarray):
        self.engine = engine
        self.cdf = engine.cdf_table(weights)  # raises ValueError on a wrongly shaped init
        n, n_bids = weights.shape
        self.agent_cdf = self.cdf[:n]  # a view; the last row stays all ones
        # above[b, j] is j > b: row b is a window onto one shared step, read backwards, so no table is built
        self.above = np.lib.stride_tricks.sliding_window_view(np.arange(2 * n_bids + 1) > n_bids, n_bids + 1)[::-1]
        self.held = np.ones_like(self.cdf) if engine.affine else None  # the step table of the replies held, to jump
        self.work = self.curves = self.best = self.previous = None  # previous: the last replies' bytes
        self.renormalizations = 0

    def replies(self) -> bool:
        """Take the replies to ``F``; whether they repeat the last segment's, where a jump may follow."""
        if self.work is None:  # each segment overwrites the last's workspace, whose replies it consumed
            self.work = self.engine.workspace()
        self.curves = curves = self.engine.curves(self.cdf, self.work)
        self.best = best = best_replies(curves)
        if self.held is None:
            return False
        replies = best.tobytes()  # bytes compare in a tenth of the time np.array_equal takes
        repeated, self.previous = replies == self.previous, replies
        return repeated

    def keep_bound(self) -> float:
        """The share of ``F`` the steps keep before some reply stops being best; overwrites the curves."""
        curves, held = self.curves, self.held
        held[:len(self.agent_cdf)] = self.above[self.best]
        at_best = self.best + np.arange(0, curves.size, curves.shape[1])  # flat indices of the replies
        gaps = curves.take(at_best)[:, None] - curves  # before the next curves call overwrites curves
        step = self.engine.curves(held, self.work)
        return _switch_keep(gaps, step.take(at_best)[:, None] - step)

    def advance(self, keep: float, eta: float) -> None:
        """Take steps that keep ``keep`` of ``F`` and add ``eta``, the step table's share, above each reply."""
        agent_cdf = self.agent_cdf
        agent_cdf *= keep
        np.add(agent_cdf, eta, out=agent_cdf, where=self.above[self.best])

    def profile(self) -> StrategyProfile:
        """The weights: the row differences of ``F``."""
        self.work = self.curves = None  # certify makes its own; freeing ours first lowers the peak memory
        self.renormalizations += _renormalize(self.agent_cdf, self.agent_cdf[:, -1])
        return StrategyProfile.from_matrix(np.diff(self.agent_cdf, axis=1))


class _CumulativePayoffs:
    """Brown's cumulative payoffs ``U`` and step curves ``D``: the state where the loop is ``"cumulative"``."""

    def __init__(self, engine: PayoffEngine, weights: np.ndarray):
        self.engine = engine
        # U, the start's curves at mass 1; cdf_table raises ValueError on a wrongly shaped init
        self.payoffs = engine.curves(engine.cdf_table(weights))
        self.step = np.empty_like(self.payoffs)  # D, the curves of the replies held
        self.spare = np.empty_like(self.payoffs)  # scratch for the mass add, a jump's bound and the weights at a check
        self.booked = np.zeros(self.payoffs.size)  # the masses of the finished reply runs, by flat (agent, bid)
        self.start_weights, self.start_mass, self.total = weights, 1.0, 1.0
        self.agents = np.arange(len(weights))
        self.since = np.empty(len(weights))  # the total mass when each agent's current reply run began
        self.best = None
        self.renormalizations = 0

    def replies(self) -> bool:
        """Take the replies to ``U``; book the finished runs and refresh ``D`` where they touch it."""
        best, self.best = self.best, best_replies(self.payoffs)
        changed = self.agents if best is None else (self.best != best).nonzero()[0]
        if not changed.size:
            return True
        total, since = self.total, self.since
        if best is None:  # every agent starts its first run
            rows = self.agents
        else:
            self.booked[changed * self.payoffs.shape[1] + best[changed]] += total - since[changed]
            rows = self.engine.facing(changed)
        since[changed] = total
        self.engine.step_curves(self.best, rows, self.step)
        return False

    def keep_bound(self) -> float:
        """The share of the mass the steps keep before some reply to ``U`` stops being best."""
        payoffs, step = self.payoffs, self.step
        at_best = self.best + np.arange(0, step.size, step.shape[1])  # flat indices of the replies
        gaps = np.subtract(payoffs.take(at_best)[:, None], payoffs, out=self.spare)
        gaps /= self.total
        return _switch_keep(gaps, step.take(at_best)[:, None] - step)

    def advance(self, keep: float, _eta: float) -> None:
        """Take steps that keep ``keep`` of the mass: add ``D`` at the mass that leaves that share."""
        if not keep:  # the step replaces the start and every reply before it
            np.copyto(self.payoffs, self.step)
            self.booked.fill(0.0)
            self.since.fill(0.0)
            self.start_mass, self.total = 0.0, 1.0
            return
        total = self.total
        if total > _RESCALE_AT * keep:  # total / keep would pass it: first scale to a new total near 1
            scale = math.ldexp(1.0, math.frexp(keep)[1] - math.frexp(total)[1])  # a power of 2: exact
            for masses in (self.payoffs, self.booked, self.since):
                masses *= scale
            self.start_mass, total = self.start_mass * scale, total * scale
        added = total * (1.0 - keep) / keep
        self.payoffs += np.multiply(self.step, added, out=self.spare)
        self.total = total + added

    def profile(self) -> StrategyProfile:
        """The weights: the booked masses, the runs held and the start's mass, over the total."""
        weights = self.spare  # from_matrix copies the weights, so the next step may overwrite spare
        np.copyto(weights, self.booked.reshape(weights.shape))
        weights[self.agents, self.best] += self.total - self.since
        if self.start_mass:
            weights += self.start_mass * self.start_weights
        weights /= self.total
        self.renormalizations += _renormalize(weights, weights.sum(axis=1))
        return StrategyProfile.from_matrix(weights)


def run(instance: AuctionInstance, config: SolverConfig) -> SolverResult:
    """Run fictitious bidding on ``instance`` until the budget or target is hit.

    Raises :class:`InvalidInstanceError` if the payoff engine's tables would
    exceed the table limit. The returned certificate always describes the
    returned profile.
    """
    engine = engine_for(instance)
    profile = StrategyProfile.uniform(instance.n_agents, instance.n_bids) if config.init is None else config.init
    state = (_CumulativePayoffs if engine.loop == "cumulative" else _CdfTable)(engine, profile.weights)
    replies, keep_bound, advance = state.replies, state.keep_bound, state.advance
    rate, interval, last, target = config.rate, config.check_interval, config.max_iterations, config.epsilon_target
    streak, need = 0, 1  # the segments in a row that repeated their replies, and how many must before a jump
    skipped = 0  # the steps jumped over, each segment's first step aside
    trajectory: list[tuple[int, float]] = []
    k = 0  # best-reply steps taken so far
    while True:
        if k == last or k and not k % interval:
            if k:  # the start is certified as given
                profile = state.profile()
            certificate = certify(profile, instance)
            trajectory.append((k, certificate.epsilon))
            if k == last or target is not None and certificate.epsilon <= target:
                break
        # one segment: the replies, then one step with them, or m steps in one update where it jumps
        streak = streak + 1 if replies() else 0  # replies repeat only where the engine is affine
        eta = rate(k)  # the CDF table adds eta itself on a single step: 1 - keep can differ in the last bit
        keep = 1.0 - eta
        if streak >= need and (limit := min(last, (k // interval + 1) * interval) - k) > 1:
            m, kept = _held_steps(config, k, keep_bound(), limit)
            need = 1 if m > 1 else 2 * need  # after a jump of one step, wait for a longer run of replies
            if m > 1:
                keep, eta = kept, 1.0 - kept
                k += m - 1
                skipped += m - 1
        advance(keep, eta)
        k += 1

    return SolverResult(profile=profile, iterations_run=k, certificate=certificate, trajectory=tuple(trajectory),
                        renormalizations=state.renormalizations, segments=k - skipped)
