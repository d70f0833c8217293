"""Command-line front end: solve, verify, and batch-run auction instances.

Exit codes: 0 success, 1 unreadable input file, 2 invalid instance or
mismatched strategy file, 3 solve finished without reaching the requested
epsilon target.
"""
from __future__ import annotations

import argparse
import csv
import dataclasses
import hashlib
import json
import sys
import time
from pathlib import Path

import numpy as np

from .instances import get_example, instance_to_dict, load_instance
from .model import (
    AuctionInstance,
    BidGrid,
    InvalidInstanceError,
    PaymentRule,
    StrategyProfile,
    validate_instance,
)
from .payoff import all_payoff_curves
from .solver import LearningSchedule, SolverConfig, run
from .verify import certificate_to_json, certify


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _write_strategies_csv(path: Path, instance: AuctionInstance, profile: StrategyProfile) -> None:
    weights = profile.weights
    cdf = np.cumsum(weights, axis=1)
    lines = ["agent_id,bid,pdf,cdf"]
    for a in range(profile.n_agents):
        for j, bid in enumerate(instance.grid.bids):
            lines.append(f"{a},{_fmt(bid)},{_fmt(weights[a, j])},{_fmt(cdf[a, j])}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _write_payoffs_csv(path: Path, instance: AuctionInstance, profile: StrategyProfile) -> None:
    curves = all_payoff_curves(profile, instance)
    lines = ["agent_id,bid,expected_payoff"]
    for a in range(instance.n_agents):
        for j, bid in enumerate(instance.grid.bids):
            lines.append(f"{a},{_fmt(bid)},{_fmt(curves[a, j])}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _read_strategies_csv(path: Path, instance: AuctionInstance) -> StrategyProfile:
    """Rebuild a profile from a strategies.csv, checking it fits the instance.

    Every row's bid must lie within 1e-12 of a grid level, and every agent
    needs exactly one row per grid level.
    """
    agents, bids, pdf = [], [], []
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        required = {"agent_id", "bid", "pdf"}
        if reader.fieldnames is None or not required.issubset(reader.fieldnames):
            raise ValueError(f"strategy file needs columns {sorted(required)}")
        for row in reader:
            agents.append(int(row["agent_id"]))
            bids.append(float(row["bid"]))
            pdf.append(float(row["pdf"]))
    n, n_bids = instance.n_agents, instance.n_bids
    grid = instance.grid.bids
    bids = np.array(bids)
    # nearest grid level: the one searchsorted lands on or its lower neighbour
    j = np.clip(np.searchsorted(grid, bids), 1, n_bids - 1)
    j -= bids - grid[j - 1] <= grid[j] - bids
    off = ~(np.abs(grid[j] - bids) <= 1e-12)
    if off.any():
        raise ValueError(f"bid {bids[off][0]} is not on the instance grid")
    agents = np.array(agents, dtype=np.intp)
    found = np.unique(agents).tolist()
    if found != list(range(n)):
        raise ValueError(f"expected agents 0..{n - 1}, found {found}")
    per_level = np.bincount(agents * n_bids + j, minlength=n * n_bids).reshape(n, n_bids)
    uneven = np.flatnonzero((per_level != 1).any(axis=1))
    if uneven.size:
        agent = uneven[0]
        raise ValueError(f"agent {agent} has {per_level[agent].sum()} rows, "
                         f"expected one for each of {n_bids} grid levels")
    weights = np.zeros((n, n_bids))
    weights[agents, j] = pdf
    return StrategyProfile.from_matrix(weights)


def _resolve_instance(args) -> tuple[str, dict, AuctionInstance, SolverConfig]:
    """Instance + base config from --example/--file, before flag overrides."""
    if args.file is not None:
        raw = Path(args.file).read_bytes()
        instance = load_instance(args.file)
        identity = {"file": str(args.file), "sha256": hashlib.sha256(raw).hexdigest()}
        return Path(args.file).stem, identity, instance, SolverConfig()
    named = get_example(args.example, seed=args.seed, n_agents=args.n_agents, n_scenarios=args.n_scenarios)
    identity = {"name": named.name}
    if args.example == "random":
        identity.update({"seed": args.seed, "n_agents": args.n_agents, "n_scenarios": args.n_scenarios})
    return named.name, identity, named.instance, named.config


def _apply_overrides(args, instance: AuctionInstance, config: SolverConfig) -> tuple[AuctionInstance, SolverConfig]:
    if args.grid_steps is not None or args.alpha is not None:
        grid = instance.grid
        if args.grid_steps is not None:
            grid = BidGrid.uniform(float(instance.grid.bids[-1]), args.grid_steps)
        rule = instance.rule if args.alpha is None else PaymentRule(args.alpha)
        instance = AuctionInstance(instance.values, instance.scenarios, grid, rule)
    updates = {}
    if args.eta_kind is not None or args.eta_c is not None:
        kind = args.eta_kind if args.eta_kind is not None else config.schedule.kind
        coeff = args.eta_c if args.eta_c is not None else config.schedule.coefficient
        updates["schedule"] = LearningSchedule(kind, coeff)
    if args.max_iters is not None:
        updates["max_iterations"] = args.max_iters
    if args.eps_target is not None:
        updates["epsilon_target"] = args.eps_target
    if args.check_interval is not None:
        updates["check_interval"] = args.check_interval
    if updates:
        config = dataclasses.replace(config, **updates)
    return instance, config


def _load_or_exit(args):
    """Resolve the instance source, mapping failures to exit codes 1/2."""
    try:
        return _resolve_instance(args)
    except (OSError, json.JSONDecodeError, KeyError, TypeError) as exc:
        print(f"error: cannot read instance: {exc}", file=sys.stderr)
        return 1
    except InvalidInstanceError as exc:
        for problem in exc.problems:
            print(f"invalid instance: {problem}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"invalid instance: {exc}", file=sys.stderr)
        return 2


def cmd_solve(args) -> int:
    resolved = _load_or_exit(args)
    if isinstance(resolved, int):
        return resolved
    name, identity, instance, config = resolved

    instance, config = _apply_overrides(args, instance, config)
    problems = validate_instance(instance)
    if problems:
        for problem in problems:
            print(f"invalid instance: {problem}", file=sys.stderr)
        return 2

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    started = time.perf_counter()
    result = run(instance, config)
    duration = time.perf_counter() - started

    _write_strategies_csv(out / "strategies.csv", instance, result.profile)
    _write_payoffs_csv(out / "payoffs.csv", instance, result.profile)
    cert = certificate_to_json(result.certificate, iterations=result.iterations_run, config_echo=config.echo())
    (out / "certificate.json").write_text(json.dumps(cert, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    manifest = {
        "instance": {**identity, "n_agents": instance.n_agents,
                     "grid": {"max": float(instance.grid.bids[-1]), "steps": instance.n_bids - 1},
                     "alpha": instance.rule.alpha},
        "config": config.echo(),
        "artifacts": {
            "strategies": str(out / "strategies.csv"),
            "payoffs": str(out / "payoffs.csv"),
            "certificate": str(out / "certificate.json"),
        },
        "duration_seconds": duration,
        "iterations_run": result.iterations_run,
        "renormalizations": result.renormalizations,
        "trajectory": [[k, eps] for k, eps in result.trajectory],
    }
    (out / "manifest.json").write_text(json.dumps(manifest, indent=2) + "\n", encoding="utf-8")

    eps = result.certificate.epsilon
    print(f"{name}: epsilon {eps:.6g} after {result.iterations_run} iterations ({duration:.2f}s) -> {out}")
    if config.epsilon_target is not None and eps > config.epsilon_target:
        print(f"epsilon target {config.epsilon_target:.6g} not reached", file=sys.stderr)
        return 3
    return 0


def cmd_verify(args) -> int:
    resolved = _load_or_exit(args)
    if isinstance(resolved, int):
        return resolved
    _name, _identity, instance, _config = resolved

    try:
        profile = _read_strategies_csv(Path(args.strategies), instance)
    except OSError as exc:
        print(f"error: cannot read strategies: {exc}", file=sys.stderr)
        return 1
    except (ValueError, KeyError, TypeError) as exc:
        print(f"strategy file does not match the instance: {exc}", file=sys.stderr)
        return 2

    certificate = certify(profile, instance)
    print(json.dumps(certificate_to_json(certificate), indent=2, sort_keys=True))
    return 0


def cmd_batch(args) -> int:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    rows = ["seed,epsilon,duration_seconds"]
    for seed in range(args.seed_start, args.seed_start + args.seed_count):
        started = time.perf_counter()
        try:
            named = get_example("random", seed=seed, n_agents=args.n_agents, n_scenarios=args.n_scenarios)
            instance, config = _apply_overrides(args, named.instance, named.config)
            result = run(instance, config)
            duration = time.perf_counter() - started
            rows.append(f"{seed},{_fmt(result.certificate.epsilon)},{duration:.3f}")
            print(f"seed {seed}: epsilon {result.certificate.epsilon:.6g} ({duration:.2f}s)")
        except Exception as exc:  # record the failure, keep the batch going
            duration = time.perf_counter() - started
            rows.append(f"{seed},,{duration:.3f}")
            print(f"seed {seed} failed: {exc}", file=sys.stderr)
    (out / "batch.csv").write_text("\n".join(rows) + "\n", encoding="utf-8")
    print(f"wrote {out / 'batch.csv'}")
    return 0


def cmd_show(args) -> int:
    resolved = _load_or_exit(args)
    if isinstance(resolved, int):
        return resolved
    _name, _identity, instance, config = resolved
    print(json.dumps({"instance": instance_to_dict(instance), "recommended_config": config.echo()}, indent=2))
    return 0


def _add_instance_args(parser: argparse.ArgumentParser) -> None:
    source = parser.add_mutually_exclusive_group(required=True)
    source.add_argument("--example", choices=["1", "2", "3", "4", "5", "random"],
                        help="bundled instance name")
    source.add_argument("--file", type=Path, help="instance JSON file")
    parser.add_argument("--seed", type=int, default=0, help="seed for --example random")
    parser.add_argument("--n-agents", type=int, default=10, help="agent count for random instances")
    parser.add_argument("--n-scenarios", type=int, default=20, help="scenario count for random instances")


def _add_override_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--grid-steps", type=int, help="rebuild the grid with this many steps")
    parser.add_argument("--alpha", type=float, help="payment rule mix (1 = pay-as-bid)")
    parser.add_argument("--eta-kind", choices=["harmonic", "constant"], help="learning-rate schedule")
    parser.add_argument("--eta-c", type=float, help="schedule coefficient")
    parser.add_argument("--max-iters", type=int, help="iteration budget")
    parser.add_argument("--eps-target", type=float, help="stop once the certificate reaches this epsilon")
    parser.add_argument("--check-interval", type=int, help="iterations between certificate checks")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="fbauction",
                                     description="Equilibrium solver for sealed-bid auctions with correlated values")
    sub = parser.add_subparsers(dest="command", required=True)

    solve = sub.add_parser("solve", help="run the solver and write strategies, payoffs, and certificate")
    _add_instance_args(solve)
    _add_override_args(solve)
    solve.add_argument("--out", type=Path, default=Path("out"), help="output directory")
    solve.set_defaults(func=cmd_solve)

    verify = sub.add_parser("verify", help="certify a strategies.csv against an instance")
    _add_instance_args(verify)
    verify.add_argument("strategies", type=Path, help="strategies.csv produced by solve")
    verify.set_defaults(func=cmd_verify)

    batch = sub.add_parser("batch", help="solve a range of random instances")
    batch.add_argument("--seed-start", type=int, default=0)
    batch.add_argument("--seed-count", type=int, default=10)
    batch.add_argument("--n-agents", type=int, default=10)
    batch.add_argument("--n-scenarios", type=int, default=20)
    _add_override_args(batch)
    batch.add_argument("--out", type=Path, default=Path("out"), help="output directory")
    batch.set_defaults(func=cmd_batch)

    show = sub.add_parser("show", help="print an instance and its recommended configuration")
    _add_instance_args(show)
    show.set_defaults(func=cmd_show)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
