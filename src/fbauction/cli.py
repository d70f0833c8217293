"""Command-line front end: solve, verify, and batch-run auction instances.

Every command reads its input through one pipeline: the instance source
(``--example``/``--file``), then the override flags, each building an
:class:`AuctionInstance` that validates itself on construction; ``verify``
then reads its strategy file against that instance. :func:`main` runs the
pipeline before the command starts and is the one place where an input
error becomes an exit code, so a command returns only 0 or 3.

Exit codes: 0 success, 1 unreadable input file, 2 invalid instance, invalid
flag value, or mismatched strategy file, 3 solve finished without reaching
the requested epsilon target. ``batch`` builds every seed's instance before
it solves any, so a bad flag stops it with code 2; a seed whose solve fails
is recorded with an empty epsilon and the batch goes on.
"""
from __future__ import annotations

import argparse
import csv
import dataclasses
import hashlib
import json
import sys
import time
import warnings
from pathlib import Path

import numpy as np

from .instances import BUILTIN_EXAMPLES, get_example, grid_to_spec, instance_to_dict, load_instance, random_instance
from .model import (
    AuctionInstance,
    BidGrid,
    InvalidInstanceError,
    PaymentRule,
    StrategyProfile,
    validate_instance,  # unused here; perfbench's tracer patches it here by name
)
from .payoff import all_payoff_curves, engine_for
from .solver import SolverConfig, run
from .verify import certificate_to_json, certify


def _write_grid_csv(path: Path, instance: AuctionInstance, **columns: np.ndarray) -> None:
    """One row per (agent, grid level): ``agent_id,bid`` and each (agents x bids) column, as ``%.17g``.

    Each agent's rows are written by one ``%`` over a template of its id and the bids.
    """
    cells = ",%.17g" * len(columns) + "\n"
    levels = [f",{b:.17g}{cells}" for b in instance.grid.bids.tolist()]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(["agent_id", "bid", *columns]) + "\n")
        for a in range(instance.n_agents):
            agent = str(a)
            block = np.stack([c[a] for c in columns.values()], axis=1)  # (levels, columns), row by row
            fh.write((agent + agent.join(levels)) % tuple(block.ravel().tolist()))


def _read_strategies_csv(path: Path, instance: AuctionInstance) -> StrategyProfile:
    """Rebuild a profile from a strategies.csv, checking it fits the instance.

    ``agent_id``, ``bid`` and ``pdf`` are found by header name. A row lacking
    one is a ``csv.Error`` (unreadable), a field that does not parse a
    ``ValueError``; both name the file and the line. Every row's bid must lie
    within 1e-12 of a grid level, and every agent needs exactly one row per
    grid level.
    """
    with open(path, encoding="utf-8") as fh:
        header = next(csv.reader(fh), None)
        required = ("agent_id", "bid", "pdf")
        if header is None or not set(required).issubset(header):
            raise ValueError(f"strategy file needs columns {sorted(required)}")
        position = {name: i for i, name in enumerate(header)}  # a repeated name reads its last column
        usecols = [position[name] for name in required]
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)  # header only
            try:
                table = np.loadtxt(fh, dtype=[("agent", np.intp), ("bid", float), ("pdf", float)], delimiter=",",
                                   usecols=usecols, comments=None, quotechar='"', ndmin=1)
            except ValueError as exc:
                raise _first_bad_line(path, dict(zip(required, usecols)), exc) from None
    agents, bids, pdf = table["agent"], table["bid"], table["pdf"]
    n, n_bids = instance.n_agents, instance.n_bids
    grid = instance.grid.bids
    # nearest grid level: the one searchsorted lands on or its lower neighbour
    j = np.clip(np.searchsorted(grid, bids), 1, n_bids - 1)
    j -= bids - grid[j - 1] <= grid[j] - bids
    off = ~(np.abs(grid[j] - bids) <= 1e-12)
    if off.any():
        raise ValueError(f"bid {bids[off][0]} is not on the instance grid")
    found = np.unique(agents).tolist()
    if found != list(range(n)):
        raise ValueError(f"expected agents 0..{n - 1}, found {found}")
    per_level = np.bincount(agents * n_bids + j, minlength=n * n_bids).reshape(n, n_bids)
    uneven = np.argwhere(per_level != 1)
    if uneven.size:
        agent, level = uneven[0]
        raise ValueError(f"agent {agent} has {per_level[agent, level]} rows at bid {grid[level]}, expected 1")
    weights = np.zeros((n, n_bids))
    weights[agents, j] = pdf
    return StrategyProfile.from_matrix(weights)


def _first_bad_line(path: Path, columns: dict[str, int], exc: ValueError) -> Exception:
    """The error for the first body line of ``path`` that ``np.loadtxt`` rejected with ``exc``.

    numpy numbers the rows it read, not the file's lines, so the file is read
    again with ``csv.reader``, and the error names its line: 1-based, the
    header and blank lines counted. Like ``np.loadtxt``, it reads a row's
    columns in order and stops at the first one missing (``csv.Error``) or
    unparsable (``ValueError``).
    """
    with open(path, encoding="utf-8") as fh:
        reader = csv.reader(fh)
        next(reader)  # the header
        for row in reader:
            if not row:  # a blank line, which np.loadtxt skips
                continue
            for (name, col), parse in zip(columns.items(), (np.intp, float, float)):
                if col >= len(row):
                    return csv.Error(f"{path}, line {reader.line_num}: no {name} field")
                if not _parses(parse, row[col]):
                    return ValueError(f"{path}, line {reader.line_num}: cannot read {name} {row[col]!r}")
    return ValueError(f"{path}: {exc}")


def _parses(parse, text: str) -> bool:
    """Whether ``np.loadtxt`` reads ``text`` with ``parse``: Python's parsers also take '_' and non-ASCII digits."""
    try:
        parse(text)
    except (ValueError, OverflowError):
        return False
    return text.isascii() and "_" not in text


def _load(args, seed: int | None = None) -> tuple[str, dict, AuctionInstance, SolverConfig]:
    """The input pipeline: source (--example/--file), then override flags.

    Returns the instance's name and identity (for the manifest), the instance
    (valid by construction) and its config after the overrides. The
    instance's payoff engine is built here, so an aggregation matrix above the
    table limit is an input error too, and the solve reuses the cached engine.
    """
    if args.file is not None:
        name, instance, config = Path(args.file).stem, load_instance(args.file), SolverConfig()
        identity = {"file": str(args.file), "sha256": hashlib.sha256(Path(args.file).read_bytes()).hexdigest()}
    elif args.example == "random":
        seed = args.seed if seed is None else seed
        try:
            named = random_instance(seed, args.n_agents, args.n_scenarios)
        except ValueError as exc:
            if not hasattr(exc, "argument"):  # not a size argument's error
                raise
            raise ValueError(f"--{exc.argument.replace('_', '-')} {getattr(args, exc.argument)}: {exc}") from None
        name, instance, config = named.name, named.instance, named.config
        identity = {"name": name, "seed": seed, "n_agents": args.n_agents, "n_scenarios": args.n_scenarios}
    else:
        named = get_example(args.example)
        name, instance, config = named.name, named.instance, named.config
        identity = {"name": name}
    instance, config = _apply_overrides(args, instance, config)
    engine_for(instance)
    return name, identity, instance, config


def _flag_value(flag: str, value, build):
    """``build()``, with a ``ValueError`` it raises reworded to name ``flag`` and ``value``."""
    try:
        return build()
    except ValueError as exc:
        raise ValueError(f"{flag} {value}: {exc}") from None


def _apply_overrides(args, instance: AuctionInstance, config: SolverConfig) -> tuple[AuctionInstance, SolverConfig]:
    """The instance and config after the override flags; a bad value's error names its flag."""
    if "alpha" not in args:  # verify and show take no override flags
        return instance, config
    if args.grid_steps is not None or args.alpha is not None:
        grid, rule = instance.grid, instance.rule
        if args.grid_steps is not None:
            grid = _flag_value("--grid-steps", args.grid_steps,
                               lambda: BidGrid.uniform(float(instance.grid.bids[-1]), args.grid_steps))
        if args.alpha is not None:
            rule = _flag_value("--alpha", args.alpha, lambda: PaymentRule(args.alpha))
        instance = AuctionInstance(instance.values, instance.scenarios, grid, rule)
    for flag, name, value in (("--eta-kind", "schedule", args.eta_kind),
                              ("--eta-c", "coefficient", args.eta_c),
                              ("--max-iters", "max_iterations", args.max_iters),
                              ("--eps-target", "epsilon_target", args.eps_target),
                              ("--check-interval", "check_interval", args.check_interval)):
        if value is not None:
            config = _flag_value(flag, value, lambda: dataclasses.replace(config, **{name: value}))
    return instance, config


def _load_with_strategies(args) -> tuple[AuctionInstance, StrategyProfile]:
    """The pipeline's instance, then the strategy file read against it (``verify``)."""
    _name, _identity, instance, _config = _load(args)
    return instance, _read_strategies_csv(args.strategies, instance)


def _load_seeds(args) -> list[tuple[str, dict, AuctionInstance, SolverConfig]]:
    """The pipeline once per random seed, all before the first solve (``batch``).

    With no seeds it still runs once on ``--seed-start``, so a bad flag is
    rejected whatever the seed count.
    """
    loaded = [_load(args, seed) for seed in range(args.seed_start, args.seed_start + args.seed_count)]
    if not loaded:
        _load(args, args.seed_start)
    return loaded


def cmd_solve(args, loaded) -> int:
    name, identity, instance, config = loaded
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    started = time.perf_counter()
    result = run(instance, config)
    duration = time.perf_counter() - started
    engine = engine_for(instance)

    weights = result.profile.weights
    _write_grid_csv(out / "strategies.csv", instance, pdf=weights, cdf=np.cumsum(weights, axis=1))
    _write_grid_csv(out / "payoffs.csv", instance, expected_payoff=all_payoff_curves(result.profile, instance))
    cert = json.dumps(certificate_to_json(result.certificate), indent=2, sort_keys=True)
    (out / "certificate.json").write_text(cert + "\n", encoding="utf-8")  # what verify prints
    manifest = {
        "instance": {**identity, "n_agents": instance.n_agents, "grid": grid_to_spec(instance.grid),
                     "alpha": instance.rule.alpha},
        "config": config.echo(),
        "engine": {"aggregation": engine.aggregation, "loop": engine.loop},  # the path run took
        "artifacts": {
            "strategies": str(out / "strategies.csv"),
            "payoffs": str(out / "payoffs.csv"),
            "certificate": str(out / "certificate.json"),
        },
        "duration_seconds": duration,
        "iterations_run": result.iterations_run,
        "renormalizations": result.renormalizations,
        "segments": result.segments,
        "trajectory": [[k, eps] for k, eps in result.trajectory],
    }
    (out / "manifest.json").write_text(json.dumps(manifest, indent=2) + "\n", encoding="utf-8")

    eps = result.certificate.epsilon
    print(f"{name}: epsilon {eps:.6g} after {result.iterations_run} iterations ({duration:.2f}s) -> {out}")
    if config.epsilon_target is not None and not eps <= config.epsilon_target:  # a NaN epsilon misses too
        print(f"epsilon target {config.epsilon_target:.6g} not reached", file=sys.stderr)
        return 3
    return 0


def cmd_verify(args, loaded) -> int:
    instance, profile = loaded
    print(json.dumps(certificate_to_json(certify(profile, instance)), indent=2, sort_keys=True))
    return 0


def cmd_batch(args, loaded) -> int:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    rows = ["seed,epsilon,duration_seconds"]
    for _name, identity, instance, config in loaded:
        seed = identity["seed"]
        started = time.perf_counter()
        try:
            result = run(instance, config)
            duration = time.perf_counter() - started
            rows.append(f"{seed},{result.certificate.epsilon:.17g},{duration:.3f}")
            print(f"seed {seed}: epsilon {result.certificate.epsilon:.6g} ({duration:.2f}s)")
        except Exception as exc:  # record the failure, keep the batch going
            duration = time.perf_counter() - started
            rows.append(f"{seed},,{duration:.3f}")
            print(f"seed {seed} failed: {exc}", file=sys.stderr)
    (out / "batch.csv").write_text("\n".join(rows) + "\n", encoding="utf-8")
    print(f"wrote {out / 'batch.csv'}")
    return 0


def cmd_show(args, loaded) -> int:
    _name, _identity, instance, config = loaded
    print(json.dumps({"instance": instance_to_dict(instance), "recommended_config": config.echo()}, indent=2))
    return 0


def _whole(text: str) -> int:
    """A seed or seed-count flag's value: a whole number >= 0, the seeds numpy's generator takes."""
    if not (text.isascii() and text.isdigit()):
        raise argparse.ArgumentTypeError(f"expected a whole number >= 0, got {text!r}")
    return int(text)


def _add_instance_args(parser: argparse.ArgumentParser) -> None:
    source = parser.add_mutually_exclusive_group(required=True)
    source.add_argument("--example", choices=[*BUILTIN_EXAMPLES, "random"], help="bundled instance name")
    source.add_argument("--file", type=Path, help="instance JSON file")
    parser.add_argument("--seed", type=_whole, default=0, help="seed for --example random")
    _add_random_args(parser)


def _add_random_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--n-agents", type=int, default=10, help="agent count for random instances")
    parser.add_argument("--n-scenarios", type=int, default=20, help="scenario count for random instances")


def _add_override_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--grid-steps", type=int, help="rebuild the grid with this many steps")
    parser.add_argument("--alpha", type=float, help="payment rule mix (1 = pay-as-bid)")
    parser.add_argument("--eta-kind", choices=SolverConfig.SCHEDULES,
                        help="step size after k steps: harmonic --eta-c/(k+1), linear --eta-c*2/(k+2), constant "
                             "--eta-c (default: the instance's recommended schedule)")
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
    solve.set_defaults(read=_load, func=cmd_solve)

    verify = sub.add_parser("verify", help="certify a strategies.csv against an instance")
    _add_instance_args(verify)
    verify.add_argument("strategies", type=Path, help="strategies.csv produced by solve")
    verify.set_defaults(read=_load_with_strategies, func=cmd_verify)

    batch = sub.add_parser("batch", help="solve a range of random instances")
    batch.add_argument("--seed-start", type=_whole, default=0)
    batch.add_argument("--seed-count", type=_whole, default=10)
    _add_random_args(batch)
    _add_override_args(batch)
    batch.add_argument("--out", type=Path, default=Path("out"), help="output directory")
    batch.set_defaults(example="random", file=None, read=_load_seeds, func=cmd_batch)

    show = sub.add_parser("show", help="print an instance and its recommended configuration")
    _add_instance_args(show)
    show.set_defaults(read=_load, func=cmd_show)

    return parser


def main(argv: list[str] | None = None) -> int:
    """Read the command's input with its ``read``, then run its ``func`` on it."""
    args = build_parser().parse_args(argv)
    try:
        loaded = args.read(args)
    except (OSError, csv.Error, json.JSONDecodeError, KeyError, TypeError) as exc:
        print(f"error: cannot read input: {exc}", file=sys.stderr)
        return 1
    except InvalidInstanceError as exc:
        print("\n".join(f"invalid instance: {problem}" for problem in exc.problems), file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return 2
    return args.func(args, loaded)


if __name__ == "__main__":
    sys.exit(main())
