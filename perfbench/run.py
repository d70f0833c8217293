"""fbauction benchmark: time to a certified equilibrium, end to end and per layer.

Run from the repository root:

    python3 perfbench/run.py --workload bundled --seed 0 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 25 --trace 1

One workload runs in this process; ``all`` runs each workload in a fresh
child process. The program under test is imported from ``src/`` next to this
directory. The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the exit code is
non-zero when any correctness check failed. See README.md in this directory
for the workloads and metrics.
"""
from __future__ import annotations

import os

# fixed before numpy loads OpenBLAS: at two threads the dense matmul in
# PayoffEngine.curves swings by up to 10x from call to call
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import ctypes  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from collections import Counter, defaultdict  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"
SETUP_REPEATS = 5
WORKLOAD_NAMES = ("bundled", "random-batch", "large", "cli-roundtrip")

# (name, unit); the same list, with directions and bounds, is in BENCHMARK.json
END_TO_END = (
    ("setup_s", "s"),
    ("solve_s", "s"),
    ("verify_s", "s"),
    ("iters_per_s", "1/s"),
    ("iters_to_target", "count"),
    ("instances_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
)
PER_LAYER = (
    ("payoff.curves_s", "s"),
    ("payoff.curves_calls", "count"),
    ("payoff.curves_p50_us", "us"),
    ("payoff.curves_p99_us", "us"),
    ("payoff.gather_mb", "MB_computed"),
    ("payoff.aggregate_mflop", "Mflop_computed"),
    ("payoff.groups_per_agent", "ratio"),
    ("payoff.engine_init_s", "s"),
    ("payoff.engine_inits", "count"),
    ("solver.self_s", "s"),
    ("solver.self_us_per_iter", "us"),
    ("solver.iterations", "count"),
    ("solver.checks", "count"),
    ("solver.renormalizations", "count"),
    ("solver.check_share", "ratio"),
    ("verify.certify_s", "s"),
    ("verify.certify_calls", "count"),
    ("model.from_matrix_s", "s"),
    ("model.from_matrix_calls", "count"),
    ("model.validate_s", "s"),
    ("instances.build_s", "s"),
    ("instances.convert_s", "s"),
    ("instances.scenarios", "count"),
    ("cli.solve_self_s", "s"),
    ("cli.verify_self_s", "s"),
    ("cli.bytes_written", "bytes"),
    ("cli.rows_read", "count"),
    ("bench.self_s", "s"),
    ("trace.wall_s", "s"),
    ("trace.overhead_frac", "ratio"),
)
# names printed beside the JSON metrics they equal on one workload
ALIASES = {
    "cli-roundtrip": {"cli_solve_s": "solve_s", "cli_verify_s": "verify_s"},
}


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOAD_NAMES, "all"))
    parser.add_argument("--seed", type=int, default=0, help="seed the workload's instances are generated from")
    parser.add_argument("--seconds", type=float, default=25.0, help="how long to keep starting units")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: report per-layer metrics from a traced run instead of end-to-end ones")
    return parser.parse_args(argv)


def import_program():
    """Import fbauction from this checkout's src/, never from anywhere else."""
    if not (SRC / "fbauction" / "__init__.py").is_file():
        sys.exit(f"error: {SRC / 'fbauction'} not found; run from a checkout of the repository")
    sys.path.insert(0, str(SRC))
    import fbauction

    if Path(fbauction.__file__).resolve().parent != SRC / "fbauction":
        sys.exit(f"error: imported fbauction from {fbauction.__file__}, not from {SRC}")


# ---------------------------------------------------------------- environment

def _blas_threads() -> int | None:
    """Thread count OpenBLAS reports, when numpy bundles a queryable OpenBLAS."""
    import numpy as np

    for lib in sorted((Path(np.__file__).resolve().parent.parent / "numpy.libs").glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _cpu_model() -> str | None:
    cpuinfo = Path("/proc/cpuinfo")
    if cpuinfo.is_file():
        for line in cpuinfo.read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    return None


def _git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def environment() -> dict:
    import numpy as np

    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy without the dict form
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "threads": _blas_threads(), "threads_requested": BLAS_THREADS},
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "cpu": _cpu_model(),
        "git_commit": _git_commit(),
        "src_lines": sum(len(p.read_text(encoding="utf-8").splitlines()) for p in SRC.rglob("*.py")),
    }


# ---------------------------------------------------------------- measurement

def measure(workload, seed: int, seconds: float, trace: bool, workdir: Path) -> dict:
    """Run units until the next one would end after ``seconds``; returns the samples.

    Every unit rebuilds its instances first; untraced units do so
    ``SETUP_REPEATS`` times, each a set-up sample. With tracing, units
    alternate untraced and traced, so the two solve times compare under the
    same conditions. At least one unit of each kind runs.
    """
    from spans import ROOT_SPAN, Tracer

    tracer = Tracer() if trace else None
    setups, units, traced, walls = [], [], [], []
    cases, errors = [], []
    deadline = time.perf_counter() + seconds
    while True:
        started = time.perf_counter()
        try:
            if trace and len(traced) < len(units):
                with tracer.installed(), tracer.span(ROOT_SPAN):
                    cases = workload.setup(seed, tracer.span, workdir)
                    traced.append(workload.unit(cases, workdir))
            else:
                for _ in range(SETUP_REPEATS):
                    begun = time.perf_counter()
                    cases = workload.setup(seed, workdir=workdir)
                    setups.append(time.perf_counter() - begun)
                units.append(workload.unit(cases, workdir))
        except Exception:  # a crash is a failed operation; report it and stop
            errors.append(traceback.format_exc())
            break
        now = time.perf_counter()
        walls.append(now - started)
        if units and (traced or not trace) and now + statistics.median(walls) > deadline:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return {"setups": setups, "units": units, "traced": traced, "tracer": tracer,
            "errors": errors, "peak_rss_mb": peak_rss_mb, "cases": cases}


def end_to_end_metrics(m: dict) -> dict:
    med = statistics.median
    units = m["units"]
    return {
        "setup_s": med(m["setups"]),
        "solve_s": med(u.solve_s for u in units),
        "verify_s": med(u.verify_s for u in units),
        "iters_per_s": med(u.iterations / u.run_s for u in units),
        "iters_to_target": med(u.iterations for u in units),
        "instances_per_s": med(u.instances / u.solve_s for u in units),
        "peak_rss_mb": m["peak_rss_mb"],
    }


def per_layer_metrics(m: dict) -> dict:
    """Per-unit layer metrics from the traced units' spans."""
    from workloads import kernel_counts

    tracer, traced = m["tracer"], m["traced"]
    spans = tracer.spans
    own = tracer.self_times_ns()
    wall = sum(end - start for name, start, end, parent, _ in spans if parent < 0)
    if sum(own) != wall:
        raise AssertionError("span self times do not add up to the traced wall time")

    self_s: dict[str, float] = defaultdict(float)
    calls: Counter = Counter()
    for (name, _start, _end, _parent, tag), ns in zip(spans, own):
        key = f"cli.{tag}" if name == "cli.main" else name
        self_s[key] += ns / 1e9
        calls[key] += 1

    kernels = {}
    gather = flops = groups = agents = 0.0
    curves_us = []
    for name, start, end, _parent, tag in spans:
        if name == "payoff.curves":
            curves_us.append((end - start) / 1e3)
            if tag not in kernels:
                kernels[tag] = kernel_counts(*tracer.engines[tag])
            k = kernels[tag]
            gather += k["gather_mb"]
            flops += k["aggregate_mflop"]
            groups += k["groups"]
            agents += k["agents"]

    def under_run(rec) -> bool:
        return rec[3] >= 0 and spans[rec[3]][0] == "solver.run"

    run_ns = sum(end - start for name, start, end, _, _ in spans if name == "solver.run")
    checks = [rec for rec in spans if rec[0] == "verify.certify" and under_run(rec)]
    check_ns = sum(rec[2] - rec[1] for rec in checks)

    n = len(traced)
    iterations = sum(u.iterations for u in traced)
    n_curves = len(curves_us)
    p50, p99 = statistics.quantiles(curves_us, n=100, method="inclusive")[49::49] if n_curves > 1 else curves_us * 2
    untraced_solve = statistics.median(u.solve_s for u in m["units"])
    traced_solve = statistics.median(u.solve_s for u in traced)
    return {
        "payoff.curves_s": self_s["payoff.curves"] / n,
        "payoff.curves_calls": n_curves / n,
        "payoff.curves_p50_us": p50,
        "payoff.curves_p99_us": p99,
        "payoff.gather_mb": gather / max(n_curves, 1),
        "payoff.aggregate_mflop": flops / max(n_curves, 1),
        "payoff.groups_per_agent": groups / agents if agents else 0.0,
        "payoff.engine_init_s": self_s["payoff.engine_init"] / n,
        "payoff.engine_inits": calls["payoff.engine_init"] / n,
        "solver.self_s": self_s["solver.run"] / n,
        "solver.self_us_per_iter": self_s["solver.run"] / iterations * 1e6 if iterations else 0.0,
        "solver.iterations": iterations / n,
        "solver.checks": len(checks) / n,
        "solver.renormalizations": sum(u.renormalizations for u in traced) / n,
        "solver.check_share": check_ns / run_ns if run_ns else 0.0,
        "verify.certify_s": self_s["verify.certify"] / n,
        "verify.certify_calls": calls["verify.certify"] / n,
        "model.from_matrix_s": self_s["model.from_matrix"] / n,
        "model.from_matrix_calls": calls["model.from_matrix"] / n,
        "model.validate_s": self_s["model.validate"] / n,
        "instances.build_s": self_s["instances.build"] / n,
        "instances.convert_s": self_s["instances.convert"] / n,
        "instances.scenarios": sum(u.scenarios for u in traced) / n,
        "cli.solve_self_s": self_s["cli.solve"] / n,
        "cli.verify_self_s": self_s["cli.verify"] / n,
        "cli.bytes_written": sum(u.bytes_written for u in traced) / n,
        "cli.rows_read": sum(u.rows_read for u in traced) / n,
        "bench.self_s": self_s["bench"] / n,
        "trace.wall_s": wall / 1e9 / n,
        "trace.overhead_frac": traced_solve / untraced_solve - 1.0,
    }


def run_workload(args) -> int:
    import_program()
    from workloads import WORKLOADS, kernel_counts
    import fbauction.payoff as fb_payoff

    workload = WORKLOADS[args.workload]
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{workload.name}-{os.getpid()}"
    workdir.mkdir()
    try:
        m = measure(workload, args.seed, args.seconds, bool(args.trace), workdir)
        kernels = {case.name: kernel_counts(case.instance, fb_payoff.PayoffEngine(
            case.instance, dedup=case.config.independent_player_cache).n_groups) for case in m["cases"]}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    all_units = m["units"] + m["traced"]
    attempted = sum(u.attempted for u in all_units) + len(m["errors"])
    failed = sum(u.failed for u in all_units) + len(m["errors"])
    problems = [p for u in all_units for p in u.problems] + m["errors"]
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)

    tag = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    metrics, extra, units = {}, {}, {**dict(END_TO_END), **dict(PER_LAYER)}
    if m["units"] and (m["traced"] or not args.trace):
        if args.trace:
            metrics = per_layer_metrics(m)
            m["tracer"].write_jsonl(OUT / f"{tag}-spans.jsonl.gz")
        else:
            metrics = end_to_end_metrics(m)
            extra = {alias: (metrics[name], units[name], f"= {name}")
                     for alias, name in ALIASES.get(workload.name, {}).items()}
            epsilons = [max(u.epsilons) for u in m["units"] if u.epsilons]
            if epsilons:
                # printed, not a JSON metric: on seeded workloads it follows the instances
                extra["eps_max"] = (statistics.median(epsilons), "1", "largest certified epsilon")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    record = {
        "workload": workload.name, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "environment": environment(), "result": result,
        "extra": {name: {"value": value, "unit": unit} for name, (value, unit, _) in extra.items()},
        "units": len(m["units"]), "traced_units": len(m["traced"]),
        "samples": {"setup_s": m["setups"], "solve_s": [u.solve_s for u in m["units"]],
                    "verify_s": [u.verify_s for u in m["units"]]},
        "kernels": kernels, "problems": problems,
    }
    (OUT / f"{tag}.json").write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")

    print(f"{workload.name} (seed {args.seed}, {len(m['units'])} units, {len(m['traced'])} traced, "
          f"{record['environment']['blas']['threads']} BLAS threads)")
    print(f"  {'ops_attempted':<26} {attempted:>14d} count")
    print(f"  {'ops_failed':<26} {failed:>14d} count")
    for name, value in metrics.items():
        print(f"  {name:<26} {value:>14.6g} {units[name]}")
    for name, (value, unit, note) in extra.items():
        print(f"  {name:<26} {value:>14.6g} {unit}  ({note})")
    print(json.dumps(result))
    return 0 if result["correct"] and metrics else 1


def run_all(args) -> int:
    """Each workload in a fresh process; prints one combined JSON line."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    records = {}
    for name in WORKLOAD_NAMES:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        record = OUT / f"{name}-seed{args.seed}-trace{args.trace}.json"
        record.unlink(missing_ok=True)
        child = subprocess.run(argv, stdout=subprocess.PIPE, text=True, check=False)
        lines = child.stdout.splitlines()
        print("\n".join(lines[:-1]))
        result = {"correct": False, "attempted": 0, "failed": 1, "metrics": {}}
        if lines and lines[-1].startswith("{"):
            result = json.loads(lines[-1])
        combined["correct"] &= child.returncode == 0 and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        combined["metrics"][name] = result["metrics"]
        if record.is_file():
            records[name] = json.loads(record.read_text(encoding="utf-8"))
    (OUT / f"record-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(records, indent=2) + "\n", encoding="utf-8")
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        import_program()
        OUT.mkdir(exist_ok=True)
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
