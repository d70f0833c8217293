"""Span recorder wrapped around fbauction's public entry points.

Nothing in ``src/`` knows about it: :meth:`Tracer.install` replaces the
callables where their callers look them up (a class attribute, or the name a
module imported), and :meth:`Tracer.uninstall` puts the originals back. Each
call records ``[name, start_ns, end_ns, parent, tag]`` in memory; the parent
is the span that was open when the call started, so a layer's self time is
its duration minus the durations of its direct children.
"""
from __future__ import annotations

import contextlib
import functools
import gzip
import json
import time
from pathlib import Path

import fbauction.cli as fb_cli
import fbauction.instances as fb_instances
import fbauction.model as fb_model
import fbauction.payoff as fb_payoff
import fbauction.solver as fb_solver
import fbauction.verify as fb_verify

ROOT_SPAN = "bench"

# (owner, attribute, span name): every place a caller looks a layer entry up
_WRAPPED_FUNCTIONS = (
    (fb_solver, "certify", "verify.certify"),
    (fb_cli, "certify", "verify.certify"),
    (fb_verify, "certify", "verify.certify"),
    (fb_model, "validate_instance", "model.validate"),
    (fb_solver, "validate_instance", "model.validate"),
    (fb_instances, "validate_instance", "model.validate"),
    (fb_cli, "validate_instance", "model.validate"),
    (fb_model, "convert_player_to_agent", "instances.convert"),
    (fb_instances, "convert_player_to_agent", "instances.convert"),
    (fb_cli, "load_instance", "instances.build"),
    (fb_solver, "run", "solver.run"),
    (fb_cli, "run", "solver.run"),
)


class Tracer:
    """Collects spans while installed; one instance per traced process."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []
        # engines in construction order, as (instance, n_groups); a curves
        # span's tag is the position of its engine in this list
        self.engines: list[tuple[fb_model.AuctionInstance, int]] = []
        self._engine_seq: dict[int, int] = {}

    @contextlib.contextmanager
    def span(self, name: str, tag=None):
        """Record the enclosed block as one span (for the benchmark's own code)."""
        rec = self._open(name, tag)
        try:
            yield
        finally:
            self._close(rec)

    def _open(self, name: str, tag) -> list:
        rec = [name, 0, 0, self._stack[-1] if self._stack else -1, tag]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = time.perf_counter_ns()
        return rec

    def _close(self, rec: list) -> None:
        rec[2] = time.perf_counter_ns()
        self._stack.pop()

    def _wrap(self, name: str, fn, tag=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = self._open(name, tag(args) if tag else None)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(rec)
        return traced

    def _patch(self, owner, attr: str, replacement) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def install(self) -> None:
        if self._undo:
            raise RuntimeError("tracer is already installed")
        for owner, attr, name in _WRAPPED_FUNCTIONS:
            self._patch(owner, attr, self._wrap(name, getattr(owner, attr)))

        engine_cls = fb_payoff.PayoffEngine
        plain_init = engine_cls.__init__
        traced_init = self._wrap("payoff.engine_init", plain_init)

        def init(engine, *args, **kwargs):
            traced_init(engine, *args, **kwargs)
            self._engine_seq[id(engine)] = len(self.engines)
            self.engines.append((engine.instance, engine.n_groups))

        self._patch(engine_cls, "__init__", functools.wraps(plain_init)(init))
        self._patch(engine_cls, "curves", self._wrap(
            "payoff.curves", engine_cls.curves, tag=lambda args: self._engine_seq[id(args[0])]))

        profile_cls = fb_model.StrategyProfile
        from_matrix = profile_cls.__dict__["from_matrix"].__func__
        self._patch(profile_cls, "from_matrix", classmethod(self._wrap("model.from_matrix", from_matrix)))
        self._patch(fb_cli, "main", self._wrap(
            "cli.main", fb_cli.main, tag=lambda args: args[0][0] if args and args[0] else None))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    @contextlib.contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    def self_times_ns(self) -> list[int]:
        """Per span: its duration minus the durations of its direct children."""
        own = [end - start for _name, start, end, _parent, _tag in self.spans]
        for _name, start, end, parent, _tag in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own

    def write_jsonl(self, path: Path) -> None:
        """Write every span as one JSON object per line, gzip-compressed."""
        keys = ("name", "start_ns", "end_ns", "parent", "tag")
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for rec in self.spans:
                fh.write(json.dumps(dict(zip(keys, rec))) + "\n")
