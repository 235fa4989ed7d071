"""Span recorder for the traced run.

The tracer replaces dqc1sim's public functions by timing wrappers, found by
object identity in every loaded ``dqc1sim`` module. ``cli`` imports
``discord`` and the others by name, so patching only the defining module
would miss those calls. Dataclass constructors are wrapped through
``__post_init__``. A target that no longer exists is recorded as missing
and the run goes on without it.

Spans are kept in memory as (name, start, end, parent) and summarised after
the pass; a span's self time is its duration minus its children's.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable


def _shots(args, kwargs) -> float:
    shots = kwargs["shots"] if "shots" in kwargs else args[2]
    return 2.0 * shots  # one stream per quadrature


def _gates(args, kwargs) -> float:
    return float(len(args[0].gates))


def _file_bytes(args, kwargs) -> float:
    return float(os.path.getsize(args[0]))


@dataclass(frozen=True)
class Target:
    """One wrapped callable: span name, owning layer and where it lives."""

    name: str
    layer: str
    module: str
    attr: str  # "func", or "Class.__post_init__" for a constructor
    counter: Callable | None = None  # (args, kwargs) -> amount to add per call


TARGETS = (
    Target("cli.main", "cli", "cli", "main"),
    Target("cli.sweep_point", "cli", "cli", "sweep_point"),
    Target("qmath.DensityMatrix", "qmath", "qmath", "DensityMatrix.__post_init__"),
    Target("qmath.vn_entropy", "qmath", "qmath", "vn_entropy"),
    Target("qmath.partial_trace", "qmath", "qmath", "partial_trace"),
    Target("qmath.fidelity", "qmath", "qmath", "fidelity"),
    Target("dqc1.UnitaryMatrix", "dqc1", "dqc1", "UnitaryMatrix.__post_init__"),
    Target("dqc1.output_state", "dqc1", "dqc1", "output_state"),
    Target("dqc1.reduced_control", "dqc1", "dqc1", "reduced_control"),
    Target("dqc1.exact_expectations", "dqc1", "dqc1", "exact_expectations"),
    Target("sampling.estimate_trace", "sampling", "sampling", "estimate_trace", _shots),
    Target("correlations.discord", "correlations", "correlations", "discord"),
    Target("correlations.minimize", "correlations", "correlations", "minimize"),
    Target("correlations.mutual_information", "correlations", "correlations", "mutual_information"),
    Target("correlations.tangle", "correlations", "correlations", "tangle"),
    Target("correlations.correlation_report", "correlations", "correlations", "correlation_report"),
    Target("tomography.simulate_counts", "tomography", "tomography", "simulate_counts"),
    Target("tomography.reconstruct", "tomography", "tomography", "reconstruct"),
    Target("clifford.circuit_from_json", "clifford", "clifford", "circuit_from_json"),
    Target("clifford.propagate", "clifford", "clifford", "propagate", _gates),
    Target("clifford.dqc1_clifford_expectations", "clifford", "clifford", "dqc1_clifford_expectations"),
    Target("clifford.verify_zero_discord", "clifford", "clifford", "verify_zero_discord"),
    Target("serialize.load_json", "serialize", "serialize", "load_json", _file_bytes),
    Target("serialize.unitary_from_json", "serialize", "serialize", "unitary_from_json"),
    Target("serialize.density_from_json", "serialize", "serialize", "density_from_json"),
)

@dataclass
class Summary:
    """Per-name totals of one traced pass; absent names read 0."""

    wall_s: float
    inclusive_s: dict
    self_s: dict
    calls: dict
    counters: dict
    layer_self_s: dict
    root_s: float

    def untraced_s(self) -> float:
        """Pass wall time outside every root span."""
        return self.wall_s - self.root_s


class Tracer:
    """Installs wrappers for TARGETS and records spans while installed."""

    def __init__(self, targets=TARGETS):
        self.targets = targets
        self.missing: list[str] = []
        self._spans: list[list] = []
        self._stack: list[int] = []
        self._counters: dict = defaultdict(float)
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, target: Target, fn):
        spans, stack, counters = self._spans, self._stack, self._counters
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [target.name, clock(), 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if target.counter is not None:
                counters[target.name] += target.counter(args, kwargs)
            return result

        return wrapper

    def _resolve(self, target: Target):
        try:
            module = importlib.import_module("dqc1sim." + target.module)
        except ImportError:
            return None, None
        owner_name, _, method = target.attr.partition(".")
        owner = getattr(module, owner_name, None)
        if owner is None or not method:
            return module, owner
        return owner, owner.__dict__.get(method)

    def install(self) -> None:
        """Clear recorded spans and counters, then wrap every target."""
        self._spans.clear()
        self._stack.clear()
        self._counters.clear()
        for target in self.targets:
            owner, original = self._resolve(target)
            if original is None:
                self.missing.append(target.name)
                continue
            wrapper = self._wrap(target, original)
            if isinstance(owner, type):
                self._patch(owner, target.attr.partition(".")[2], wrapper)
                continue
            for module in list(sys.modules.values()):
                name = getattr(module, "__name__", "")
                if name != "dqc1sim" and not name.startswith("dqc1sim."):
                    continue
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, attr, wrapper)

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def summarize(self, wall_s: float) -> Summary:
        layer_of = {t.name: t.layer for t in self.targets}
        child_s = [0.0] * len(self._spans)
        for name, start, end, parent in self._spans:
            if parent >= 0:
                child_s[parent] += end - start
        inclusive, own, calls = defaultdict(float), defaultdict(float), defaultdict(int)
        layer_self = dict.fromkeys((t.layer for t in self.targets), 0.0)
        root = 0.0
        for (name, start, end, parent), children in zip(self._spans, child_s):
            inclusive[name] += end - start
            own[name] += end - start - children
            calls[name] += 1
            layer_self[layer_of[name]] += end - start - children
            if parent < 0:
                root += end - start
        return Summary(wall_s, inclusive, own, calls, defaultdict(float, self._counters),
                       layer_self, root)
