"""Traced mode: spans around calls into each module's public functions.

The tracer wraps, from outside the program, every public function (no
leading underscore) a layer module defines, in every layer module that binds
it (the modules import
each other's names with `from ... import`, so one function can sit in up to
five namespaces). `uninstall` puts every original back. Each wrapped call
records a span (name, start, end, parent, command id); a layer's self time is
its spans' durations minus the time their child spans cover, wrapper
bookkeeping excluded.

The special functions are called once per element (about 345k times in one
catalogue sweep), so they are not stored as spans: each call is folded into
a count and a duration on the innermost open span. Recursive calls of
`cli.dumps` are folded into the outermost one the same way.
"""

from __future__ import annotations

import dataclasses
import functools
import inspect
import json
from pathlib import Path
from time import perf_counter
from types import ModuleType

import numpy as np

LAYERS = ("cli", "catalog", "criteria", "oracle", "pairwise", "compound", "special")

_MARK = "__perfbench_wrapper__"


def layer_modules() -> dict[str, ModuleType]:
    import importlib

    return {layer: importlib.import_module(f"stochorder.{layer}") for layer in LAYERS}


def installed_wrappers(modules: dict[str, ModuleType]) -> list[str]:
    """Names in the layer modules that are tracer wrappers; empty when clean."""
    return [
        f"{mod.__name__}.{attr}"
        for mod in modules.values()
        for attr, val in vars(mod).items()
        if getattr(val, _MARK, False)
    ]


class Span:
    __slots__ = ("name", "layer", "parent", "cmd", "start", "end", "child",
                 "special_calls", "special_s", "value")

    def __init__(self, name: str, layer: str, parent: int, cmd: int) -> None:
        self.name = name
        self.layer = layer
        self.parent = parent
        self.cmd = cmd
        self.start = self.end = self.child = self.special_s = 0.0
        self.special_calls = 0
        self.value = None

    @property
    def self_s(self) -> float:
        return self.end - self.start - self.child


def _grid_points(args, kwargs, grid) -> int:
    return grid.size


def _conv_cells(args, kwargs, model) -> int:
    return (model.n_max + 1) * (model.k_max + 1)


def _oracle_points(args, kwargs, result) -> int:
    """Points of the common support the oracle compares P and Q on."""
    P, Q = args[0], args[1]
    gp, gq = P.support, Q.support
    if gp.kind == "discrete" and gq.kind == "discrete":
        return int(max(gp.upper, gq.upper) - min(gp.lower, gq.lower)) + 1
    return gp.size


class Tracer:
    """Installs and removes the wrappers, and keeps the spans in memory."""

    def __init__(self, modules: dict[str, ModuleType]) -> None:
        self.modules = modules
        self.spans: list[Span] = []
        self.stack: list[int] = []
        self.cmd = -1
        self.in_special = False
        self.nested_special = 0
        self.law_points = 0
        self._wrapped: dict[object, object] = {}
        self._patches = self._plan()

    # -- installation -------------------------------------------------------

    def _plan(self) -> list[tuple[ModuleType, str, object, object]]:
        patches = []
        for layer, mod in self.modules.items():
            for name, fn in list(vars(mod).items()):
                if (name.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != mod.__name__):
                    continue
                wrapper = self._wrap(layer, name, fn)
                self._wrapped[fn] = wrapper
                patches.extend(
                    (other, attr, fn, wrapper)
                    for other in self.modules.values()
                    for attr, val in vars(other).items()
                    if val is fn
                )
        return patches

    def install(self) -> None:
        for mod, attr, _, wrapper in self._patches:
            setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, original, _ in self._patches:
            setattr(mod, attr, original)

    def _wrap(self, layer: str, name: str, fn):
        full = f"{layer}.{name}"
        if layer == "special":
            wrapper = self._leaf(fn)
        elif full == "oracle.oracle_for":
            wrapper = self._oracle_for(fn)
        else:
            measure = hook = None
            if full == "catalog.default_grid":
                measure = _grid_points
            elif full == "compound.make_compound":
                measure = _conv_cells
            elif full == "pairwise.make_law":
                hook = self._count_law_points
            elif layer == "oracle":
                measure = _oracle_points
            elif layer == "criteria" and name.startswith("check_"):
                measure = functools.partial(_scanned_nus, inspect.signature(fn))
            wrapper = self._span(full, layer, fn, measure=measure, result_hook=hook)
        setattr(wrapper, _MARK, True)
        return wrapper

    # -- wrappers -----------------------------------------------------------

    def _span(self, name: str, layer: str, fn, measure=None, result_hook=None):
        tracer = self
        recursive = name == "cli.dumps"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer.stack
            if recursive and stack and tracer.spans[stack[-1]].name == name:
                return fn(*args, **kwargs)
            entered = perf_counter()
            parent = stack[-1] if stack else -1
            if parent < 0:
                tracer.cmd += 1
            span = Span(name, layer, parent, tracer.cmd)
            stack.append(len(tracer.spans))
            tracer.spans.append(span)
            span.start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = perf_counter()
                stack.pop()
            if measure is not None:
                span.value = measure(args, kwargs, result)
            if result_hook is not None:
                result = result_hook(result)
            if parent >= 0:
                tracer.spans[parent].child += perf_counter() - entered
            return result

        return wrapper

    def _leaf(self, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.in_special:
                tracer.nested_special += 1
                return fn(*args, **kwargs)
            if not tracer.stack:
                return fn(*args, **kwargs)
            entered = perf_counter()
            tracer.in_special = True
            nested = tracer.nested_special
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                tracer.in_special = False
                top = tracer.spans[tracer.stack[-1]]
                top.special_calls += 1 + tracer.nested_special - nested
                top.special_s += end - start
                top.child += perf_counter() - entered

        return wrapper

    def _oracle_for(self, fn):
        # the oracle table is a private dict of the original functions, so the
        # lookup's result is swapped for its wrapper
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            found = fn(*args, **kwargs)
            return tracer._wrapped.get(found, found)

        return wrapper

    def _count_law_points(self, law):
        """Count every point at which the law's factor is evaluated."""
        tracer = self
        log_weight = law.log_weight

        def counted(k):
            tracer.law_points += int(np.size(k))
            return log_weight(k)

        return dataclasses.replace(law, log_weight=counted)

    # -- results ------------------------------------------------------------

    def layer_metrics(self) -> dict[str, float]:
        """Per-command means of the per-layer metrics over the traced commands."""
        spans = self.spans
        commands = self.cmd + 1
        if commands <= 0:
            raise RuntimeError("no command was traced")
        calls: dict[str, int] = {}
        self_s: dict[str, float] = {}
        values: dict[str, float] = {}
        special_calls = 0
        special_s = 0.0
        scanned: set[tuple[int, float]] = set()
        density_under_criteria = 0
        nu_evals = 0
        for span in spans:
            for key in (span.name, span.layer):
                calls[key] = calls.get(key, 0) + 1
                self_s[key] = self_s.get(key, 0.0) + span.self_s
            special_calls += span.special_calls
            special_s += span.special_s
            if span.name.startswith("criteria.check_"):
                calls["criteria.checks"] = calls.get("criteria.checks", 0) + 1
                nus = span.value or ()
                nu_evals += len(nus)
                scanned.update((span.cmd, nu) for nu in nus)
            elif span.value is not None:
                values[span.layer] = values.get(span.layer, 0) + span.value
            if span.name == "catalog.density" and self._under(span, "criteria"):
                density_under_criteria += 1

        def ms(x: float) -> float:
            return 1000.0 * x / commands

        return {
            "special.calls": special_calls / commands,
            "special.self_ms": ms(special_s),
            "catalog.default_grid.calls": calls.get("catalog.default_grid", 0) / commands,
            "catalog.default_grid.self_ms": ms(self_s.get("catalog.default_grid", 0.0)),
            "catalog.grid_points": values.get("catalog", 0) / commands,
            "catalog.density.calls": calls.get("catalog.density", 0) / commands,
            "catalog.density.self_ms": ms(self_s.get("catalog.density", 0.0)),
            "criteria.checks": calls.get("criteria.checks", 0) / commands,
            "criteria.self_ms": ms(self_s.get("criteria", 0.0)),
            "criteria.nu_evals": nu_evals / commands,
            "criteria.density_per_nu": density_under_criteria / len(scanned) if scanned else 0.0,
            "oracle.calls": calls.get("oracle", 0) / commands,
            "oracle.self_ms": ms(self_s.get("oracle", 0.0)),
            "oracle.points": values.get("oracle", 0) / commands,
            "pairwise.calls": calls.get("pairwise", 0) / commands,
            "pairwise.self_ms": ms(self_s.get("pairwise", 0.0)),
            "pairwise.law_points": self.law_points / commands,
            "compound.calls": calls.get("compound", 0) / commands,
            "compound.self_ms": ms(self_s.get("compound", 0.0)),
            "compound.conv_cells": values.get("compound", 0) / commands,
            "cli.self_ms": ms(self_s.get("cli", 0.0) - self_s.get("cli.dumps", 0.0)),
            "cli.dumps.self_ms": ms(self_s.get("cli.dumps", 0.0)),
        }

    def _under(self, span: Span, layer: str) -> bool:
        i = span.parent
        while i >= 0:
            if self.spans[i].layer == layer:
                return True
            i = self.spans[i].parent
        return False

    def write(self, path: Path) -> None:
        """Write every span as one JSON line, times in ms from the first span."""
        t0 = self.spans[0].start if self.spans else 0.0
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": i, "name": s.name, "parent": s.parent, "cmd": s.cmd,
                    "start_ms": 1000.0 * (s.start - t0), "end_ms": 1000.0 * (s.end - t0),
                    "self_ms": 1000.0 * s.self_s, "special_calls": s.special_calls,
                    "special_ms": 1000.0 * s.special_s, "value": s.value,
                }) + "\n")


def _scanned_nus(signature: inspect.Signature, args, kwargs, verdict) -> list[float]:
    """The nu values a criterion check evaluated: all of them when it held,
    up to the witness's nu when the scan stopped there."""
    grid = signature.bind(*args, **kwargs).arguments["nu_grid"]
    nus = [float(nu) for nu in np.atleast_1d(np.asarray(grid, dtype=float))]
    witness = verdict.witness
    if witness is not None and witness.nu in nus:
        return nus[: nus.index(witness.nu) + 1]
    return nus
