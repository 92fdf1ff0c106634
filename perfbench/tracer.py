"""Span and count recording around the public functions of ``qpopf``.

The benchmark installs the tracer from outside the package: it wraps
every public function and public method of each layer module, then
rebinds every module attribute that holds one of the originals (a
``from x import f`` binds ``f`` by value, so ``regions.solve_lp`` and
``evaluate.project_feasible`` need their own rebinding).  Spans
(name, start, end, parent) are kept in memory; counts are recorded at
the same boundaries by hooks that see the arguments and the result.
Nothing is wrapped unless :meth:`Tracer.install` runs, so the untraced
run executes the package unmodified.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import sys
from collections import defaultdict
from dataclasses import dataclass, field

import numpy as np

from speed import clock

LAYERS = ("grid", "lp", "regions", "circuit", "classifier", "privacy", "evaluate", "cli")
BENCH = "bench"


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int = -1


@dataclass
class Tracer:
    spans: list[Span] = field(default_factory=list)
    counts: dict[str, float] = field(default_factory=lambda: defaultdict(float))
    sets: dict[str, set] = field(default_factory=lambda: defaultdict(set))
    active: bool = False
    _stack: list[int] = field(default_factory=list)
    _restore: list[tuple[object, str, object]] = field(default_factory=list)

    # -- recording ------------------------------------------------------------

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, clock(), parent=parent))
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close(self, index: int) -> None:
        self.spans[index].end = clock()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        """A span around the benchmark's own code; nothing when inactive."""
        if not self.active:
            yield
            return
        idx = self.open(name)
        try:
            yield
        finally:
            self.close(idx)

    @contextlib.contextmanager
    def paused(self):
        """A ``bench.check`` span inside which nothing is recorded.

        Correctness checks run here, so their LP solves and circuit calls
        are not counted as the workload's work; their time shows as the
        self time of ``bench.check``.
        """
        if not self.active:
            yield
            return
        idx = self.open("bench.check")
        self.active = False
        try:
            yield
        finally:
            self.active = True
            self.close(idx)

    def inside(self, name: str) -> bool:
        return any(self.spans[i].name == name for i in self._stack)

    def count(self, name: str, k: float = 1) -> None:
        self.counts[name] += k

    # -- patching -------------------------------------------------------------

    def install(self, hooks: dict | None = None) -> None:
        """Wrap the public API of every layer module and rebind it."""
        hooks = hooks or {}
        modules = {layer: sys.modules[f"qpopf.{layer}"] for layer in LAYERS}
        wrapped: dict[int, object] = {}

        def wrap(fn, name):
            hook = hooks.get(name)

            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                if not self.active:
                    return fn(*args, **kwargs)
                idx = self.open(name)
                try:
                    result = fn(*args, **kwargs)
                except BaseException:
                    self.count(f"{name}.raised")
                    raise
                finally:
                    self.close(idx)
                if hook is not None:
                    hook(self, args, kwargs, result)
                return result

            wrapped[id(fn)] = wrapper
            return wrapper

        for layer, mod in modules.items():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_"):
                    continue
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    self._set(mod, attr, wrap(obj, _span_name(layer, attr)))
                elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
                    self._wrap_methods(obj, layer, wrap)
        # scipy's HiGHS entry point as the lp layer calls it
        lp = modules["lp"]
        self._set(lp, "linprog", wrap(lp.linprog, "lp.highs"))
        # rebind names imported by value in every module of the package
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "qpopf" or mod_name.startswith("qpopf.")):
                continue
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrapped and inspect.isfunction(obj):
                    self._set(mod, attr, wrapped[id(obj)])

    def _wrap_methods(self, cls, layer, wrap) -> None:
        for attr, obj in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            if inspect.isfunction(obj):
                self._set(cls, attr, wrap(obj, f"{layer}.{attr}"))
            elif isinstance(obj, classmethod):
                self._set(cls, attr, classmethod(wrap(obj.__func__, f"{layer}.{attr}")))

    def _set(self, owner, attr, value) -> None:
        self._restore.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    # -- analysis -------------------------------------------------------------

    def self_times(self) -> np.ndarray:
        """Per-span duration minus the time covered by its direct children."""
        dur = np.array([s.end - s.start for s in self.spans])
        child = np.zeros(len(self.spans))
        for s in self.spans:
            if s.parent >= 0:
                child[s.parent] += s.end - s.start
        return dur - child

    def summary(self) -> dict[str, dict]:
        """name -> calls, total seconds, self seconds, per-call durations.

        No public function of the package calls another of the same
        name, so a name's total seconds never count a nested span twice.
        """
        out: dict[str, dict] = {}
        for s, own in zip(self.spans, self.self_times()):
            e = out.setdefault(s.name, {"calls": 0, "s": 0.0, "self_s": 0.0, "durations": []})
            e["calls"] += 1
            e["s"] += s.end - s.start
            e["self_s"] += own
            e["durations"].append(s.end - s.start)
        return out


def _span_name(layer: str, attr: str) -> str:
    if layer == "cli" and attr.startswith("cmd_"):
        return f"cli.{attr[4:]}"
    return f"{layer}.{attr}"


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]
