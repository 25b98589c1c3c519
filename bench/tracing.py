"""Spans around the calls into each hbvkit layer, recorded from outside.

The tracer replaces module attributes at the names their callers look up
(``hbvkit.scenarios.integrate``, ``hbvkit.equilibria.endemic`` as
``scenarios`` reaches it through ``eq.endemic``, ...), so nothing under
``src/`` changes. Spans are kept in memory as
``[name, start, end, parent, op, attrs]`` and written out when the run ends.
The rhs closure is counted in a separate pass by ``RhsCounter``: a wrapper
around a sub-microsecond call would distort the traced timings.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
from time import perf_counter

from stats import self_time

NAME, START, END, PARENT, OP, ATTRS = range(6)

# Functions traced per module, beyond the entry points the workloads call.
_PUBLIC_FUNCTION_MODULES = ("equilibria", "stability", "process")
# integrate() as each of its callers imports it.
_INTEGRATE_CALLERS = ("scenarios", "process", "cli")


def _integrate_attrs(args, kwargs, traj):
    t_end = args[4] if len(args) > 4 else kwargs["t_end"]
    return {
        "mode": traj.control.mode,
        "steps": len(traj.times) - 1,
        "truncated": traj.final_time < t_end,
    }


class Tracer:
    """In-memory span recorder; ``install``/``uninstall`` swap the wrappers in."""

    def __init__(self):
        self.spans: list[list] = []
        self.op = None
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    def _span(self, name: str, attrs_of, fn, args, kwargs):
        rec = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.op, None]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[START] = perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            rec[END] = perf_counter()
            self._stack.pop()
        if attrs_of is not None:
            rec[ATTRS] = attrs_of(args, kwargs, result)
        return result

    def call(self, name: str, fn, *args, **kwargs):
        """Run ``fn`` under a span; used by the workloads around their own calls."""
        return self._span(name, None, fn, args, kwargs)

    def wrap(self, module, attr: str, name: str, attrs_of=None) -> None:
        """Prepare a span around ``module.attr``, swapped in by ``install``."""
        fn = getattr(module, attr)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self._span(name, attrs_of, fn, args, kwargs)

        self._patches.append((module, attr, fn, traced))

    def install(self) -> None:
        for module, attr, _, traced in self._patches:
            setattr(module, attr, traced)

    def uninstall(self) -> None:
        for module, attr, original, _ in self._patches:
            setattr(module, attr, original)

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, op, attrs in self.spans:
                fh.write(json.dumps({
                    "name": name, "start": start, "end": end,
                    "parent": parent, "op": op, "attrs": attrs,
                }) + "\n")


def _module(name: str):
    # hbvkit.integrate is the function once the package has imported it,
    # so look modules up by their full name.
    return importlib.import_module(f"hbvkit.{name}")


def hbvkit_tracer() -> Tracer:
    """A tracer wrapping every layer boundary the three workloads cross."""
    tracer = Tracer()
    for caller in _INTEGRATE_CALLERS:
        tracer.wrap(_module(caller), "integrate", "integrate.integrate", _integrate_attrs)
    for modname in _PUBLIC_FUNCTION_MODULES:
        module = _module(modname)
        for attr in module.__all__:
            if inspect.isfunction(getattr(module, attr)):
                tracer.wrap(module, attr, f"{modname}.{attr}")
    tracer.wrap(_module("scenarios"), "load_config", "scenarios.load_config")
    tracer.wrap(_module("cli"), "run_scenario", "scenarios.run_scenario")
    return tracer


class RhsCounter:
    """Counts calls of the rhs closures the integrators build."""

    def __init__(self):
        self.calls = 0
        self._module = _module("integrate")
        self._original = self._module.make_rhs

    def install(self) -> None:
        original = self._original

        def counting_make_rhs(params, forcing):
            rhs = original(params, forcing)

            def counted(t, x, y, z):
                self.calls += 1
                return rhs(t, x, y, z)

            return counted

        self._module.make_rhs = counting_make_rhs

    def uninstall(self) -> None:
        self._module.make_rhs = self._original


# {{{ span analysis


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


def children_of(spans) -> dict[int, list[int]]:
    kids: dict[int, list[int]] = {}
    for i, rec in enumerate(spans):
        kids.setdefault(rec[PARENT], []).append(i)
    return kids


def has_ancestor(spans, i: int, pred) -> bool:
    parent = spans[i][PARENT]
    while parent != -1:
        if pred(spans[parent]):
            return True
        parent = spans[parent][PARENT]
    return False


def layer_busy(spans, layer: str) -> float:
    """Wall time inside the layer: outermost spans of the layer only, so a
    layer function calling another of the same layer is not counted twice."""
    return sum(
        rec[END] - rec[START]
        for i, rec in enumerate(spans)
        if layer_of(rec[NAME]) == layer
        and not has_ancestor(spans, i, lambda p: layer_of(p[NAME]) == layer)
    )


def layer_self(spans, layer: str, kids=None) -> float:
    """Sum of self times of the layer's spans: its time in no other layer."""
    kids = children_of(spans) if kids is None else kids
    total = 0.0
    for i, rec in enumerate(spans):
        if layer_of(rec[NAME]) == layer:
            child = [(spans[c][START], spans[c][END]) for c in kids.get(i, ())]
            total += self_time(rec[START], rec[END], child)
    return total


def span_counts(spans) -> dict[str, int]:
    counts: dict[str, int] = {}
    for rec in spans:
        counts[rec[NAME]] = counts.get(rec[NAME], 0) + 1
    return counts


def integrate_totals(spans) -> dict:
    """Counts over the integrate spans of a pass."""
    calls = steps = truncated = under_process = 0
    for i, rec in enumerate(spans):
        if rec[NAME] != "integrate.integrate":
            continue
        calls += 1
        steps += rec[ATTRS]["steps"]
        truncated += int(rec[ATTRS]["truncated"])
        under_process += int(has_ancestor(spans, i, lambda p: layer_of(p[NAME]) == "process"))
    return {"calls": calls, "steps": steps, "truncated": truncated, "under_process": under_process}


def step_us(spans, mode: str) -> float | None:
    """Integrate span time per accepted step over the calls in ``mode``."""
    time_s = steps = 0
    for rec in spans:
        if rec[NAME] == "integrate.integrate" and rec[ATTRS]["mode"] == mode:
            time_s += rec[END] - rec[START]
            steps += rec[ATTRS]["steps"]
    return time_s / steps * 1e6 if steps else None


# }}}
