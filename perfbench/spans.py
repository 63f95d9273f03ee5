"""Spans around the public functions of monalg, recorded from outside.

The tracer replaces each public function of the traced modules by a wrapper
that times the call, in every module namespace that imported it, so calls
between modules are seen too.  Spans nest: a span's self time is its wall
time less the time its traced children took.  Private helpers such as
``algebra._multiply_coords`` stay unwrapped, so their time lands in the self
time of the traced caller.

Counters that do not depend on the machine sit next to the times:
``points`` and ``levels`` of each quadrature run (read from
``QuadratureResult.history``) and the number of points per ``eval_batch``.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time

TRACED_MODULES = ("suites", "integrals", "quadrature", "monogenic", "curves", "io")


def quadrature_counts(result) -> tuple:
    """(points evaluated, refinement levels) of one ``QuadratureResult``.

    Both engines double their node count per level; ``history`` holds one
    ``(nodes, delta)`` entry per level after the first.
    """
    history = result.history
    first = history[0][0] // 2 if history else result.nodes
    return first + sum(nodes for nodes, _ in history), 1 + len(history)


class Tracer:
    """Per-name totals of calls, inclusive seconds, self seconds and counts."""

    def __init__(self):
        self.stats = {}
        self._children = []  # seconds of traced children, one slot per open span

    def wrap(self, name, fn, counter=None):
        """``fn`` timed under ``name``; ``counter(result)`` yields extra counts."""
        children = self._children
        rec = self.stats.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            children.append(0.0)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                seconds = time.perf_counter() - start
                child_seconds = children.pop()
                if children:
                    children[-1] += seconds
                rec["calls"] += 1
                rec["s"] += seconds
                rec["self_s"] += seconds - child_seconds
            for key, value in counter(result) if counter else ():
                rec[key] = rec.get(key, 0) + value
            return result

        return traced

    def install(self, extra_namespaces=()):
        """Wrap the traced layers in every loaded monalg module."""
        from monalg import curves, monogenic, quadrature, suites

        def quad_counter(result):
            points, levels = quadrature_counts(result)
            return (("points", points), ("levels", levels))

        def batch_counter(result):
            return (("points", len(result)),)

        counters = {
            quadrature.trapezoid_periodic: quad_counter,
            quadrature.gauss_segment: quad_counter,
            monogenic.eval_batch: batch_counter,
        }
        suite_names = {fn: key for key, fn in suites.SUITES.items()}
        replace = {}
        for short in TRACED_MODULES:
            module = sys.modules[f"monalg.{short}"]
            for attr, fn in vars(module).items():
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != module.__name__):
                    continue
                name = f"suites.{suite_names[fn]}" if fn in suite_names else f"{short}.{attr}"
                replace[fn] = self.wrap(name, fn, counters.get(fn))
        for key, fn in list(suites.SUITES.items()):
            suites.SUITES[key] = replace[fn]
        sampler = curves.TriangleSampler
        sampler.sample = self.wrap("curves.TriangleSampler.sample", sampler.sample)

        namespaces = [vars(m) for n, m in list(sys.modules.items())
                      if n == "monalg" or n.startswith("monalg.")]
        namespaces.extend(vars(ns) for ns in extra_namespaces)
        for namespace in namespaces:
            for attr, value in list(namespace.items()):
                if inspect.isfunction(value) and value in replace:
                    namespace[attr] = replace[value]
