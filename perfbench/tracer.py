"""Spans and work counts for the projbodies layers, recorded from outside.

``Tracer.install`` wraps public functions of the projbodies modules.  The
modules bind one another's functions by name (``projection`` does
``from .measures import facet_integrals``), so each wrapper replaces the
original in every projbodies namespace that holds it; otherwise internal
calls would escape the trace.  ``Polytope.contains`` is wrapped on the class.
Density point counts come from wrapping the builtin density constructors so
that each returned ``Density`` has its ``eval`` replaced through
``dataclasses.replace``: the ``label`` the program dispatches on is kept.

Spanned functions record (name, start, end, parent, phase) in memory; hot
leaf functions (density evaluation, simplex measures, exact covariograms)
are only counted, so their time is part of their caller's self time.
Nothing is printed: ``write`` saves the spans to a file.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import sys
import time

import numpy as np

SPANNED = {
    "numerics": ("integrate_1d", "monte_carlo"),
    "bodies": ("build_polytope", "clip_translate_volume",
               "intersect_translate"),
    "measures": ("facet_integrals", "measure_body"),
    "covariogram": ("brightness_derivative", "translated_average",
                    "sample_uniform"),
    "projection": ("projection_zonoid", "offset_vector",
                   "zonoid_polar_volume"),
    "meanbodies": ("radial_mean_body", "inclusion_chain_report"),
    "inequalities": ("verify",),
    "isotropic": ("minimize_I", "reverse_isoperimetric"),
    "cli": ("main",),
}
COUNTED = {
    "bodies": ("simplex_measure",),
    "covariogram": ("covariogram_exact", "mu_covariogram"),
}
DENSITY_CONSTRUCTORS = ("lebesgue", "gaussian", "exp_norm", "radial_power",
                        "custom_density")


def _evaluations(result):
    return int(result.evaluations)


# work units read off a spanned call: name -> (counter, extractor(args, result))
_WORK = {
    "numerics.integrate_1d": ("evals", lambda a, r: _evaluations(r)),
    "numerics.monte_carlo": ("samples", lambda a, r: _evaluations(r)),
    "measures.facet_integrals": ("nodes", lambda a, r: int(r[2])),
    "measures.measure_body": ("samples", lambda a, r: _evaluations(r)),
    "covariogram.brightness_derivative": ("samples",
                                          lambda a, r: _evaluations(r)),
    "covariogram.translated_average": ("samples",
                                       lambda a, r: _evaluations(r)),
    "covariogram.sample_uniform": ("accepted", lambda a, r: len(r)),
    "projection.zonoid_polar_volume": ("directions",
                                       lambda a, r: int(a[1].count)),
}


class Tracer:
    """In-memory span recorder.  ``phase`` None means recording is off."""

    def __init__(self):
        self.phase = None
        self.names: list[str] = []
        self._name_index: dict[str, int] = {}
        self.spans: list = []
        self._stack: list[int] = []
        self._stack_names: list[str] = []
        self.counts: dict[tuple[str, str], float] = {}
        self._restore: list = []

    # -- recording ---------------------------------------------------------

    def add(self, key: str, amount=1):
        k = (self.phase, key)
        self.counts[k] = self.counts.get(k, 0) + amount

    def _span_call(self, name, fn, args, kwargs):
        if self.phase is None:
            return fn(*args, **kwargs)
        idx = self._name_index.setdefault(name, len(self.names))
        if idx == len(self.names):
            self.names.append(name)
        span = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(None)
        self._stack.append(span)
        self._stack_names.append(name)
        phase = self.phase
        start = time.perf_counter_ns()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter_ns()
            self._stack.pop()
            self._stack_names.pop()
            self.spans[span] = (idx, start, end, parent, phase)
        self.add(name + ".calls")
        work = _WORK.get(name)
        if work is not None:
            self.add(f"{name}.{work[0]}", work[1](args, result))
        return result

    # -- wrappers ----------------------------------------------------------

    def _spanned(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self._span_call(name, fn, args, kwargs)
        return wrapper

    def _counted(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.phase is not None:
                self.add(name + ".calls")
            return fn(*args, **kwargs)
        return wrapper

    def _contains(self, fn):
        tracer = self

        @functools.wraps(fn)
        def contains(body, points, *args, **kwargs):
            if tracer.phase is None:
                return fn(body, points, *args, **kwargs)
            inside = tracer._span_call("bodies.contains", fn,
                                       (body, points) + args, kwargs)
            count = len(np.atleast_2d(points))
            tracer.add("bodies.contains.points", count)
            tracer.add("bodies.contains.hits", int(np.count_nonzero(inside)))
            if tracer._stack_names[-1:] == ["covariogram.sample_uniform"]:
                tracer.add("covariogram.sample_uniform.candidates", count)
            return inside
        return contains

    def _density_constructor(self, fn):
        tracer = self

        @functools.wraps(fn)
        def construct(*args, **kwargs):
            density = fn(*args, **kwargs)
            evaluate = density.eval

            def counted_eval(points):
                if tracer.phase is not None:
                    tracer.add("measures.density_points",
                               len(np.atleast_2d(points)))
                return evaluate(points)

            return dataclasses.replace(density, eval=counted_eval)
        return construct

    def install(self):
        """Wrap every traced function in every projbodies namespace."""
        import importlib

        import projbodies
        from projbodies import bodies

        for mod_name in SPANNED:
            importlib.import_module("projbodies." + mod_name)
        modules = [m for name, m in sys.modules.items()
                   if m is not None and (name == "projbodies"
                                         or name.startswith("projbodies."))]
        replace = {}
        for mod_name, names in SPANNED.items():
            mod = getattr(projbodies, mod_name)
            for name in names:
                fn = getattr(mod, name)
                replace[id(fn)] = (fn, self._spanned(f"{mod_name}.{name}", fn))
        for mod_name, names in COUNTED.items():
            mod = getattr(projbodies, mod_name)
            for name in names:
                fn = getattr(mod, name)
                replace[id(fn)] = (fn, self._counted(f"{mod_name}.{name}", fn))
        for name in DENSITY_CONSTRUCTORS:
            fn = getattr(projbodies.measures, name)
            replace[id(fn)] = (fn, self._density_constructor(fn))
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                hit = replace.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(mod, attr, hit[1])
                    self._restore.append((mod, attr, value))
        original = bodies.Polytope.contains
        bodies.Polytope.contains = self._contains(original)
        self._restore.append((bodies.Polytope, "contains", original))
        return self

    def uninstall(self):
        for owner, attr, value in reversed(self._restore):
            setattr(owner, attr, value)
        self._restore.clear()

    # -- results -----------------------------------------------------------

    def self_times(self) -> dict[tuple[str, str], float]:
        """Seconds per (phase, name): span time minus child span time."""
        child = [0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[tuple[str, str], float] = {}
        for i, (idx, start, end, _, phase) in enumerate(self.spans):
            key = (phase, self.names[idx])
            out[key] = out.get(key, 0.0) + (end - start - child[i]) * 1e-9
        return out

    def write(self, path, meta: dict):
        record = dict(meta)
        record["names"] = self.names
        record["spans"] = self.spans
        record["counts"] = [[p, k, v] for (p, k), v in sorted(self.counts.items())]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(record, fh, separators=(",", ":"))
