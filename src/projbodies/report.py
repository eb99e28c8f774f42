"""Inequality reports, their run configuration, and the tolerance rule.

Every check is an lhs/rhs pair normalized so that margin = rhs - lhs >= 0
means pass; ``finish_report`` turns its propagated error terms into the
tolerance and the verdict; ``first_order_error`` carries an input's error
through a side computed from it.  ``direction_grid`` serves the
direction-wise checks; polar volumes are exact (``Zonoid.polar_volume``)
and use no grid.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .measures import DEFAULT_MC_SAMPLES
from .numerics import DomainError, RandomStream, sphere_directions


@dataclass(frozen=True)
class Witness:
    """A named intermediate value with its own error estimate."""

    value: float
    error: float = 0.0
    note: str | None = None

    def to_json_dict(self):
        d = {"value": self.value, "error": self.error}
        if self.note is not None:
            d["note"] = self.note
        return d


@dataclass
class Report:
    """Verdict record for one inequality check."""

    id: str
    lhs: float
    rhs: float
    margin: float
    tolerance: float
    passed: bool
    verdict: str  # "pass" | "fail" | "hypothesis_violation"
    witnesses: dict
    config: dict

    def to_json_dict(self):
        return {
            "id": self.id,
            "lhs": self.lhs,
            "rhs": self.rhs,
            "margin": self.margin,
            "tolerance": self.tolerance,
            "pass": self.passed,
            "verdict": self.verdict,
            "witnesses": {k: w.to_json_dict() for k, w in self.witnesses.items()},
            "config": self.config,
        }


@dataclass(frozen=True)
class RunConfig:
    """Precision knobs echoed into every report."""

    seed: int = 0
    samples: int = DEFAULT_MC_SAMPLES
    grid: int = 4096
    tol: float = 1e-8

    def stream(self) -> RandomStream:
        return RandomStream(self.seed)

    def echo(self) -> dict:
        return {"seed": self.seed, "samples": self.samples,
                "grid": self.grid, "tol": self.tol}


def finish_report(id_, lhs, rhs, errors, witnesses, cfg,
                  verdict=None) -> Report:
    """Report lhs <= rhs with tolerance 3 * RSS(errors), floored at 1e-12
    (|lhs| + |rhs|) for roundoff.  |margin| <= tolerance adds a "tight"
    witness, never an equality claim; ``verdict`` overrides pass/fail."""
    margin = rhs - lhs
    tolerance = 3.0 * float(np.sqrt(np.sum(np.square(errors)))) if errors else 0.0
    tolerance = max(tolerance, 1e-12 * (abs(lhs) + abs(rhs)))
    passed = bool(margin >= -tolerance)
    if verdict is None:
        verdict = "pass" if passed else "fail"
    if abs(margin) <= tolerance:
        witnesses = dict(witnesses)
        witnesses["tight"] = Witness(margin, tolerance, note="|margin| <= tolerance")
    return Report(id_, float(lhs), float(rhs), float(margin), float(tolerance),
                  passed, verdict, witnesses, cfg.echo())


def first_order_error(fn, a: float, a_err: float) -> float:
    """|fn'(a)| a_err for a positive input a: a central difference at step
    max(a_err, 1e-9 |a|) (floored above roundoff, lower point clamped at
    1e-12), scaled from the step back to a_err; a backward difference when
    the upper point leaves fn's domain (a quantile of a mass just below 1);
    zero when a_err = 0."""
    if a_err == 0.0:
        return 0.0
    delta = max(a_err, 1e-9 * abs(a))
    lower = fn(max(a - delta, 1e-12))
    try:
        return abs(fn(a + delta) - lower) / 2.0 * (a_err / delta)
    except DomainError:
        return abs(fn(a) - lower) * (a_err / delta)


def worst_link(names, radii):
    """(k, i, margin, label) of the least margin radii[k + 1][i] - radii[k][i]
    along a radial inclusion chain, labelled "names[k] <= names[k + 1]"; the
    first link and direction take ties."""
    margins = np.diff(radii, axis=0)
    k, i = np.unravel_index(np.argmin(margins), margins.shape)
    return k, i, float(margins[k, i]), f"{names[k]} <= {names[k + 1]}"


def direction_grid(n: int, count: int, cfg: RunConfig):
    """Deterministic grid for n in {2, 3}, seeded random directions for n = 4."""
    return sphere_directions(n, count, cfg.stream().substream(999) if n == 4 else None)

