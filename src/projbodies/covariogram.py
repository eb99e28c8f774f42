"""Covariograms: classical, measure-weighted, functional and polarized.

The classical covariogram g_K(x) = Vol(K ∩ (K+x)) is computed exactly from
polytope arithmetic.  The measure-weighted variants are Monte Carlo over the
relevant intersection, which is known in H-representation without any hull
work (membership tests against K's facets).  Directional derivatives at the
origin ("brightness") use one-sided difference quotients with a Richardson
combination; the Monte Carlo path evaluates all steps on common random
points so the quotient variance stays proportional to the boundary sliver.
It projects those points onto K's facet normals once per call: each point's
largest admissible step along theta, read off the facet slacks, gives the
membership masks of every step without testing the shifted points again.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import bodies
from .bodies import Polytope
from .measures import Density, lebesgue, measure_body, DEFAULT_MC_SAMPLES
from .numerics import (BoxSampler, ConfigurationError, DomainError,
                       PrecisionError, QuadratureResult, RandomStream,
                       mean_with_budget, monte_carlo)


@dataclass
class CovariogramQuery:
    """What to evaluate: the body, the weighting, and the precision knobs."""

    K: Polytope
    mu: Density | None = None
    f: Density | None = None
    mode: str = "plain"
    stream: RandomStream | None = None
    N: int = DEFAULT_MC_SAMPLES
    tol: float | None = None

    def __post_init__(self):
        if self.mu is None:
            self.mu = lebesgue(self.K.n)
        if self.mode not in ("plain", "functional", "polarized"):
            raise ConfigurationError(f"unknown covariogram mode {self.mode!r}")
        if self.mode == "functional" and self.f is None:
            raise ConfigurationError("functional mode requires f")
        if self.mode != "functional" and self.f is not None:
            raise ConfigurationError(f"mode {self.mode!r} does not take an f")


def covariogram_exact(K: Polytope, x) -> float:
    """g_K(x) = Vol(K ∩ (K+x)); exact, supported exactly on DK."""
    return bodies.clip_translate_volume(K, np.asarray(x, dtype=float))


def _pointwise_values(q: CovariogramQuery, points: np.ndarray,
                      x: np.ndarray) -> np.ndarray:
    """Integrand of the queried covariogram at sample points."""
    K, mu = q.K, q.mu
    if q.mode == "polarized":
        inside = K.contains(points + x / 2.0) & K.contains(points - x / 2.0)
        return mu.eval(points) * inside
    inside = K.contains(points) & K.contains(points - x)
    if q.mode == "functional":
        return q.f.eval(points - x) * mu.eval(points) * inside
    return mu.eval(points) * inside


def _sampling_box(q: CovariogramQuery, pad: float = 0.0) -> BoxSampler:
    lo, hi = q.K.bounding_box()
    return BoxSampler(lo - pad, hi + pad)


def _brightness_values(q: CovariogramQuery, points: np.ndarray,
                       theta: np.ndarray, h: float):
    """Covariogram integrands at steps {0, h/2, h} on shared points.

    The points are projected onto K's normals once, as facet-major slacks
    b_i + tol - <u_i, x>.  The base mask (x in K) comes from them, and so
    does each point's reach s*: the largest step s for which the shifted
    membership still holds.  With c_i = <u_i, theta>, x - s theta stays in
    K while s <= min over c_i < 0 of slack_i / -c_i (plain, functional);
    x ± (s/2) theta both stay in K while s <= min over c_i != 0 of
    slack_i / (|c_i| / 2) (polarized).  The masks at h/2 and h are s* >= step,
    and the densities are evaluated only at the points inside K.  The common
    random points make the difference quotient variance proportional to the
    boundary sliver rather than the whole body.
    """
    K, mu = q.K, q.mu
    slack = K.slack(points)
    inside = np.flatnonzero(np.all(slack >= 0.0, axis=0))
    c = K.normals @ theta
    # the step s eats slack_i at this rate; the polarized pair moves s/2 each way
    rate = np.abs(c) / 2.0 if q.mode == "polarized" else -c
    reach = np.full(len(points), np.inf)
    # rows are scaled in place, so no second (m, N) array is ever held
    for i in np.flatnonzero(rate > 0.0):
        slack[i] /= rate[i]
        np.minimum(reach, slack[i], out=reach)
    del slack
    reach = np.take(reach, inside)

    x = np.take(points, inside, axis=0)
    phi = mu.eval(x)
    if q.mode == "functional":
        values = [q.f.eval(x) * phi] + [
            q.f.eval(x - step * theta) * phi * (reach >= step)
            for step in (h / 2, h)]
    else:
        values = [phi] + [phi * (reach >= step) for step in (h / 2, h)]
    out = [np.zeros(len(points)) for _ in values]
    for full, v in zip(out, values):
        full[inside] = v
    return out


def mu_covariogram(q: CovariogramQuery, x, box: BoxSampler | None = None
                   ) -> QuadratureResult:
    """g_{mu,K}(x), r_{mu,K}(x) or g_{mu,f}(K, x), per ``q.mode``.

    At x = 0 the value is mu(K) (plain/polarized) or the L^1(mu, K) norm of
    f (functional).  The Lebesgue plain/polarized path is exact.
    """
    x = np.asarray(x, dtype=float)
    if q.mu.is_lebesgue and q.mode in ("plain", "polarized"):
        # r_{lambda,K} = g_K by translation invariance
        return QuadratureResult(covariogram_exact(q.K, x), 0.0, 0)
    if q.stream is None:
        raise ConfigurationError("Monte Carlo covariogram needs a stream")
    if box is None:
        pad = float(np.linalg.norm(x)) / 2.0 if q.mode == "polarized" else 0.0
        box = _sampling_box(q, pad)
    return monte_carlo(box, lambda p: _pointwise_values(q, p, x), q.N, q.stream)


def brightness_derivative(q: CovariogramQuery, theta, h: float | None = None
                          ) -> QuadratureResult:
    """One-sided radial derivative of the covariogram at 0.

    Difference quotients at steps {h, h/2} (defaults 1e-3 and 5e-4 of the
    body diameter) are Richardson-combined to cancel the O(h) term.  The
    exact Lebesgue path adds a half-step to estimate the remaining bias;
    the Monte Carlo path evaluates all steps on common random points and
    reports three standard errors of the combined quotient.
    """
    theta = np.asarray(theta, dtype=float)
    theta = theta / np.linalg.norm(theta)
    if h is None:
        h = 1e-3 * q.K.diameter
    rho = bodies.radial_many(bodies.difference_body(q.K), theta[None, :])[0]
    if not 0.0 < h <= rho / 4.0 + 1e-12:
        raise DomainError(f"step {h} outside (0, rho_DK/4 = {rho / 4.0:.3g}]")

    if q.mu.is_lebesgue and q.mode in ("plain", "polarized"):
        g = [covariogram_exact(q.K, s * theta) for s in (0.0, h / 4, h / 2, h)]
        d_full = (g[3] - g[0]) / h
        d_half = (g[2] - g[0]) / (h / 2)
        d_quarter = (g[1] - g[0]) / (h / 4)
        r1 = 2.0 * d_half - d_full
        r2 = 2.0 * d_quarter - d_half
        # second extrapolation level: exact through cubic covariograms
        value = (4.0 * r2 - r1) / 3.0
        err = abs(value - r2) + 4e-14 * max(1.0, q.K.volume) / h
        evals = 4
    else:
        if q.stream is None:
            raise ConfigurationError("Monte Carlo brightness needs a stream")
        box = _sampling_box(q, pad=h)
        gen = q.stream.generator()
        points = box.sample(gen, q.N)
        v0, v1, v2 = _brightness_values(q, points, theta, h)
        r = (4.0 * v1 - v2 - 3.0 * v0) * (box.measure / h)
        value, err = map(float, mean_with_budget(r))
        evals = 3 * q.N
    if q.tol is not None and err > q.tol:
        raise PrecisionError(
            f"brightness error budget {err:.3e} exceeds tol {q.tol:.3e}; "
            f"increase N (currently {q.N})")
    return QuadratureResult(value, err, evals)


# -- translated averages ------------------------------------------------------

def sample_uniform(body, gen: np.random.Generator, count: int) -> np.ndarray:
    """Uniform points in a convex body by bounding-box rejection."""
    lo, hi = body.bounding_box()
    box = BoxSampler(lo, hi)
    vol = bodies.volume(body)
    out = np.empty((count, len(lo)))
    have = 0
    chunk = int(min(4_000_000, max(1024, count * box.measure / vol * 1.3)))
    while have < count:
        cand = box.sample(gen, chunk)
        acc = cand[body.contains(cand)]
        take = min(count - have, len(acc))
        out[have:have + take] = acc[:take]
        have += take
    return out


def _as_eval(f) -> Callable[[np.ndarray], np.ndarray]:
    return f.eval if isinstance(f, Density) else f


def translated_average(kind: str, K, mu: Density | None = None,
                       nu: Density | None = None, f=None,
                       stream: RandomStream | None = None,
                       N: int = DEFAULT_MC_SAMPLES) -> QuadratureResult:
    """Covariogram integrated against a second measure, normalized.

    Kinds (all reduce by Fubini to double integrals over K x K, which is
    what gets sampled):

    * ``mu_lambda``:  (1/Vol K) ∫_DK g_K dmu       = Vol(K) E[phi_mu(y - w)]
    * ``nu_mu_body``: (1/mu K)  ∫_DK g_{mu,K} dnu  = V^2 E[phi_mu(y) phi_nu(y-w)] / mu(K)
    * ``nu_mu_functional``: same with f(w) inserted, normalized by the
      L^1(mu, K) norm of f.

    y Stands for the K-sample acted on by mu, w for the translate sample.
    """
    if stream is None:
        raise ConfigurationError("translated_average needs a RandomStream")
    vol = bodies.volume(K)
    if vol <= 0:
        raise DomainError("zero-volume normalizer")
    gen = stream.generator()
    ys = sample_uniform(K, gen, N)
    ws = sample_uniform(K, gen, N)

    if kind == "mu_lambda":
        if mu is None:
            raise ConfigurationError("mu_lambda needs mu")
        mean, err = map(float, mean_with_budget(mu.eval(ys - ws) * vol))
        return QuadratureResult(mean, err, N)

    if kind == "nu_mu_body":
        if mu is None or nu is None:
            raise ConfigurationError("nu_mu_body needs mu and nu")
        num_vals = mu.eval(ys) * nu.eval(ys - ws) * vol * vol
        den = measure_body(mu, K, stream.substream(1), N)
    elif kind == "nu_mu_functional":
        if mu is None or nu is None or f is None:
            raise ConfigurationError("nu_mu_functional needs mu, nu and f")
        fe = _as_eval(f)
        num_vals = mu.eval(ys) * fe(ws) * nu.eval(ys - ws) * vol * vol
        den = l1_norm(f, mu, K, stream.substream(1), N)
    else:
        raise ConfigurationError(f"unknown translated-average kind {kind!r}")

    if den.value <= 0:
        raise DomainError(f"zero normalizer for kind {kind!r}")
    num, num_err = map(float, mean_with_budget(num_vals))
    value = num / den.value
    err = num_err / den.value + abs(num) * den.error_estimate / den.value ** 2
    return QuadratureResult(value, err, 2 * N)


def l1_norm(f, mu: Density, K, stream: RandomStream,
            N: int = DEFAULT_MC_SAMPLES) -> QuadratureResult:
    """L^1(mu, K) norm of f by Monte Carlo over K's bounding box."""
    lo, hi = K.bounding_box()
    box = BoxSampler(lo, hi)
    fe = _as_eval(f)

    def integrand(p):
        return np.abs(fe(p)) * mu.eval(p) * K.contains(p)

    return monte_carlo(box, integrand, N, stream)
