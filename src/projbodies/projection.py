"""Projection bodies as weighted zonoids, offsets, and identity residuals.

A polytope's projection body (classical, measure-weighted, or
function-weighted) is the zonoid with one generator per facet: the facet
normal weighted by the facet surface integral.  Its support function is

    h(theta) = 1/2 sum_i w_i |<theta, u_i>|.

It is a zonotope, so its shifted polar is the hull of u / h(u) over the
zonotope's facet normals u: polar volumes are exact hull volumes.  The
offset vectors eta (half the interior integral of grad phi) and tau (its
f-weighted analogue) shift the body so that the brightness derivative of
the matching covariogram is minus the support function of the shifted zonoid.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace

import numpy as np
from scipy.spatial import ConvexHull, QhullError

from . import bodies
from .bodies import Ball, LinearMap, PolarDomainError, Polytope
from .covariogram import CovariogramQuery, brightness_derivative
from .measures import (Density, compose_linear, facet_integrals,
                       facet_weights, lebesgue, DEFAULT_MC_SAMPLES)
from .numerics import (ConfigurationError, PrecisionError, QuadratureResult,
                       RandomStream, SphereGrid, ball_volume,
                       check_monte_carlo, monte_carlo_in)


@dataclass(frozen=True)
class Zonoid:
    """Weighted segment set; support h(theta) = 1/2 sum w_i |<theta, u_i>|.

    With an ``offset`` c the represented body is the zonoid minus c, whose
    support is h(theta) - <c, theta>; ``support`` evaluates that shifted
    form.  ``weight_errors`` carry the facet-cubature error budget.
    """

    n: int
    generators: np.ndarray       # (m, n) unit vectors
    weights: np.ndarray          # (m,) nonnegative
    offset: np.ndarray = None    # (n,)
    weight_errors: np.ndarray = None

    def __post_init__(self):
        if self.offset is None:
            object.__setattr__(self, "offset", np.zeros(self.n))
        if self.weight_errors is None:
            object.__setattr__(self, "weight_errors", np.zeros(len(self.weights)))

    def support(self, thetas: np.ndarray) -> np.ndarray:
        thetas = np.atleast_2d(thetas)
        return (0.5 * np.abs(thetas @ self.generators.T) @ self.weights
                - thetas @ self.offset)

    def support_error(self, thetas: np.ndarray) -> np.ndarray:
        thetas = np.atleast_2d(thetas)
        return 0.5 * np.abs(thetas @ self.generators.T) @ self.weight_errors

    @property
    def total_weight(self) -> float:
        return float(self.weights.sum())

    def with_offset(self, c) -> "Zonoid":
        return Zonoid(self.n, self.generators, self.weights,
                      np.asarray(c, dtype=float), self.weight_errors)

    def polar_points(self, weights=None) -> np.ndarray:
        """u / h(u) over both unit normals u of each (n-1)-generator span:
        they include every facet normal, so their hull is the polar, and h > 0
        on them exactly when the origin is interior (else PolarDomainError).
        ``weights`` overrides the zonoid's own."""
        w = self.weights if weights is None else weights
        subsets = np.array(list(itertools.combinations(range(len(w)), self.n - 1)))
        u = np.linalg.svd(self.generators[subsets])[2][:, -1]
        u = np.vstack([u, -u])
        h = replace(self, weights=w).support(u)
        if np.any(h <= 0.0):
            raise PolarDomainError("origin not interior: h <= 0 on a facet normal")
        return u / h[:, None]

    def polar_bracket(self, measure) -> tuple[float, float]:
        """``measure`` (monotone under inclusion) of the polar, given its
        ``polar_points``, and its weight-error bound: the polar shrinks as
        any weight grows, so w + e and max(w - e, 0) bracket it.  Where the
        lower weights leave the origin on the boundary (unresolved weights,
        whose errors are at least the weights, make h vanish on a normal),
        the polar is unbounded and the bracket has no end: that raises
        ``PrecisionError`` naming those facets."""
        w, e = self.weights, self.weight_errors
        value = measure(self.polar_points(w))
        if not np.any(e):   # exact weights: the bracket would repeat value
            return value, 0.0
        lo = measure(self.polar_points(w + e))
        try:
            widest = self.polar_points(np.maximum(w - e, 0.0))
        except PolarDomainError:
            unresolved = "".join(
                f"; facet {i} weight {w[i]:.3e} has error {e[i]:.3e}"
                for i in np.flatnonzero((e > 0.0) & (e >= w)))
            raise PrecisionError(
                "the weights minus their errors leave the origin on the "
                f"boundary, so the polar has no error bracket{unresolved}; "
                "tighten tol") from None
        return value, max(measure(widest) - value, value - lo)

    def polar_volume(self) -> tuple[float, float]:
        """Exact polar volume and its weight-error bound.  Support values
        that span more than double precision leave qhull a polar too flat
        to hull: that raises ``PrecisionError`` naming the extremes."""
        def volume(points):
            try:
                return ConvexHull(points).volume
            except QhullError:
                h = 1.0 / np.linalg.norm(points, axis=1)
                raise PrecisionError(
                    f"support values h(u) from {h.min():.3e} to {h.max():.3e} span "
                    "more than double precision, so qhull cannot hull the polar's "
                    "points u / h(u)") from None

        return self.polar_bracket(volume)


@dataclass(frozen=True)
class OffsetVector:
    """eta or tau, with the boundary/interior cross-check attached."""

    value: np.ndarray
    error_estimate: float
    which: str                       # "eta" | "tau"
    cross_value: np.ndarray | None = None
    cross_error: float = 0.0

    @property
    def is_projective(self) -> bool:
        """True when the vector vanishes within its 3-sigma budget."""
        budget = max(self.error_estimate, 1e-12)
        return bool(np.linalg.norm(self.value) <= 3.0 * budget)

    @property
    def consistent(self) -> bool:
        if self.cross_value is None:
            return True
        gap = np.linalg.norm(self.value - self.cross_value)
        return bool(gap <= 3.0 * (self.error_estimate + self.cross_error) + 1e-9)


def projection_zonoid(K: Polytope, mu: Density | None = None,
                      f: Density | None = None, tol: float = 1e-9) -> Zonoid:
    """Projection body of K (weighted by mu, and optionally by f) as a zonoid.

    Weights per facet: the facet area (Lebesgue), the facet integral of phi
    (measure-weighted), or of f*phi (function-weighted).
    """
    if mu is None:
        mu = lebesgue(K.n)
    if mu.is_lebesgue and f is None:
        return Zonoid(K.n, K.normals.copy(), K.areas.copy())
    if f is None:
        w, e = facet_weights(mu, K, tol)
    else:
        w, e, _ = facet_integrals(K, lambda p: f.eval(p) * mu.eval(p), tol)
    return Zonoid(K.n, K.normals.copy(), w, weight_errors=e)


def ball_projection_body(ball: Ball) -> Ball:
    """Pi of a centered ball: the ball of radius kappa_{n-1} R^{n-1}."""
    n = ball.n
    return Ball(n, ball_volume(n - 1) * ball.radius ** (n - 1))


def offset_vector(K: Polytope, mu: Density, f=None,
                  stream: RandomStream | None = None,
                  N: int = DEFAULT_MC_SAMPLES, tol: float = 1e-9) -> OffsetVector:
    """eta = 1/2 ∫_K grad phi (or tau = 1/2 ∫_K (f grad phi - phi grad f)).

    eta is computed from the boundary form (facet integrals of n_K phi,
    authoritative) and cross-checked against the interior Monte Carlo form;
    the two agree by Gauss-Green.  tau has no boundary-only form and is
    Monte Carlo, except when f is the same object as mu: its integrand is
    then exactly 0, and so is tau (the bits the Monte Carlo would give).
    The stream and sample-count guards hold either way.
    """
    if f is None:
        off = shifted_zonoid(K, mu, tol=tol)[1]
        if stream is None or mu.is_lebesgue:
            return off
        cross, cross_err = _interior_vector(K, mu.grad, stream, N)
        return replace(off, cross_value=0.5 * cross, cross_error=0.5 * cross_err)

    if not isinstance(f, Density):
        raise ConfigurationError("tau needs f with a gradient (a Density)")
    check_monte_carlo(N, stream)
    if f is mu:
        # f grad phi - phi grad f is exactly 0 at every point
        return OffsetVector(np.zeros(K.n), 0.0, "tau")

    def fn(p):
        fp, mp, fg, mg = f.eval(p), mu.eval(p), f.grad(p), mu.grad(p)
        out = np.empty(mg.shape)
        for j in range(K.n):   # f grad phi - phi grad f, column by column
            out[:, j] = fp * mg[:, j] - mp * fg[:, j]
        return out

    vec, err = _interior_vector(K, fn, stream, N)
    return OffsetVector(0.5 * vec, 0.5 * err, "tau")


def shifted_zonoid(K: Polytope, mu: Density, f=None,
                   stream: RandomStream | None = None,
                   N: int = DEFAULT_MC_SAMPLES, tol: float = 1e-9):
    """(Pi_mu K - eta, eta) or (Pi_{mu,f} K - tau, tau), one facet cubature.

    eta = 1/2 sum w_i u_i, error 1/2 sum e_i, is read off the zonoid (zero
    for Lebesgue, by facet closure); tau is ``offset_vector``'s Monte Carlo.
    """
    zon = projection_zonoid(K, mu, f, tol)
    if f is not None:
        off = offset_vector(K, mu, f, stream, N, tol)
    elif mu.is_lebesgue:
        off = OffsetVector(np.zeros(K.n), 0.0, "eta", np.zeros(K.n), 0.0)
    else:
        off = OffsetVector(0.5 * (zon.weights @ zon.generators),
                           0.5 * float(zon.weight_errors.sum()), "eta")
    return zon.with_offset(off.value), off


def _interior_vector(K: Polytope, fn, stream: RandomStream, N: int):
    """``monte_carlo_in`` of a vector field over K, one column per
    component; returns (vector, norm of the componentwise errors)."""
    res = monte_carlo_in(K, fn, N, stream)
    return res.value, float(np.linalg.norm(res.error_estimate))


def brightness_residual(K: Polytope, mu: Density, theta, mode: str = "plain",
                        f=None, stream: RandomStream | None = None,
                        N: int = DEFAULT_MC_SAMPLES,
                        tol: float = 1e-9) -> QuadratureResult:
    """|d/dr covariogram + h_{Pi - offset}(theta)| with its error budget.

    Offsets per mode: eta (plain), 0 (polarized; needs symmetric K and even
    mu), tau (functional).
    """
    theta = np.asarray(theta, dtype=float)
    theta = theta / np.linalg.norm(theta)
    if mode == "polarized":
        if not K.is_symmetric() or not mu.even:
            raise ConfigurationError(
                "polarized brightness needs symmetric K and even mu")
    f = f if mode == "functional" else None
    query = CovariogramQuery(K, mu, f, mode=mode, stream=stream, N=N)
    fd = brightness_derivative(query, theta)

    if mode == "polarized":
        zon, off_err = projection_zonoid(K, mu, tol=tol), 0.0
    else:
        sub = stream.substream(7) if f is not None and stream else None
        zon, off = shifted_zonoid(K, mu, f, sub, N, tol)
        off_err = off.error_estimate

    h_val = float(zon.support(theta[None, :])[0])
    h_err = float(zon.support_error(theta[None, :])[0])
    residual = abs(fd.value + h_val)
    budget = float(np.sqrt(fd.error_estimate ** 2 + h_err ** 2 + off_err ** 2))
    return QuadratureResult(residual, budget, fd.evaluations)


def transform_law_residual(K: Polytope, mu: Density, T: LinearMap,
                           grid: SphereGrid, tol: float = 1e-9) -> float:
    """Max relative grid residual of Pi_mu(TK) = |det T| T^{-t} Pi_{mu^T}(K).

    Both sides are built from independent facet cubatures: the left on the
    transformed body under mu, the right on K under the pulled-back density.
    """
    if abs(T.det) < 1e-14:
        raise ConfigurationError("transform law needs an invertible map")
    TK = bodies.apply_linear(K, T)
    left = projection_zonoid(TK, mu, tol=tol)
    muT = compose_linear(mu, T)
    right = projection_zonoid(K, muT, tol=tol)
    thetas = grid.directions
    lhs = left.support(thetas)
    rhs = abs(T.det) * right.support(thetas @ np.linalg.inv(T.matrix).T)
    scale = float(np.max(np.abs(lhs))) or 1.0
    return float(np.max(np.abs(lhs - rhs)) / scale)


def zonoid_polar_volume(Z: Zonoid, grid: SphereGrid) -> float:
    """Grid cross-check of ``Zonoid.polar_volume``: support quadrature."""
    return bodies.polar_volume_from_support(Z.support, grid)


def halfspace_integral_identity(K: Polytope, mu: Density, theta,
                                tol: float = 1e-9):
    """Half-boundary integral vs <theta, eta> + h_{Pi_mu K}(theta).

    Returns (lhs, rhs, residual): lhs sums <u_i, theta> w_i over facets with
    nonnegative normal component.
    """
    theta = np.asarray(theta, dtype=float)
    theta = theta / np.linalg.norm(theta)
    zon, off = shifted_zonoid(K, mu, tol=tol)
    comp = K.normals @ theta
    lhs = float(np.sum(np.where(comp >= 0.0, comp, 0.0) * zon.weights))
    # zon is Pi_mu K - eta, whose support is h_{Pi_mu K}(theta) - <theta, eta>
    rhs = float(zon.support(theta[None, :])[0] + 2.0 * (theta @ off.value))
    return lhs, rhs, abs(lhs - rhs)
