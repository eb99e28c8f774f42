"""Isotropic surface-area positions and the reverse isoperimetric checks.

The weighted surface-area measure of a polytope is isotropic when

    (n / mu(dK)) sum_i w_i u_i (x) u_i = Id,

with w_i the density-weighted facet measures.  That happens exactly when
the functional I(A) = sum_i w_i |A u_i| is minimized over SL_n at the
identity.  ``minimize_I`` reaches the minimizer by majorize-minimize steps
on B = A^t A: concavity of sqrt bounds I by a linear function of B, which
AM-GM minimizes over det B = 1 in closed form.  I is geodesically
log-convex in B, so its one stationary point, unique up to rotation, is the
minimum and no restarts are needed.

The checks share the verify suite's hypothesis guard, surface product and
error rule (``inequalities.require``, ``inequalities.surface_product``,
``report.first_order_error``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import expm

from .bodies import Polytope
from .inequalities import (family_matches, int_decay, int_unit, require,
                           surface_product)
from .measures import (ConcavityFamily, Density, boundary_measure,
                       facet_weights, measure_body)
from .numerics import ConfigurationError, DomainError, RandomStream
from .projection import Zonoid, offset_vector, projection_zonoid
from .report import (Report, RunConfig, Witness, direction_grid,
                     finish_report, first_order_error)


@dataclass(frozen=True)
class IsotropyCertificate:
    """Frobenius defect of the identity decomposition, with its verdict."""

    residual: float
    weights: np.ndarray
    weight_errors: np.ndarray
    threshold: float

    @property
    def isotropic(self) -> bool:
        return self.residual <= self.threshold


@dataclass(frozen=True)
class SLnPoint:
    """exp of a traceless matrix: a determinant-one map by construction."""

    params: np.ndarray  # traceless n x n

    @property
    def matrix(self) -> np.ndarray:
        return expm(self.params)

    def validate(self):
        if abs(np.linalg.det(self.matrix) - 1.0) > 1e-10:
            raise ConfigurationError("SL_n point drifted off det = 1")


def _moment(weights: np.ndarray, normals: np.ndarray) -> np.ndarray:
    """sum_i w_i u_i (x) u_i."""
    return np.einsum("i,ij,ik->jk", weights, normals, normals)


def _I(weights: np.ndarray, normals: np.ndarray, A: np.ndarray):
    """I(A) = sum_i w_i |A u_i|, with the vectors A u_i and their lengths."""
    images = normals @ A.T
    lengths = np.linalg.norm(images, axis=1)
    return float(weights @ lengths), images, lengths


def isotropy_residual(K: Polytope, mu: Density,
                      tol: float = 1e-9) -> IsotropyCertificate:
    """|| Id - (n / mu(dK)) sum w_i u_i (x) u_i ||_F with facet weights."""
    w, e = facet_weights(mu, K, tol)
    total = float(w.sum())
    if total <= 0:
        raise DomainError("isotropy needs mu(dK) > 0")
    M = K.n / total * _moment(w, K.normals)
    residual = float(np.linalg.norm(np.eye(K.n) - M))
    threshold = max(1e-8, 3.0 * K.n * float(e.sum()) / total)
    return IsotropyCertificate(residual, w, e, threshold)


def I_functional(K: Polytope, mu: Density, A) -> float:
    """I(A) = sum_i w_i |A u_i| over the weighted facet normals."""
    M = A.matrix if hasattr(A, "matrix") else np.asarray(A, dtype=float)
    w, _ = facet_weights(mu, K)
    return _I(w, K.normals, M)[0]


_MM_STEPS = 500  # the tested bodies, 10^4:1 rectangles included, take <= 43


def minimize_I(K: Polytope, mu: Density, stream: RandomStream | None = None,
               tol: float = 1e-9):
    """Minimize I over SL_n; returns (SLnPoint, value, converged).

    I(A) = sum_i w_i sqrt(u_i^t B u_i) with B = A^t A.  Concavity of sqrt
    gives I(B) <= (I(B_k) + tr(B M_k)) / 2, with equality at B_k, where
    M_k = sum_i w_i u_i (x) u_i / sqrt(u_i^t B_k u_i); by AM-GM the bound's
    minimizer over det B = 1 is B_{k+1} = det(M_k)^{1/n} M_k^{-1}, so I
    never rises above its starting value I(Id).  I is geodesically
    log-convex on the determinant-one positive-definite B, so the stationary
    point reached is the global minimum, unique up to a rotation of A, and
    no restarts are needed.  The steps stop once || (n / I) A M A^t - Id ||_F
    <= 1e-12 (for Lebesgue weights: A^{-t}K is isotropic); converged is
    False if a fixed step cap comes first.  Returns A = B^{1/2} and I there.
    ``stream`` is accepted and unused: the steps draw no random numbers.
    """
    w, _ = facet_weights(mu, K, tol)
    n = K.n
    A = np.eye(n)  # any factor of B = A^t A
    for _ in range(_MM_STEPS):
        value, images, lengths = _I(w, K.normals, A)
        N = n / value * _moment(w / lengths, images)  # (n / I) A M A^t
        converged = np.linalg.norm(N - np.eye(n)) <= 1e-12
        if converged:
            break
        # B <- det(M)^{1/n} M^{-1} = A^t (det(N)^{1/n} N^{-1}) A: the new
        # factor is N^{-1/2} A, so only N, which tends to Id, is inverted
        m, V = np.linalg.eigh(N)
        A = (V * np.exp(-0.5 * (np.log(m) - np.mean(np.log(m))))) @ V.T @ A
    _, s, Wt = np.linalg.svd(A)  # B^{1/2} = W diag(s) W^t
    point = SLnPoint((Wt.T * (np.log(s) - np.mean(np.log(s)))) @ Wt)
    point.validate()
    return point, _I(w, K.normals, point.matrix)[0], bool(converged)


def ball_zonoid_volume_bound(weights, normals,
                             cfg: RunConfig | None = None) -> Report:
    """Volume bound for the polar of an isotropic weighted zonoid.

    With c_j = n w_j / sum_i w_i and alpha_j = w_j / 2 (the support weights of
    the projection body), the polar unit ball L satisfies
    Vol(L) <= (2^n / n!) prod (c_j / alpha_j)^{c_j}.  Requires the c_j
    decomposition of the identity to hold (residual <= 1e-8), otherwise the
    verdict is a hypothesis violation.
    """
    cfg = cfg or RunConfig()
    weights = np.asarray(weights, dtype=float)
    normals = np.asarray(normals, dtype=float)
    n = normals.shape[1]
    c = n * weights / float(weights.sum())
    M = _moment(c, normals)
    residual = float(np.linalg.norm(np.eye(n) - M))
    alpha = weights / 2.0
    bound = 2.0 ** n / math.factorial(n) * float(np.prod((c / alpha) ** c))
    Z = Zonoid(n, normals, weights)
    observed, obs_err = Z.polar_volume()
    witnesses = {"bound": Witness(bound),
                 "observed": Witness(observed, obs_err),
                 "decomposition_residual": Witness(residual)}
    verdict = "hypothesis_violation" if residual > 1e-8 else None
    return finish_report("ball_zonoid_volume_bound", observed, bound,
                         [obs_err], witnesses, cfg, verdict=verdict)


def _require_isotropic(K: Polytope, mu: Density, tol: float) -> IsotropyCertificate:
    cert = isotropy_residual(K, mu, tol)
    require(cert.isotropic, f"S_(mu,K) is not isotropic "
            f"(residual {cert.residual:.3g} > {cert.threshold:.3g})")
    return cert


def reverse_isoperimetric(K: Polytope, mu: Density, family: ConcavityFamily,
                          mode: str = "q_form",
                          cfg: RunConfig | None = None) -> Report:
    """mu(dK) against the isotropic reverse isoperimetric bound.

    q_form uses the decay integral of the family (log-concave shortcut:
    mu(dK) <= 4 n mu(K) Vol(K)^{-1/n}); f_form uses the unit-interval
    integral of a nonnegative power family.  Both are reported with the
    n-th root taken, so lhs is mu(dK) itself.  mu(K) draws cfg.samples
    points from cfg's stream when it is not exact.
    """
    cfg = cfg or RunConfig()
    if mode not in ("q_form", "f_form"):
        raise ConfigurationError(f"unknown mode {mode!r}")
    require(family_matches(mu, family),
            f"mu ({mu.label}) is not certified {family.kind}-concave")
    cert = _require_isotropic(K, mu, cfg.tol)
    require(offset_vector(K, mu, tol=cfg.tol).is_projective,
            "K is not mu-projective within budget")
    n = K.n
    bm = boundary_measure(mu, K, cfg.tol)
    muK = measure_body(mu, K, cfg.stream().substream(0), cfg.samples, cfg.tol)
    vol = K.volume

    def rhs_of(a):
        if mode == "q_form" and family.kind == "log":
            return 4.0 * n * a * vol ** (-1.0 / n)
        if mode == "q_form":
            base, integral = 4.0 * n / family.Fprime(a), int_decay(family, a, n, cfg.tol)
        else:
            base = 4.0 * n * family.F(a) / family.Fprime(a)
            integral = int_unit(family, a, n, cfg.tol)
        return (base ** n * integral.value / (math.factorial(n - 1) * vol * a)) ** (1.0 / n)

    rhs = rhs_of(muK.value)
    rhs_err = first_order_error(rhs_of, muK.value, muK.error_estimate)
    witnesses = {"mu_boundary": Witness(bm.value, bm.error_estimate),
                 "mu_K": Witness(muK.value, muK.error_estimate),
                 "isotropy_residual": Witness(cert.residual)}
    return finish_report("reverse_isoperimetric", bm.value, rhs,
                         [bm.error_estimate, rhs_err], witnesses, cfg)


def isotropic_sandwich_check(K: Polytope, mu: Density,
                             cfg: RunConfig | None = None) -> Report:
    """mu(dK)/(2n) <= h_(Pi_mu K) <= mu(dK)/(2 sqrt n) on cfg.grid directions."""
    cfg = cfg or RunConfig(grid=1024)
    _require_isotropic(K, mu, cfg.tol)
    n = K.n
    zon = projection_zonoid(K, mu, tol=cfg.tol)
    grid = direction_grid(n, cfg.grid, cfg)
    h = zon.support(grid.directions)
    herr = float(np.max(zon.support_error(grid.directions)))
    total = zon.total_weight
    lower, upper = total / (2.0 * n), total / (2.0 * math.sqrt(n))
    margin = float(min(np.min(h) - lower, upper - np.max(h)))
    witnesses = {"h_min": Witness(float(np.min(h)), herr),
                 "h_max": Witness(float(np.max(h)), herr),
                 "lower": Witness(lower), "upper": Witness(upper)}
    # roundoff floor: both ends can be attained exactly
    return finish_report("isotropic_sandwich", -margin, 0.0,
                         [herr, 1e-12 * upper], witnesses, cfg)


def isotropic_volume_sandwich(K: Polytope, mu: Density) -> Report:
    """(n kappa_n / kappa_{n-1})^n kappa_n <= mu(dK)^n Vol(Pi_mu°)
    <= 4^n n^n / n! on isotropic fixtures."""
    cfg = RunConfig()
    _require_isotropic(K, mu, cfg.tol)
    n = K.n
    _, _, product, lower = surface_product("isotropic_volume_sandwich", K, mu,
                                           cfg.tol)
    upper = 4.0 ** n * n ** n / math.factorial(n)
    margin = min(product.value - lower, upper - product.value)
    witnesses = {"product": product,
                 "lower": Witness(lower), "upper": Witness(upper)}
    return finish_report("isotropic_volume_sandwich", -margin, 0.0,
                         [product.error], witnesses, cfg)
