"""Isotropic surface-area positions and the reverse isoperimetric checks.

The weighted surface-area measure of a polytope is isotropic when

    (n / mu(dK)) sum_i w_i u_i (x) u_i = Id,

with w_i the density-weighted facet measures.  That happens exactly when
the functional I(A) = sum_i w_i |A u_i| is minimized over SL_n at the
identity; the minimizer is found by descent on the traceless logarithm
parameterization A = expm(M), which keeps det A = 1 identically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import expm

from .bodies import Polytope
from .inequalities import (family_matches, int_decay, int_unit,
                           power_product_error)
from .measures import (ConcavityFamily, Density, boundary_measure,
                       facet_weights, measure_body, DEFAULT_MC_SAMPLES)
from .numerics import (ConfigurationError, DomainError, RandomStream,
                       ball_volume)
from .projection import Zonoid, offset_vector, projection_zonoid
from .report import (Report, RunConfig, Witness, direction_grid,
                     finish_report, polar_volume)


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


def _decomposition_matrix(K: Polytope, weights: np.ndarray) -> np.ndarray:
    total = weights.sum()
    M = np.einsum("i,ij,ik->jk", weights, K.normals, K.normals)
    return K.n / total * M


def isotropy_residual(K: Polytope, mu: Density,
                      tol: float = 1e-9) -> IsotropyCertificate:
    """|| Id - (n / mu(dK)) sum w_i u_i (x) u_i ||_F with facet weights."""
    w, e = facet_weights(mu, K, tol)
    total = float(w.sum())
    if total <= 0:
        raise DomainError("isotropy needs mu(dK) > 0")
    M = _decomposition_matrix(K, w)
    residual = float(np.linalg.norm(np.eye(K.n) - M))
    threshold = max(1e-8, 3.0 * K.n * float(e.sum()) / total)
    return IsotropyCertificate(residual, w, e, threshold)


def I_functional(K: Polytope, mu: Density, A, tol: float = 1e-9) -> float:
    """I(A) = sum_i w_i |A u_i| over the weighted facet normals."""
    M = A.matrix if hasattr(A, "matrix") else np.asarray(A, dtype=float)
    w, _ = facet_weights(mu, K, tol)
    return float(w @ np.linalg.norm(K.normals @ M.T, axis=1))


def _traceless_basis(n: int) -> np.ndarray:
    basis = []
    for i in range(n):
        for j in range(n):
            if i != j:
                E = np.zeros((n, n))
                E[i, j] = 1.0
                basis.append(E)
    for i in range(n - 1):
        E = np.zeros((n, n))
        E[i, i] = 1.0
        E[i + 1, i + 1] = -1.0
        basis.append(E / math.sqrt(2.0))
    return np.stack(basis)


def minimize_I(K: Polytope, mu: Density, max_iters: int = 400,
               grad_tol: float = 1e-7, stream: RandomStream | None = None,
               tol: float = 1e-9):
    """Minimize I over SL_n; returns (SLnPoint, value, converged).

    Finite-difference gradient descent (step 1e-5) with backtracking line
    search on the traceless parameterization, seeded at the identity and at
    three random points (minimizers are unique only up to rotation, so only
    the value is contractual).  The result never exceeds I(Id).
    """
    w, _ = facet_weights(mu, K, tol)
    normals = K.normals
    basis = _traceless_basis(K.n)
    dim = len(basis)

    def value(theta):
        A = expm(np.tensordot(theta, basis, axes=1))
        return float(w @ np.linalg.norm(normals @ A.T, axis=1))

    def gradient(theta, h=1e-5):
        g = np.empty(dim)
        for k in range(dim):
            e = np.zeros(dim)
            e[k] = h
            g[k] = (value(theta + e) - value(theta - e)) / (2.0 * h)
        return g

    starts = [np.zeros(dim)]
    if stream is not None:
        gen = stream.generator()
        starts += [0.3 * gen.standard_normal(dim) for _ in range(3)]

    best_theta, best_val, best_conv = np.zeros(dim), value(np.zeros(dim)), False
    for theta in starts:
        theta = theta.copy()
        val = value(theta)
        converged = False
        for _ in range(max_iters):
            g = gradient(theta)
            gnorm = float(np.linalg.norm(g))
            if gnorm <= grad_tol:
                converged = True
                break
            step = 1.0
            while step > 1e-14:
                cand = theta - step * g
                cand_val = value(cand)
                if cand_val <= val - 0.3 * step * gnorm ** 2:
                    theta, val = cand, cand_val
                    break
                step *= 0.5
            else:
                converged = gnorm <= max(grad_tol, 1e-6)
                break
        if val < best_val - 1e-14 or (converged and not best_conv
                                      and val <= best_val + 1e-12):
            best_theta, best_val, best_conv = theta, val, converged
    point = SLnPoint(np.tensordot(best_theta, basis, axes=1))
    point.validate()
    return point, best_val, best_conv


def ball_zonoid_volume_bound(weights, normals, total: float | None = None,
                             cfg: RunConfig | None = None) -> Report:
    """Volume bound for the polar of an isotropic weighted zonoid.

    With c_j = n w_j / total and alpha_j = w_j / 2 (the support weights of
    the projection body), the polar unit ball L satisfies
    Vol(L) <= (2^n / n!) prod (c_j / alpha_j)^{c_j}.  Requires the c_j
    decomposition of the identity to hold (residual <= 1e-8), otherwise the
    verdict is a hypothesis violation.
    """
    cfg = cfg or RunConfig()
    weights = np.asarray(weights, dtype=float)
    normals = np.asarray(normals, dtype=float)
    n = normals.shape[1]
    total = float(weights.sum()) if total is None else float(total)
    c = n * weights / total
    M = np.einsum("i,ij,ik->jk", c, normals, normals)
    residual = float(np.linalg.norm(np.eye(n) - M))
    alpha = weights / 2.0
    bound = 2.0 ** n / math.factorial(n) * float(np.prod((c / alpha) ** c))
    Z = Zonoid(n, normals, weights)
    observed, obs_err = polar_volume(Z, n, cfg)
    witnesses = {"bound": Witness(bound),
                 "observed": Witness(observed, obs_err),
                 "decomposition_residual": Witness(residual)}
    verdict = "hypothesis_violation" if residual > 1e-8 else None
    return finish_report("ball_zonoid_volume_bound", observed, bound,
                         [obs_err], witnesses, cfg, verdict=verdict)


def _require_isotropic(K: Polytope, mu: Density, tol: float) -> IsotropyCertificate:
    cert = isotropy_residual(K, mu, tol)
    if not cert.isotropic:
        raise ConfigurationError(
            f"hypothesis violated: S_(mu,K) is not isotropic "
            f"(residual {cert.residual:.3g} > {cert.threshold:.3g})")
    return cert


def reverse_isoperimetric(K: Polytope, mu: Density, family: ConcavityFamily,
                          mode: str = "q_form",
                          stream: RandomStream | None = None,
                          N: int = DEFAULT_MC_SAMPLES,
                          cfg: RunConfig | None = None) -> Report:
    """mu(dK) against the isotropic reverse isoperimetric bound.

    q_form uses the decay integral of the family (log-concave shortcut:
    mu(dK) <= 4 n mu(K) Vol(K)^{-1/n}); f_form uses the unit-interval
    integral of a nonnegative power family.  Both are reported with the
    n-th root taken, so lhs is mu(dK) itself.
    """
    cfg = cfg or RunConfig()
    if mode not in ("q_form", "f_form"):
        raise ConfigurationError(f"unknown mode {mode!r}")
    if not family_matches(mu, family):
        raise ConfigurationError(
            f"hypothesis violated: mu ({mu.label}) is not certified "
            f"{family.kind}-concave")
    cert = _require_isotropic(K, mu, cfg.tol)
    if not offset_vector(K, mu, tol=cfg.tol).is_projective:
        raise ConfigurationError(
            "hypothesis violated: K is not mu-projective within budget")
    n = K.n
    bm = boundary_measure(mu, K, cfg.tol)
    st = stream or cfg.stream()
    muK = measure_body(mu, K, st.substream(0), N)
    vol = K.volume

    def rhs_of(a):
        if mode == "q_form":
            if family.kind == "log":
                return 4.0 * n * a * vol ** (-1.0 / n)
            integral = int_decay(family, a, n, cfg.tol).value
            rhs_n = ((4.0 * n / family.Fprime(a)) ** n * integral
                     / (math.factorial(n - 1) * vol * a))
        else:
            integral = int_unit(family, a, n, cfg.tol).value
            rhs_n = ((4.0 * n * family.F(a) / family.Fprime(a)) ** n * integral
                     / (math.factorial(n - 1) * vol * a))
        return rhs_n ** (1.0 / n)

    rhs = rhs_of(muK.value)
    delta = max(muK.error_estimate, 1e-9 * muK.value)
    rhs_err = abs(rhs_of(muK.value + delta) - rhs_of(muK.value - delta)) / 2.0
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


def isotropic_volume_sandwich(K: Polytope, mu: Density,
                              cfg: RunConfig | None = None) -> Report:
    """(n kappa_n / kappa_{n-1})^n kappa_n <= mu(dK)^n Vol(Pi_mu°)
    <= 4^n n^n / n! on isotropic fixtures."""
    cfg = cfg or RunConfig()
    _require_isotropic(K, mu, cfg.tol)
    n = K.n
    bm = boundary_measure(mu, K, cfg.tol)
    zon = projection_zonoid(K, mu, tol=cfg.tol)
    pv, pv_err = polar_volume(zon, n, cfg)
    product = bm.value ** n * pv
    prod_err = power_product_error(bm.value, bm.error_estimate, n, pv, pv_err)
    lower = (n * ball_volume(n) / ball_volume(n - 1)) ** n * ball_volume(n)
    upper = 4.0 ** n * n ** n / math.factorial(n)
    margin = min(product - lower, upper - product)
    witnesses = {"product": Witness(product, prod_err),
                 "lower": Witness(lower), "upper": Witness(upper)}
    return finish_report("isotropic_volume_sandwich", -margin, 0.0, [prod_err],
                         witnesses, cfg)
