"""Radial p-th mean bodies, spectral bodies, and the inclusion chain.

Ray integrals of the exact covariogram drive everything: for p > 0 the
radial mean power is

    M_p(theta) = (p / Vol K) ∫_0^{rho_DK} g_K(r theta) r^{p-1} dr,

computed after the substitution u = r^p (bounded integrand, no endpoint
singularity even for p < 1).  The p = 0 body is the geometric-mean limit,
evaluated in the scaled form

    rho_{R_0}(theta) = rho_DK(theta) * exp( (1/V) ∫_0^1 (g(s rho_DK theta) - V) / s ds ),

whose integrand is continuous on [0, 1].  For p in (-1, 0) the survival
function of the directional reach gives

    M_p = rho_DK^p - (p/V) ∫_0^{rho_DK} r^{p-1} (V - g(r theta)) dr,

again regularized by a power substitution.  Spectral radii follow from
rho_{S_p} = ((p+1) M_p)^{1/p}, rho_{R_p} = M_p^{1/p}, rho_{S_-1} = V / h_{Pi K}.

Mean bodies stay star-body samples; convexity (unknown for p in (-1,0))
is never assumed downstream.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import special

from . import bodies
from .bodies import Polytope, StarBody
from .covariogram import covariogram_exact
from .numerics import DomainError, SphereGrid, integrate_1d
from .projection import projection_zonoid
from .report import Report, Witness


@dataclass(frozen=True)
class MeanBodyResult:
    p: float
    star: StarBody
    method: str


def _mean_power(K: Polytope, p: float, theta: np.ndarray, rho_dk: float,
                vol: float, tol: float) -> float:
    """M_p(theta) = (1/V) ∫_K rho_K(x, theta)^p dx via the covariogram."""
    if p > 0.0:
        def f(u):
            return covariogram_exact(K, (u ** (1.0 / p)) * theta)
        res = integrate_1d(f, 0.0, rho_dk ** p, tol)
        return res.value / vol
    # p in (-1, 0): integrate the survival-function complement
    q = p + 1.0

    def f(u):
        r = u ** (1.0 / q)
        return (vol - covariogram_exact(K, r * theta)) * u ** (-1.0 / q) / q

    res = integrate_1d(f, 0.0, rho_dk ** q, tol)
    return rho_dk ** p - (p / vol) * res.value


def _log_mean(K: Polytope, theta: np.ndarray, rho_dk: float, vol: float,
              tol: float) -> float:
    """rho_{R_0}(theta), the geometric mean of the directional reach."""
    def f(s):
        return (covariogram_exact(K, (s * rho_dk) * theta) - vol) / s

    res = integrate_1d(f, 0.0, 1.0, tol)
    return rho_dk * math.exp(res.value / vol)


def radial_mean_body(K: Polytope, p: float, grid: SphereGrid,
                     tol: float = 1e-9) -> MeanBodyResult:
    """R_p K sampled on the grid, p in (-1, infinity]."""
    if not p > -1.0:
        raise DomainError(f"radial mean body needs p > -1, got {p}")
    vol = K.volume
    DK = bodies.difference_body(K)
    rho_dk = bodies.radial_many(DK, grid.directions)
    if np.isinf(p):
        return MeanBodyResult(p, StarBody(grid, rho_dk), "difference_body")
    radii = np.empty(grid.count)
    for i, theta in enumerate(grid.directions):
        if p == 0.0:
            radii[i] = _log_mean(K, theta, rho_dk[i], vol, tol)
        else:
            radii[i] = _mean_power(K, p, theta, rho_dk[i], vol, tol) ** (1.0 / p)
    return MeanBodyResult(p, StarBody(grid, radii), "ray_integral")


def spectral_mean_body(K: Polytope, p: float, grid: SphereGrid,
                       tol: float = 1e-9) -> MeanBodyResult:
    """S_p K sampled on the grid, p in [-1, infinity]."""
    if p < -1.0:
        raise DomainError(f"spectral mean body needs p >= -1, got {p}")
    if p == -1.0:
        zon = projection_zonoid(K)
        h = zon.support(grid.directions)
        return MeanBodyResult(p, StarBody(grid, K.volume / h), "spectral_relation")
    if np.isinf(p):
        DK = bodies.difference_body(K)
        return MeanBodyResult(p, StarBody(grid, bodies.radial_many(DK, grid.directions)),
                              "difference_body")
    base = radial_mean_body(K, p, grid, tol)
    if p == 0.0:
        radii = math.e * base.star.radii
    else:
        radii = (p + 1.0) ** (1.0 / p) * base.star.radii
    return MeanBodyResult(p, StarBody(grid, radii), "spectral_relation")


def c_np(n: int, p: float) -> float:
    """The simplex constants: (n B(p+1, n))^{-1/p}, and exp(H_n) at p = 0."""
    if n < 2:
        raise DomainError("need n >= 2")
    if p < 0:
        raise DomainError("need p >= 0")
    if p == 0.0:
        return math.exp(sum(1.0 / k for k in range(1, n + 1)))
    return float((n * special.beta(p + 1.0, n)) ** (-1.0 / p))


def inclusion_chain_report(K: Polytope, p_list, grid: SphereGrid,
                           tol: float = 1e-9) -> Report:
    """Direction-wise verification of the mean-body inclusion chain.

    For increasing nonnegative p_list, checks on every grid direction

      rho_{S_-1} <= rho_{S_p} <= ... <= rho_DK
        <= c_{n,q} rho_{R_q} <= ... <= c_{n,p} rho_{R_p} <= n Vol(K) rho_{Pi° K}

    and reports the worst margin with its witness direction.  For a simplex
    the right-hand chain collapses to equality; its spread is reported as a
    witness.
    """
    p_list = sorted(p_list)
    if p_list[0] < 0:
        raise DomainError("chain expects p >= 0")
    n, vol = K.n, K.volume
    zon = projection_zonoid(K)
    rho_polar = vol / zon.support(grid.directions)  # Vol(K) rho_{Pi°}
    DK = bodies.difference_body(K)
    rho_dk = bodies.radial_many(DK, grid.directions)

    base = [radial_mean_body(K, p, grid, tol).star.radii for p in p_list]
    spectral = [math.e * r if p == 0.0 else (p + 1.0) ** (1.0 / p) * r
                for p, r in zip(p_list, base)]
    radial = [c_np(n, p) * r for p, r in zip(p_list, base)]

    chain = [("Vol*rho_polar(S_-1)", rho_polar)]
    chain += [(f"rho_S_{p:g}", r) for p, r in zip(p_list, spectral)]
    chain += [("rho_DK", rho_dk)]
    chain += [(f"c_{{{n},{p:g}}} rho_R_{p:g}", r)
              for p, r in zip(reversed(p_list), reversed(radial))]
    chain += [("n*Vol*rho_polar", n * rho_polar)]

    worst = np.inf
    worst_pair = ""
    worst_dir = None
    for (name_a, a), (name_b, b) in zip(chain, chain[1:]):
        margins = b - a
        i = int(np.argmin(margins))
        if margins[i] < worst:
            worst = float(margins[i])
            worst_pair = f"{name_a} <= {name_b}"
            worst_dir = grid.directions[i]

    upper = np.stack([rho_dk] + radial + [n * rho_polar])
    spread = float(np.max((upper.max(axis=0) - upper.min(axis=0))
                          / upper.mean(axis=0)))
    scale = float(np.mean(rho_dk))
    tolerance = 50.0 * tol * scale + 1e-9
    witnesses = {
        "worst_margin": Witness(worst, 0.0),
        "equality_spread": Witness(spread, 0.0),
        "binding": Witness(0.0, 0.0, note=worst_pair),
        "witness_direction": Witness(0.0, 0.0, note=np.array2string(worst_dir)),
    }
    return Report(id="inclusion_chain", lhs=-worst, rhs=0.0,
                  margin=worst, tolerance=tolerance,
                  passed=bool(worst >= -tolerance),
                  verdict="pass" if worst >= -tolerance else "fail",
                  witnesses=witnesses,
                  config={"grid": grid.count, "p_list": list(p_list), "tol": tol})
