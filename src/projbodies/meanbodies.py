"""Radial p-th mean bodies, spectral bodies, and the inclusion chain.

Along theta, with rho = rho_DK(theta) and V = Vol K, the radial mean power
of every p > -1 other than 0, and the p = 0 (geometric-mean) limit, are

    M_p(theta) = rho^p + (p / V) ∫_0^rho r^{p-1} (g_K(r theta) - V) dr,
    rho_{R_0}(theta) = rho * exp( (1/V) ∫_0^rho (g_K(r theta) - V) / r dr ).

g_K is a polynomial of degree <= n on each piece of ``ray_pieces``, so the
integrals are exact sums of moments per piece, of one stack of pieces for
all rays and p.  Then rho_{R_p} = M_p^{1/p}, rho_{S_p} = ((p+1) M_p)^{1/p}
and rho_{S_-1} = V / h_{Pi K}.  Mean bodies stay star-body samples; convexity
(unknown for p in (-1,0)) is never assumed downstream.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import special

from . import bodies
from .bodies import Polytope, StarBody
from .covariogram import RayPieces, ray_pieces
from .numerics import DomainError, SphereGrid
from .projection import projection_zonoid
from .report import Report, Witness, worst_link


@dataclass(frozen=True)
class MeanBodyResult:
    p: float
    star: StarBody
    method: str


def _piece_integrals(pieces: RayPieces, p: float, vol: float) -> np.ndarray:
    """∫_a^b r^{p-1} (g(r) - V) dr per piece: with t = (r - a) / (b - a),
    g - V = sum_k c_k t^k, and the moment of t^k is b^p / (k + p) on a first
    piece (c_0 - V = 0 there), else z b^p / (k + 1) 2F1(1 - p, 1; k + 2; z)
    with z = 1 - a / b."""
    a, b, c = pieces.a[:, None], pieces.b[:, None], pieces.coefficients
    k, first = np.arange(c.shape[1]), pieces.a == 0.0
    z = (b - a) / b
    moments = z * b ** p / (k + 1) * special.hyp2f1(1.0 - p, 1.0, k + 2.0, z)
    moments[first, 0] = 0.0
    moments[first, 1:] = b[first] ** p / (k[1:] + p)
    c = c - vol * (k == 0) * ~first[:, None]
    return (c[:, None, :] @ moments[:, :, None])[:, 0, 0]


def _mean_radii(K: Polytope, p_list, grid: SphereGrid, tol: float) -> np.ndarray:
    """rho_{R_p}(theta) for every p in p_list (rows) and grid direction; a
    ray's last piece ends at rho_DK."""
    pieces = ray_pieces(K, grid.directions, tol)
    rho = pieces.b[np.diff(pieces.ray, append=grid.count) != 0]
    radii = np.empty((len(p_list), grid.count))
    for j, p in enumerate(p_list):
        mean = np.bincount(pieces.ray, _piece_integrals(pieces, p, K.volume),
                           grid.count) / K.volume
        radii[j] = (rho * np.exp(mean) if p == 0.0
                    else (rho ** p + p * mean) ** (1.0 / p))
    return radii


def _spectral_factor(p: float) -> float:
    """rho_{S_p} / rho_{R_p} = (p + 1)^{1/p}, and e at p = 0."""
    return math.e if p == 0.0 else (p + 1.0) ** (1.0 / p)


def radial_mean_body(K: Polytope, p: float, grid: SphereGrid,
                     tol: float = 1e-9) -> MeanBodyResult:
    """R_p K sampled on the grid, p in (-1, infinity]; ``tol`` is the gap,
    relative to Vol K, allowed at each covariogram piece's check node."""
    if not p > -1.0:
        raise DomainError(f"radial mean body needs p > -1, got {p}")
    if np.isinf(p):
        return MeanBodyResult(p, bodies.star_body_of(bodies.difference_body(K), grid),
                              "difference_body")
    return MeanBodyResult(p, StarBody(grid, _mean_radii(K, [p], grid, tol)[0]),
                          "ray_integral")


def spectral_mean_body(K: Polytope, p: float, grid: SphereGrid,
                       tol: float = 1e-9) -> MeanBodyResult:
    """S_p K sampled on the grid, p in [-1, infinity]."""
    if p < -1.0:
        raise DomainError(f"spectral mean body needs p >= -1, got {p}")
    if p == -1.0:
        radii = K.volume / projection_zonoid(K).support(grid.directions)
        return MeanBodyResult(p, StarBody(grid, radii), "spectral_relation")
    base = radial_mean_body(K, p, grid, tol)
    if np.isinf(p):
        return base
    return MeanBodyResult(p, StarBody(grid, _spectral_factor(p) * base.star.radii),
                          "spectral_relation")


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
    n = K.n
    rho_polar = K.volume / projection_zonoid(K).support(grid.directions)
    rho_dk = bodies.radial_many(bodies.difference_body(K), grid.directions)

    base = list(_mean_radii(K, p_list, grid, tol))
    spectral = [_spectral_factor(p) * r for p, r in zip(p_list, base)]
    radial = [c_np(n, p) * r for p, r in zip(p_list, base)]

    chain = [("Vol*rho_polar(S_-1)", rho_polar)]
    chain += [(f"rho_S_{p:g}", r) for p, r in zip(p_list, spectral)]
    chain += [("rho_DK", rho_dk)]
    chain += [(f"c_{{{n},{p:g}}} rho_R_{p:g}", r)
              for p, r in zip(reversed(p_list), reversed(radial))]
    chain += [("n*Vol*rho_polar", n * rho_polar)]

    _, i, worst, worst_pair = worst_link(*zip(*chain))
    worst_dir = np.array2string(grid.directions[i])

    upper = np.stack([rho_dk] + radial + [n * rho_polar])
    spread = float(np.max((upper.max(axis=0) - upper.min(axis=0))
                          / upper.mean(axis=0)))
    scale = float(np.mean(rho_dk))
    tolerance = 50.0 * tol * scale + 1e-9
    witnesses = {
        "worst_margin": Witness(worst, 0.0),
        "equality_spread": Witness(spread, 0.0),
        "binding": Witness(0.0, 0.0, note=worst_pair),
        "witness_direction": Witness(0.0, 0.0, note=worst_dir),
    }
    return Report(id="inclusion_chain", lhs=-worst, rhs=0.0,
                  margin=worst, tolerance=tolerance,
                  passed=bool(worst >= -tolerance),
                  verdict="pass" if worst >= -tolerance else "fail",
                  witnesses=witnesses,
                  config={"grid": grid.count, "p_list": list(p_list), "tol": tol})
