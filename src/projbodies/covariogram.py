"""Covariograms: classical, measure-weighted, functional and polarized.

The classical covariogram g_K(x) = Vol(K ∩ (K+x)) is exact, at a stack of
translations at once: on a polygon a shoelace sum over ``_clipped_edges``
(K's edges clipped against K + x, and those of K + x against K), in 3-D and
4-D the hull volumes of ``bodies.clip_translate_volume``.  Along a ray,
r -> g_K(r theta) is a polynomial of degree <= n between the radii where a
face of K meets a face of K + r theta of complementary dimension;
``_breakpoints`` finds them for a stack of rays from ``bodies.face_pairs``
(which also give the vertices of K ∩ (K+x)), and ``_fit_pieces`` fits all
their pieces from one covariogram stack.  Mean bodies and the polar rule
integrate the pieces in closed form; a first piece's slope is the exact
brightness derivative.

On a polygon the measure-weighted variants are deterministic, in all three
modes: in plain and polarized mode under Lebesgue or a density with a flux
(the radial builtins), in functional mode when mu and f are both ``smooth``
(Lebesgue, Gaussian, |x|^2k).  ``_flux_covariogram`` integrates mu's flux
over the edges of K ∩ (K + x) by the divergence theorem, and
``_functional_covariogram`` f(y - x) phi(y) over a fan of triangles lifted
to R^4.  A gamma_n x gamma_n pair is first rewritten, in every dimension,
as a weighted polarized query by the Gaussian product rule
(``_polarized_gaussian``).  The brightness derivatives are slopes at 0 of
Chebyshev interpolants on the first piece of ``_breakpoints``, where
r -> g(r theta) is analytic (``_chebyshev_slope``); the modes at one
direction share its unit ray, first piece and clip (``_RayPlan``).  Every
other variant (3-D bodies, ``exp_norm``, custom densities, balls) is
``numerics.monte_carlo`` over the intersection, known in H-representation
(membership tests against K's facets).  Several translations are the
columns of one integrand: they share one draw from K's own box (each of
these sets lies in K), one projection onto K's normals and one phi at K's
points, and each column gets the bits of a draw of its own.  Their
brightness derivatives are ``monte_carlo`` of Richardson-combined
difference quotients 4 v(h/2) - v(h) - 3 v(0) on common random points.  In
the plain and polarized modes that quotient is zero outside a sliver of K
within one step h of its shadow boundary, so ``PrismSampler`` draws the
points from thin prisms on K's facets that hold the sliver: their volume is
h h_{Pi K}(theta) by Cauchy's formula, and each draw's depth in its prism
is its reach.  The functional quotient is nonzero on all of K, so it
combines the covariogram integrand at the translations 0, h theta / 2 and h
theta on points of K's box.

Translated averages integrate a covariogram against a second measure.  On a
polygon of at most seven vertices under a density with radial moments (the
radial builtins) the average (1/Vol K) ∫_DK g_K dmu is deterministic:
``_polar_average`` integrates g_K in polar coordinates, with Gauss-Legendre
rules on the arcs between the directions of v_i - v_j.  Along each ray g_K
is one quadratic on each piece of ``_breakpoints``, which integrates in
closed form from the density's ``radial_moment``.  Its work grows much
faster with the vertex count than sampling's, so larger polygons and every
other translated average are ``monte_carlo`` over pairs of uniform points
of K.  ``sample_uniform`` draws them by box rejection, a block of
``MC_BLOCK`` candidates at a time; it stops testing once it has enough and
skips the generator past the untested rest, so its points and the draws
after it are those of whole-chunk rejection.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from . import bodies
from .bodies import Polytope
from .measures import (RELATIVE_FLOOR, Density, lebesgue, measure_body,
                       product_flux, simplex_integrals, DEFAULT_MC_SAMPLES)
from .numerics import (MC_BLOCK, BoxSampler, ConfigurationError, DomainError,
                       PrecisionError, QuadratureFailure, QuadratureResult,
                       RandomStream, monte_carlo, monte_carlo_in)


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

    @property
    def sampled(self) -> bool:
        """Whether ``mu_covariogram`` and ``brightness_derivative`` sample:
        not in plain and polarized mode under Lebesgue (in any dimension) or,
        on a polygon, a density with a ``flux``, nor in functional mode on a
        polygon under a ``smooth`` mu and f (the fan needs no flux, but a
        cusp such as |x|^(1/2) at 0 would stall it).  A gamma_n x gamma_n
        pair agrees with its ``_polarized_gaussian``."""
        planar = isinstance(self.K, Polytope) and self.K.n == 2
        if self.mode == "functional":
            return not (planar and self.mu.smooth and self.f.smooth)
        return not (self.mu.is_lebesgue or (planar and self.mu.flux is not None))

    def __post_init__(self):
        if self.mu is None:
            self.mu = lebesgue(self.K.n)
        if self.mode not in ("plain", "functional", "polarized"):
            raise ConfigurationError(f"unknown covariogram mode {self.mode!r}")
        if self.mode == "functional" and self.f is None:
            raise ConfigurationError("functional mode requires f")
        if self.f is not None and not isinstance(self.f, Density):
            raise ConfigurationError(
                f"f must be a Density, not {type(self.f).__name__}")
        if self.mode != "functional" and self.f is not None:
            raise ConfigurationError(f"mode {self.mode!r} does not take an f")


def covariogram_exact(K: Polytope, x):
    """g_K(x) = Vol(K ∩ (K+x)); exact, supported exactly on DK.  One
    translation (n,) gives a float, a stack (k, n) an array: on a polygon
    one shoelace sum over ``_clipped_edges``, in 3-D and 4-D a hull volume
    per translation (``bodies.clip_translate_volume``)."""
    xs = np.asarray(x, dtype=float)
    stack = np.atleast_2d(xs)
    if K.n == 2:
        g = np.concatenate([np.zeros(0)] + [_shoelace(K, c, sides)
                                            for _, c, sides in _clipped_edges(K, stack)])
    else:
        g = np.array([bodies.clip_translate_volume(K, x) for x in stack])
    return float(g[0]) if xs.ndim == 1 else g


def _nodal_inverse(n: int) -> np.ndarray:
    """Maps values at t = 0, 1/n, ..., 1 to the c_k of sum_k c_k t^k."""
    return np.linalg.inv(np.vander(np.linspace(0.0, 1.0, n + 1), increasing=True))


def _breakpoints(K: Polytope, thetas: np.ndarray, rhos: np.ndarray):
    """The pieces (a, b) of each ray [0, rho_i] theta_i on which
    r -> g_K(r theta_i) is one polynomial, in order, and each piece's ray.

    A face of K cut out by j facets meets one of K + r theta cut out by
    n + 1 - j facets where the determinant of their rows M = [A, b]
    (shifted: [A, b + r G theta], G = A with its first j rows zeroed)
    vanishes and the meeting point pinv(A) (b + r G theta) lies in both
    bodies.  That determinant is det M + r <w, theta> with
    w_k = det [A, G e_k]; det M, w, G, b and pinv(A) are cached on K.  The
    radii in (1e-10 rho, (1 - 1e-10) rho) cut [0, rho], and a radius within
    1e-10 rho of the one below it is merged into it.  The products are
    written out term by term, so a ray gets the same pieces in any stack.
    """
    n, tol = K.n, 1e-9 * max(1.0, K.diameter)
    if not hasattr(K, "_ray_maps"):
        K._ray_maps = []
        for j, M in bodies.face_pairs(K, n + 1):
            A, G = M[..., :n], M[..., :n].copy()
            G[:, :j] = 0.0
            columns = np.concatenate([np.repeat(A[:, None], n, axis=1),
                                      G.transpose(0, 2, 1)[..., None]], axis=3)
            K._ray_maps.append((np.linalg.det(M), np.linalg.det(columns), G,
                                M[..., n], np.linalg.pinv(A)))
    count = len(rhos)
    rays, radii = [np.arange(count)], [np.zeros(count)]
    for det, w, G, b, inverse in K._ray_maps:
        d1 = sum(w[:, k, None] * thetas[:, k] for k in range(n))            # (P, T)
        with np.errstate(divide="ignore", invalid="ignore"):
            r = -det[:, None] / d1
            ok = (np.abs(d1) > 1e-12) & (r > 1e-10 * rhos) & (r < (1.0 - 1e-10) * rhos)
        pair, ray = np.nonzero(ok)
        r, theta = r[pair, ray], thetas[ray]
        rhs = b[pair] + r[:, None] * sum(G[pair, :, k] * theta[:, k, None]
                                         for k in range(n))
        x = sum(inverse[pair, :, i] * rhs[:, i, None] for i in range(n + 1))
        meets = ((K.slack(x, tol).min(axis=0) >= 0.0)
                 & (K.slack(x - r[:, None] * theta, tol).min(axis=0) >= 0.0))
        rays.append(ray[meets])
        radii.append(r[meets])
    ray, r = np.concatenate(rays + [np.arange(count)]), np.concatenate(radii + [rhos])
    order = np.lexsort((r, ray))
    ray, r = ray[order], r[order]
    keep = ((np.diff(r, prepend=-np.inf) > 1e-10 * rhos[ray])
            | (np.diff(ray, prepend=-1) != 0) | (np.diff(ray, append=count) != 0))
    ray, r = ray[keep], r[keep]
    same = ray[:-1] == ray[1:]
    return r[:-1][same], r[1:][same], ray[:-1][same]


def _unit_rays(K: Polytope, thetas):
    """Unit rays for a stack (k, n) of directions, and rho_DK along each.  A
    row's products are one stacked matmul item, the bits of ``np.linalg.norm``
    and ``bodies.radial_many`` on it alone, so they do not depend on the stack."""
    t = np.atleast_2d(np.asarray(thetas, dtype=float))[:, None, :]
    t = t / np.sqrt(t @ t.transpose(0, 2, 1))
    DK = bodies.difference_body(K)
    c = (t @ DK.normals.T)[:, 0]
    return t[:, 0], np.where(c > 0.0, DK.offsets / np.where(c > 0.0, c, 1.0),
                             np.inf).min(axis=1)


class RayPieces(NamedTuple):
    """Pieces of r -> g_K(r theta) on a stack of rays, a row each, in order
    along each ray: [a_i, b_i] on ray ``ray_i``, with g(a + (b - a) t) =
    sum_k c_k t^k for c = ``coefficients[i]``, and the check-node gap."""

    a: np.ndarray
    b: np.ndarray
    ray: np.ndarray
    coefficients: np.ndarray
    residual: np.ndarray


def _fit_pieces(K: Polytope, thetas: np.ndarray, rhos: np.ndarray, a: np.ndarray,
                b: np.ndarray, ray: np.ndarray, tol: float) -> RayPieces:
    """Fit the pieces [a, b] of rays ``ray`` from ``_breakpoints``: one
    ``covariogram_exact`` stack at t = k/n (0 < k < n), at t = 1 where
    b < rho_DK and at the check node t = 1/(2n); g(0) = Vol K, g(rho_DK) = 0
    and neighbours share a node.  The c_k are one matrix-vector product per
    piece (the same bits in any stack).  A check gap above tol * Vol K (a
    missed breakpoint) raises ``QuadratureFailure``."""
    n, vol, count = K.n, K.volume, len(a)
    span, inner, check = b - a, b < rhos[ray], 0.5 / n
    nodes = a[:, None] + span[:, None] * np.arange(1, n) / n
    radii = np.r_[np.c_[nodes, a + span * check].ravel(), b[inner]]
    g = covariogram_exact(K, radii[:, None]
                          * thetas[np.r_[np.repeat(ray, n), ray[inner]]])
    right = np.zeros(count)
    right[inner] = g[count * n:]
    g = g[:count * n].reshape(count, n)
    values = np.c_[np.where(a == 0.0, vol, np.r_[0.0, right[:-1]]), g[:, :-1], right]
    coefficients = (_nodal_inverse(n) @ values[:, :, None])[:, :, 0]
    residual = g[:, -1] - np.polyval(coefficients.T[::-1], check)
    worst = int(np.argmax(np.abs(residual)))
    if abs(residual[worst]) > tol * vol:
        raise QuadratureFailure(
            f"covariogram piece [{a[worst]:.6g}, {b[worst]:.6g}] misses its check "
            f"node by {residual[worst]:.3e} (tol {tol:.1e})",
            QuadratureResult(float(g[worst, -1]), abs(residual[worst]), len(radii)))
    return RayPieces(a, b, ray, coefficients, residual)


def ray_pieces(K: Polytope, thetas, tol: float = 1e-9) -> RayPieces:
    """The polynomial pieces of r -> g_K(r theta) on [0, rho_DK(theta)] for
    a stack (k, n) of directions: ``_fit_pieces`` of ``_breakpoints``."""
    thetas, rhos = _unit_rays(K, thetas)
    return _fit_pieces(K, thetas, rhos, *_breakpoints(K, thetas, rhos), tol)


class PrismSampler:
    """Uniform draws from the thin prisms on K's facets that carry the
    brightness sliver, with their total volume as ``measure``.

    With c_i = <u_i, theta>, the plain prisms are S + [0, h) theta over the
    facet simplices S of the facets with c_i < 0, and the polarized ones
    S + [0, h/2) d_i, d_i = -sign(c_i) theta, over those with c_i != 0.
    Each d_i points into K.  A prism has volume |S| |c_i| depth, so by
    Cauchy's formula the prisms hold h h_{Pi K}(theta) in both modes.

    ``sample`` returns (count, n + 2) rows (x, t, s): a point x = y + t d
    with y uniform on simplex s and t uniform in [0, depth).  The simplices
    get multinomial shares of the rows, in order, so the rows come grouped
    by simplex; the array is column-major, so every column is contiguous.

    Only the facets j with a_j = <u_j, d> > 0 can cut a prism, and only
    where their slack at some vertex of S is below h a_j.  ``cuts`` holds,
    per simplex, those u_j / a_j and slack_j(0) / a_j = (b_j + tol) / a_j
    (``Polytope.slack`` at the origin), so that the difference
    slack_j(0) / a_j - <u_j / a_j, x> is the exit distance of x along d
    through facet j; every other facet keeps every point of the prism at
    least h/2 from its exit.
    """

    def __init__(self, K: Polytope, theta: np.ndarray, h: float, polarized: bool):
        c = K.normals @ theta
        keep = (c != 0.0 if polarized else c < 0.0)[K.simplex_facet]
        c = c[K.simplex_facet[keep]]
        self.n, self.h, self.polarized = K.n, h, polarized
        self.depth = h / 2.0 if polarized else h
        self.simplices = K.facet_simplices[keep]
        self.directions = -np.sign(c)[:, None] * theta
        volumes = bodies.simplex_measure(self.simplices) * np.abs(c) * self.depth
        self.measure = float(volumes.sum())
        self.p = volumes / self.measure
        rates = self.directions @ K.normals.T                       # (S, m)
        vertex_slack = K.slack(self.simplices.reshape(-1, K.n))      # (m, S n)
        low = vertex_slack.reshape(K.facet_count, -1, K.n).min(axis=2).T
        origin = K.slack(np.zeros(K.n))[:, 0]
        self.cuts = []
        for a, s in zip(rates, low):
            j = np.flatnonzero((a > 0.0) & (s < h * a))
            self.cuts.append((K.normals[j] / a[j, None], origin[j] / a[j]))

    def sample(self, gen: np.random.Generator, count: int) -> np.ndarray:
        n = self.n
        counts = gen.multinomial(count, self.p)
        out = np.empty((n + 2, count))
        # rows 1 .. n-1 take the barycentric uniforms, row n the depths
        gen.random(out=out[1:n + 1])
        out[n] *= self.depth
        stops = np.cumsum(counts)
        for s, (S, d, start, stop) in enumerate(zip(self.simplices, self.directions,
                                                    stops - counts, stops)):
            rows = out[:, start:stop]
            rows[n + 1] = s
            _barycentric(rows[1:n])
            # x = S_0 + sum_k w_k (S_k - S_0) + t d, one product over rows 1 .. n
            x = np.vstack([S[1:] - S[0], d]).T @ rows[1:n + 1]
            np.add(x, S[0][:, None], out=rows[:n])
        return out.T


def _barycentric(u: np.ndarray) -> np.ndarray:
    """Weights of vertices 1 .. d of uniform points on a d-simplex, from
    (d, k) uniforms, in place: the spacings of the sorted uniforms.  The
    rows are sorted by compare-exchanges of whole rows (none for d = 1)."""
    for i in range(1, len(u)):
        for j in range(i, 0, -1):
            low = np.minimum(u[j - 1], u[j])
            np.maximum(u[j - 1], u[j], out=u[j])
            u[j - 1] = low
    for j in range(len(u) - 1, 0, -1):
        u[j] -= u[j - 1]
    return u


def _prism_quotients(q: CovariogramQuery, sampler: PrismSampler,
                     draws: np.ndarray) -> np.ndarray:
    """Per-draw quotient 4 v(h/2) - v(h) - 3 v(0) of the plain or polarized
    covariogram integrands at prism draws (x, t, s).

    A draw x = y + t d that lies in K leaves it backwards through y, so its
    plain reach is exactly t < h: the quotient is phi(x) (4 [t >= h/2] - 3),
    that is phi(x) or -3 phi(x).  Its exit distance forwards, ``far``, is the
    least over the simplex's cutting facets (infinity if none), and x is in
    K iff far >= 0.  The polarized reach is 2 min(t, far) < h, and a draw
    within h/2 of both exits lies in two prisms, so it counts half.  Draws
    outside K give 0, whatever phi is there; phi is evaluated at every draw.
    """
    n, h = sampler.n, sampler.h
    x, t = draws[:, :n], draws[:, n]
    far = np.full(len(draws), np.inf)
    bounds = np.searchsorted(draws[:, n + 1], np.arange(len(sampler.cuts) + 1))
    for (U, b), start, stop in zip(sampler.cuts, bounds, bounds[1:]):
        if len(b) and stop > start:
            exits = U @ x[start:stop].T
            np.subtract(b[:, None], exits, out=exits)
            far[start:stop] = exits.min(axis=0)
    if sampler.polarized:
        w = np.where(np.minimum(t, far) >= h / 4.0, 1.0, -3.0)
        w[far < h / 2.0] *= 0.5
    else:
        w = np.where(t >= h / 2.0, 1.0, -3.0)
    out = q.mu.eval(x) * w
    out[far < 0.0] = 0.0
    return out


def _pointwise_values(q: CovariogramQuery, points: np.ndarray, xs) -> np.ndarray:
    """The integrand of the queried covariogram at the sample points: (k, N),
    a row per translation in ``xs``, so its transpose is column-major.

    With c_i = <u_i, x>: p, p - x are in K iff every slack_i >= max(-c_i, 0);
    p ± x/2 iff slack_i >= |c_i| / 2 (polarized).  Such p lie in K, so phi
    and f are evaluated only there, after one projection onto K's normals;
    only facets with a positive need are compared.  Roundoff may flip a
    point within an ulp of a shifted facet.
    """
    K = q.K
    slack = K.slack(points)
    inside = np.flatnonzero(np.all(slack >= 0.0, axis=0))
    slack, p = np.take(slack, inside, axis=1), points[inside]   # C-ordered
    phi = q.mu.eval(p)
    out = np.zeros((len(xs), len(points)))
    for row, x in zip(out, xs):
        c = K.normals @ x
        need = np.abs(c) / 2.0 if q.mode == "polarized" else np.maximum(-c, 0.0)
        mask = np.ones(len(p), dtype=bool)
        for i in np.flatnonzero(need > 0.0):
            mask &= slack[i] >= need[i]
        row[inside] = (q.f.eval(p - x) * phi if q.mode == "functional" else phi) * mask
    return out


def _polarized_gaussian(q: CovariogramQuery):
    """(weight, polarized query of psi) for a gamma_n x gamma_n pair, else (None, q)."""
    product = product_flux(q.mu, q.f) if q.mode == "functional" else None
    if product is None:
        return None, q
    return product[0], replace(q, mu=product[1], f=None, mode="polarized")


def mu_covariogram(q: CovariogramQuery, x):
    """g_{mu,K}(x), r_{mu,K}(x) or g_{mu,f}(K, x), per ``q.mode``.

    ``x`` is one translation (n,), which gives one ``QuadratureResult``, or a
    stack (k, n) of them, which gives a list.  At x = 0 the value is mu(K)
    (plain/polarized) or the L^1(mu, K) norm of f (functional).  The
    Lebesgue plain/polarized path is one exact ``covariogram_exact`` call.
    A gamma_n x gamma_n functional query is the polarized query of psi
    (``_polarized_gaussian``), each value and error times weight(x).  On a
    polygon the other queries that ``q.sampled`` calls deterministic are
    cubatures, each value to ``q.tol`` (1e-9 if None): plain/polarized
    values integrate mu's ``flux`` over the clipped edges, one call for all
    the translations (``_flux_covariogram``); functional values integrate
    f(y - x) phi(y) over a fan of triangles of each K ∩ (K + x), one call
    per block of translations (``_functional_covariogram``).  Otherwise
    (``q.sampled``) the translations are the columns of one ``monte_carlo``
    call from ``q.stream`` over K's box, in every mode: the polarized set
    (K - x/2) ∩ (K + x/2) lies in K too.  Each translation gets the bits a
    draw of its own would give.
    """
    xs = np.asarray(x, dtype=float)
    results = _covariograms(q, np.atleast_2d(xs))
    return results[0] if xs.ndim == 1 else results


def _covariograms(q: CovariogramQuery, xs: np.ndarray, clip=None) -> list:
    """``mu_covariogram`` at a stack (k, n); the planar cubatures read
    ``clip`` as ``_intersection_pieces`` does."""
    weight, q = _polarized_gaussian(q)
    tol = 1e-9 if q.tol is None else q.tol
    if q.mu.is_lebesgue and q.mode in ("plain", "polarized"):
        # r_{lambda,K} = g_K by translation invariance
        results = [QuadratureResult(float(g), 0.0, 0) for g in covariogram_exact(q.K, xs)]
    elif q.sampled:
        res = monte_carlo(BoxSampler(*q.K.bounding_box()),
                          lambda points: _pointwise_values(q, points, xs).T,
                          q.N, q.stream)
        results = [QuadratureResult(float(v), float(e), res.evaluations)
                   for v, e in zip(res.value, res.error_estimate)]
    elif q.mode != "functional":
        results = _flux_covariogram(q.K, xs, q.mu.flux, q.mode == "polarized", tol, clip)
    else:
        results = _functional_covariogram(q, xs, clip)
    if weight is None:
        return results
    return [QuadratureResult(float(w * res.value), float(w * res.error_estimate),
                             res.evaluations) for w, res in zip(weight(xs), results)]


@dataclass
class _RayPlan:
    """The geometry of K along one direction theta that every brightness
    mode reads, kept on K as ``K._ray_plan`` for the last theta (keyed by
    its bytes) by ``brightness_derivative``, its only reader and writer:
    the unit ray and rho_DK of ``_unit_rays``; once a deterministic mode
    needs them, the first piece (a, b, ray) of ``_breakpoints``, the
    Chebyshev stack on [0, b]; and once a slope reads the whole piece, the
    ``_clip`` of that stack.  A sampled mode finds no breakpoints, and the
    exact mode clips nothing."""

    key: bytes
    rays: np.ndarray
    rhos: np.ndarray
    piece: tuple | None = None
    stack: np.ndarray | None = None
    clip: list | None = None


def brightness_derivative(q: CovariogramQuery, theta) -> QuadratureResult:
    """One-sided radial derivative of the covariogram at 0.

    A gamma_n x gamma_n functional query takes gamma(0) times the value and
    error of its ``_polarized_gaussian`` (the weight is flat at 0).  Every
    query that ``q.sampled`` calls deterministic reads the first piece [0, b]
    of ``_breakpoints``, on which K ∩ (K + r theta) keeps its combinatorial
    type.  The exact Lebesgue path fits that piece alone: its slope c_1 / b,
    with an error propagated from its check residual plus a roundoff floor of
    64 ulp of Vol K.  Every other deterministic query (a polygon under a
    density with a ``flux``, or under a ``smooth`` mu and f in functional
    mode) takes the slope at 0 of Chebyshev interpolants of r ->
    ``mu_covariogram(q, r theta)``, which is analytic on [0, b], so the slope
    converges geometrically in the degree: one stack of values at the nodes
    of the degree-16 Chebyshev-Lobatto rule on [0, b], of which every other
    one is the degree-8 rule's (``_chebyshev_slope``).  A mu that is not
    ``smooth`` (|x|^alpha) shortens b to ``_analytic_reach``.  The value is
    the fine rule's slope, and the error is the gap to the coarse rule's plus
    sum_k |w_k| (e_k + 64 ulp |v_k|) / b, the value errors e_k (at ``q.tol``,
    1e-9 if None) and roundoff carried through the fine weights w_k.

    The Monte Carlo path is ``monte_carlo`` of the Richardson-combined
    difference quotients 4 v(h/2) - v(h) - 3 v(0), divided by h, on common
    random points; its budget is three standard errors of that quotient.
    Only this path takes a step, h = 1e-3 of the body diameter, which must
    be at most rho_DK(theta) / 4 (else ``DomainError``).  The plain and
    polarized modes draw the points from the facet prisms of
    ``PrismSampler``, where the quotient lives; the functional mode draws
    them from K's box and reads v from ``_pointwise_values`` at the
    translations 0, h theta / 2 and h theta.

    A ``q.tol`` below the (scaled) error raises ``PrecisionError``; on the
    Monte Carlo path a larger N lowers the error, on the deterministic paths
    N plays no part.

    The modes at one direction share its geometry: K keeps a ``_RayPlan``
    for the last theta (by its bytes) with its one ``_unit_rays``
    normalisation, the first piece, and the Chebyshev stack on it and its
    clip, which is handed down to the planar cubatures.  Each is what a
    fresh computation gives, so every value, error and evaluation count has
    the bits of a body without a plan, in any order of modes and directions.
    """
    weight, q = _polarized_gaussian(q)
    scale = 1.0 if weight is None else float(weight(np.zeros((1, q.K.n)))[0])
    key = np.asarray(theta, dtype=float).tobytes()
    plan = getattr(q.K, "_ray_plan", None)
    if plan is None or plan.key != key:
        plan = q.K._ray_plan = _RayPlan(key, *_unit_rays(q.K, theta))
    (theta,), (rho,) = plan.rays, plan.rhos
    if not q.sampled:
        if plan.piece is None:
            plan.piece = tuple(x[:1] for x in _breakpoints(q.K, plan.rays, plan.rhos))
            plan.stack = _chebyshev_stack(theta, plan.piece[1][0])
        a, b, ray = plan.piece
        if q.mu.is_lebesgue and q.mode != "functional":
            first = _fit_pieces(q.K, plan.rays, plan.rhos, a, b, ray,
                                1e-9 if q.tol is None else q.tol)
            noise = abs(first.residual[0]) + 64.0 * np.finfo(float).eps * q.K.volume
            value, evals = first.coefficients[0, 1] / b[0], q.K.n + 1
            err = np.abs(_nodal_inverse(q.K.n)[1]).sum() * noise / b[0]
        else:
            reach = _analytic_reach(q, theta)
            if reach < b[0]:
                value, err, evals = _chebyshev_slope(q, _chebyshev_stack(theta, reach), reach)
            else:
                if plan.clip is None:
                    plan.clip = list(_clip(q.K, plan.stack))
                value, err, evals = _chebyshev_slope(q, plan.stack, b[0], plan.clip)
    else:
        h = 1e-3 * q.K.diameter
        if h > rho / 4.0 + 1e-12:
            raise DomainError(f"step {h} outside (0, rho_DK/4 = {rho / 4.0:.3g}]")
        if q.mode == "functional":
            sampler = BoxSampler(*q.K.bounding_box())
            steps = np.outer([0.0, h / 2, h], theta)

            def quotients(points):
                v0, v1, v2 = _pointwise_values(q, points, steps)
                return (4.0 * v1 - v2 - 3.0 * v0) / h
        else:
            sampler = PrismSampler(q.K, theta, h, q.mode == "polarized")

            def quotients(draws):
                return _prism_quotients(q, sampler, draws) / h

        res = monte_carlo(sampler, quotients, q.N, q.stream)
        value, err, evals = res.value, res.error_estimate, 3 * q.N
    value, err = scale * value, scale * err
    if q.tol is not None and err > q.tol:
        remedy = (f"increase N (currently {q.N})" if q.sampled else
                  f"its covariogram values were taken at tol {q.tol:.1e} each "
                  "and N plays no part")
        raise PrecisionError(
            f"brightness error budget {err:.3e} exceeds tol {q.tol:.3e}; {remedy}")
    return QuadratureResult(float(value), float(err), evals)


# -- translated averages ------------------------------------------------------

_POLAR_NODES = 16         # nodes of the first fine rule, per quarter turn
_POLAR_MAX_ANGULAR = 128  # the finest angular rule tried
_POLAR_ROUNDOFF = 16      # roundoff floor of each covariogram value, in ulp of Vol K
_POLAR_BLOCK = 2 ** 18    # clip pairs x translations or rays x face pairs at once
# The route's work grows with the vertex count m about like m^5 on a generic
# polygon (m^2 arcs, m pieces per ray, m^2 clip pairs per point), the Monte
# Carlo's at most like m (its membership tests).  On 10 random m-gons per
# size under gamma_2 at tol 1e-9, the medians of the route and of 200k Monte
# Carlo pairs are 9 and 34 ms at m = 5, 16 and 33 at m = 6, 20 and 28 at
# m = 7 (the route faster on 10 of 10) and 40 and 33 at m = 8 (1 of 10), on
# a 2-core x86; larger polygons are sampled.
_POLAR_MAX_VERTICES = 7


class _PolygonEdges(NamedTuple):
    """A polygon's edges, set up for ``_clipped_edges``.

    Edge i runs counter-clockwise from the vertex ``start[i]`` by d_i along
    facet i, and n_i = (d_i2, -d_i1) is its outward perpendicular, of
    length |d_i|.  With p_i that vertex relative to the centre of K's box,
    w_i = p_i x d_i = <n_i, p_i>.  The constraint pairs (i, j) of edge
    i against facet j are split by the sign of their rate <n_j, d_i>:
    ``up`` (> 0, an upper bound on the edge parameter) and ``low`` (< 0),
    each as (i, j, slack w_j - <n_j, p_i> of p_i in facet j, 1 / rate),
    sorted by i.  A facet parallel to edge i bounds nothing: its own facet
    is the tie-break, and for x in DK the edge lies inside an antiparallel
    facet of the other body (DK is the slab |<u_i, x>| <= the width of K
    along u_i).  The perpendiculars and the box centre keep the clip exact
    on dyadic vertices (the unit triangle); unit normals and means do not.
    """

    start: np.ndarray
    d: np.ndarray
    w: np.ndarray
    up: tuple
    low: tuple


def _polygon_edges(K: Polytope) -> _PolygonEdges:
    """K's ``_PolygonEdges``, cached on K."""
    if not hasattr(K, "_polygon_edges"):
        u = K.normals
        tangent = np.c_[-u[:, 1], u[:, 0]]
        ends = K.facet_simplices.reshape(-1, 2)
        facet = np.repeat(K.simplex_facet, 2)
        start, end = np.empty_like(u), np.empty_like(u)
        for i, t in enumerate(tangent):
            points = ends[facet == i]
            along = points @ t
            start[i], end[i] = points[np.argmin(along)], points[np.argmax(along)]
        d = end - start
        perpendicular = np.c_[d[:, 1], -d[:, 0]]
        p = start - 0.5 * np.add(*K.bounding_box())
        w = p[:, 0] * d[:, 1] - p[:, 1] * d[:, 0]
        rate = d @ perpendicular.T
        length = np.linalg.norm(d, axis=1)
        rate[np.abs(rate) <= 1e-12 * np.outer(length, length)] = 0.0
        slack = w - p @ perpendicular.T

        def pairs(mask):
            i, j = np.nonzero(mask)          # row-major: sorted by i
            return i, j, slack[i, j], 1.0 / rate[i, j]

        K._polygon_edges = _PolygonEdges(start, d, w,
                                         pairs(rate > 0.0), pairs(rate < 0.0))
    return K._polygon_edges


def _clipped_edges(K: Polytope, xs: np.ndarray):
    """The edges of K ∩ (K + x) for a stack (N, 2) of translations of a
    polygon, by clipping; yields (x, c, sides) a block of translations at a
    time, so memory stays flat.

    The boundary of K ∩ (K + x) is the part of each edge of K inside K + x
    and the part of each edge of K + x inside K.  Edge i, p_i + t d_i for t
    in [0, 1], is clipped against the other body's facets j (Cyrus-Beck): with
    c_j = <n_j, x> and s = +1 for K's edges, -1 for those of K + x, the
    constraint is t <n_j, d_i> <= slack_ij + s c_j.  ``sides`` holds, for
    s = +1 and then s = -1, (s, own, lo, hi): edge i keeps [lo, hi] (m, N)
    of its parameter range, none where hi <= lo.  Where edge i of K and of
    K + x lie on one line (c_i = 0) they would be counted twice: ``own``
    keeps K's edge i when c_i >= 0 and that of K + x when c_i < 0.  Beyond
    DK the kept pieces need not bound anything (they turn clockwise).
    """
    E = _polygon_edges(K)
    pairs = len(E.up[0]) + len(E.low[0])
    step = max(1, _POLAR_BLOCK // pairs)
    starts = [np.searchsorted(i, np.arange(len(E.d))) for i, *_ in (E.up, E.low)]
    for begin in range(0, len(xs), step):
        x = xs[begin:begin + step]
        # <n_j, x> by elements: a product's bits may depend on the stack
        c = np.outer(E.d[:, 1], x[:, 0]) - np.outer(E.d[:, 0], x[:, 1])
        sides = []
        for s, own in ((1.0, c >= 0.0), (-1.0, c < 0.0)):
            bounds = []
            for (i, j, slack, inverse), start, reduce in zip(
                    (E.up, E.low), starts, (np.minimum, np.maximum)):
                t = s * c[j]
                t += slack[:, None]
                t *= inverse[:, None]
                bounds.append(reduce.reduceat(t, start, axis=0))
            sides.append((s, own, np.maximum(bounds[1], 0.0),
                          np.minimum(bounds[0], 1.0)))
        yield x, c, sides


def _shoelace(K: Polytope, c: np.ndarray, sides) -> np.ndarray:
    """g_K at one block of ``_clipped_edges``, from its c and sides.  A
    clipped piece of length L (in t) adds L (p_i - x/2 + [s < 0] x) x d_i / 2
    to the shoelace sum about x/2, a point near the intersection, and
    (x/2) x d_i = c_i / 2.  The pieces are summed edge by edge, so each
    translation gets the same bits in any stack.  Areas below 1e-14 Vol K
    are roundoff and read 0 (relative to the body, so that a tiny polygon
    keeps its values); beyond DK the clipped pieces turn clockwise, and the
    value is 0 too."""
    w = _polygon_edges(K).w[:, None]
    total = np.zeros(c.shape[1])
    for s, own, lo, hi in sides:
        length = hi - lo
        np.maximum(length, 0.0, out=length)
        length *= own
        for term in length * (w - s * 0.5 * c):
            total += term
    g = 0.5 * total
    g[g <= 1e-14 * K.volume] = 0.0
    return g


def _clip(K: Polytope, xs: np.ndarray):
    """The blocks of ``_clipped_edges`` of a stack (N, 2) of translations of a
    polygon as ``_intersection_pieces`` reads them: (x, sides, area, <u_i, x>)."""
    return ((x, sides, _shoelace(K, c, sides), K.normals @ x.T)
            for x, c, sides in _clipped_edges(K, xs))


def _intersection_pieces(K: Polytope, xs: np.ndarray, polarized=False, clip=None):
    """The edges of each K ∩ (K + x) of positive area, for a stack (N, 2)
    of translations of a polygon: (segments (P, 2, 2), offsets (P,),
    owner (P,)).

    They are the clipped pieces of ``_clipped_edges``: a piece of K's edge
    i lies on the line <u_i, y> = b_i, one of K + x's on <u_i, y> = b_i +
    <u_i, x>; the polarized body (K - x/2) ∩ (K + x/2) is the same polygon
    moved by -x/2, its offsets by -<u_i, x> / 2.  ``owner`` is each piece's
    row in ``xs``.  Where the shoelace area of the pieces is 0 (on and
    beyond the boundary of DK) a translation has none.  ``clip`` is the
    ``_clip`` of ``xs`` where the caller keeps one (``brightness_derivative``'s
    ray plan, shared by its modes); otherwise ``xs`` is clipped here.
    """
    E = _polygon_edges(K)
    segments, offsets, owner, begin = [], [], [], 0
    for x, sides, area, shift in _clip(K, xs) if clip is None else clip:
        for s, own, lo, hi in sides:
            i, k = np.nonzero(own & (hi > lo) & (area > 0.0))
            w = (s < 0.0) - 0.5 * polarized       # the piece moves by w x
            base = E.start[i] + w * x[k]
            segments.append(np.stack([base + lo[i, k, None] * E.d[i],
                                      base + hi[i, k, None] * E.d[i]], axis=1))
            offsets.append(K.offsets[i] + w * shift[i, k])
            owner.append(k + begin)
        begin += len(x)
    return tuple(np.concatenate(a) for a in (segments, offsets, owner))


def _flux_covariogram(K: Polytope, xs: np.ndarray, flux, polarized: bool, tol,
                      clip=None) -> list:
    """sum_s b_s ∫_s G ds over the edges s of K ∩ (K + x), with offsets b_s,
    for G = ``flux`` at a stack (N, 2) of translations of a polygon; the
    edges are moved by -x/2 when ``polarized``.

    By the divergence theorem, as in ``measure_body``, the sum is g_{mu,K}(x)
    (plain) or r_{mu,K}(x) (polarized) for G = ``mu.flux``.  The error is
    sum_s |b_s| e_s, each piece of a translation with S pieces integrated by
    ``simplex_integrals`` at budget tol / (S |b_s|), so that it is at most
    tol.  A translation without pieces (``_intersection_pieces``) gets 0.
    All pieces of all translations make one cubature call, and each result
    carries that call's evaluations.  ``clip`` is as in ``_intersection_pieces``.
    """
    segments, b, owner = _intersection_pieces(K, xs, polarized, clip)
    with np.errstate(divide="ignore"):
        budgets = tol / (np.bincount(owner)[owner] * np.abs(b))
    v, e, evaluations = simplex_integrals(segments, np.arange(len(b)), flux, budgets)
    values = np.bincount(owner, b * v, len(xs))
    errors = np.bincount(owner, np.abs(b) * e, len(xs))
    return [QuadratureResult(float(v), float(e), evaluations)
            for v, e in zip(values, errors)]


# Translations per cubature call of the fan.  Its triangles carry four
# coordinates per node, and a call's refinement batches grow with its
# triangles up to ``measures._BATCH``.  Under gamma_2 with f = |x|^2, the
# worst brightness derivative of c04's polygons at their 16 c04 directions
# (17 translations) peaked at 17.3 MB (tracemalloc) in one call and at
# 4.8 MB in blocks of 4, about 13% slower over all 192; 170 translations
# along one ray peaked at 39 MB in one call and at 1.5 MB in blocks (2-core
# x86).
_FAN_BLOCK = 4


def _functional_covariogram(q: CovariogramQuery, xs: np.ndarray, clip=None) -> list:
    """g_{mu,f}(K, x) = ∫_{K ∩ (K+x)} f(y - x) phi(y) dy at a stack (N, 2)
    of translations of a polygon, for a ``smooth`` f and mu that the
    Gaussian product rule (``measures.product_flux``) does not cover: a
    Lebesgue or |x|^2k mu or f.

    Each K ∩ (K + x) is fanned into triangles from the mean of the ends of
    its edges (``_intersection_pieces``, with ``clip`` as there), an
    interior point of the convex polygon.  A roundoff remnant of a piece of
    length 0 (a vertex on an edge, as at the end of a ray's first piece)
    gives a sliver triangle of about zero area, which
    ``bodies.simplex_measure`` measures as such.  Each triangle is lifted to
    (y, x) in R^4, its translation's x in the last two coordinates of every
    vertex, so that the integrand f(y - x) phi(y) reads x off each node; the
    lift changes no area.  A translation's triangles are one group of
    ``simplex_integrals`` with budget tol = ``q.tol`` (1e-9 if None),
    refined and summed apart from the others, so a block of ``_FAN_BLOCK``
    translations per call gives the bits of one call for all of them, with
    cubature memory that does not grow with the stack.  Each result carries
    the evaluations of all the calls.  A translation without edges gets 0.
    """
    tol = 1e-9 if q.tol is None else q.tol

    def integrand(p):
        y = p[:, :2]
        return q.f.eval(y - p[:, 2:]) * q.mu.eval(y)

    pieces, _, owners = _intersection_pieces(q.K, xs, clip=clip)
    values, errors, evaluations = np.zeros(len(xs)), np.zeros(len(xs)), 0
    for begin in range(0, len(xs), _FAN_BLOCK):
        x = xs[begin:begin + _FAN_BLOCK]
        mine = (owners >= begin) & (owners < begin + len(x))
        segments, owner = pieces[mine], owners[mine] - begin
        ends = 2.0 * np.bincount(owner, minlength=len(x))
        centre = np.stack([np.bincount(owner, segments[:, :, j].sum(axis=1), len(x))
                           for j in range(2)], axis=1) / np.maximum(ends, 1.0)[:, None]
        triangles = np.concatenate([centre[owner, None], segments], axis=1)
        lifted = np.concatenate([triangles, np.repeat(x[owner, None], 3, axis=1)], axis=2)
        which, group = np.unique(owner, return_inverse=True)
        v, e, count = simplex_integrals(lifted, group, integrand, tol)
        values[begin + which], errors[begin + which] = v, e
        evaluations += count
    return [QuadratureResult(float(v), float(e), evaluations)
            for v, e in zip(values, errors)]


_CHEBYSHEV_DEGREE = 16   # the fine slope's rule; the coarse one reads every other node


@functools.cache
def _chebyshev_rule(degree: int) -> tuple[np.ndarray, np.ndarray]:
    """Chebyshev-Lobatto nodes t_k = sin^2(k pi / (2 degree)) on [0, 1]
    (that is (1 - cos(k pi / degree)) / 2, without its cancellation near 0)
    and the weights w with p'(0) = sum_k w_k p(t_k) for the polynomial p of
    degree <= ``degree`` through them.  The weights are the barycentric
    derivative at t_0: w_k = (l_k / l_0) / (t_0 - t_k) with l_k = (-1)^k,
    halved at both ends, and w_0 = -sum_{k > 0} w_k (Berrut and Trefethen,
    SIAM Review 46, 2004).  The nodes of degree d are every other node of
    degree 2d, bit for bit."""
    k = np.arange(degree + 1)
    t = np.sin(np.pi * k / (2 * degree)) ** 2
    l = (-1.0) ** k
    l[[0, -1]] *= 0.5
    w = np.zeros(degree + 1)
    w[1:] = l[1:] / l[0] / (t[0] - t[1:])
    w[0] = -w[1:].sum()
    t.flags.writeable = w.flags.writeable = False  # shared by callers
    return t, w


def _analytic_reach(q: CovariogramQuery, theta: np.ndarray) -> float:
    """How far along theta the slope may read ``mu_covariogram`` for a mu
    that is not ``smooth``: half the radius where the origin, its one
    singular point (a density with a flux is radial), leaves K ∩ (K + r
    theta), or (K - r theta / 2) ∩ (K + r theta / 2) in polarized mode; if
    the origin is not interior to K it is never interior to them.  On the
    first piece the covariogram is an analytic formula in r whose nearest
    branch point is that radius, so the interpolation interval stays half
    its distance away from it.  Infinite for a smooth mu."""
    if q.mu.smooth or np.min(q.K.offsets) <= 0.0:
        return np.inf
    back, front = bodies.radial_many(q.K, np.array([-theta, theta]))
    leaves = 2.0 * min(back, front) if q.mode == "polarized" else back
    return 0.5 * leaves


def _chebyshev_stack(theta: np.ndarray, b: float) -> np.ndarray:
    """The translations r theta at the fine ``_chebyshev_rule``'s nodes on [0, b]."""
    return np.outer(b * _chebyshev_rule(_CHEBYSHEV_DEGREE)[0], theta)


def _chebyshev_slope(q: CovariogramQuery, xs: np.ndarray, b: float, clip=None):
    """The slope at 0 of r -> g(r theta) on [0, b], where it is analytic,
    from the values of ``mu_covariogram`` at its ``_chebyshev_stack`` xs
    (taken through ``clip`` if given, as in ``_covariograms``):
    (value, error, evaluations) for ``brightness_derivative``."""
    fine = _chebyshev_rule(_CHEBYSHEV_DEGREE)[1]
    coarse = _chebyshev_rule(_CHEBYSHEV_DEGREE // 2)[1]
    results = _covariograms(q, xs, clip)
    v = np.array([res.value for res in results])
    e = np.array([res.error_estimate for res in results])
    value = fine @ v / b
    gap = abs(value - coarse @ v[::2] / b)
    propagated = np.abs(fine) @ (e + 64.0 * np.finfo(float).eps * np.abs(v)) / b
    return value, gap + propagated, results[0].evaluations


@functools.cache
def _gauss_legendre(k: int) -> tuple[np.ndarray, np.ndarray]:
    """k-node Gauss-Legendre nodes and weights on [0, 1]."""
    z, w = np.polynomial.legendre.leggauss(k)
    nodes, weights = 0.5 * (z + 1.0), 0.5 * w
    nodes.flags.writeable = weights.flags.writeable = False  # shared by callers
    return nodes, weights


def _arc_nodes(arcs: np.ndarray, k: np.ndarray):
    """Gauss-Legendre angles and weights on each arc (start, width), arc i
    with ceil(k_i (1 + width_i / (pi/4)) / 2) nodes; also each node's arc."""
    counts = np.ceil(k * (1.0 + arcs[:, 1] / (np.pi / 4)) / 2.0).astype(int)
    angle, weight, arc = [], [], []
    for count in np.unique(counts):
        s, w = _gauss_legendre(int(count))
        which = np.flatnonzero(counts == count)
        start, span = arcs[which].T
        angle.append((start[:, None] + span[:, None] * s).ravel())
        weight.append((span[:, None] * w).ravel())
        arc.append(np.repeat(which, count))
    return np.concatenate(angle), np.concatenate(weight), np.concatenate(arc)


def _polar_rule(K: Polytope, mu: Density, arcs: np.ndarray, angular: np.ndarray,
                tol: float):
    """The polar rule with ``angular`` nodes on arc i: per arc, its value of
    ∫ g_K dmu over the arc's sector of DK and its radial error; and the
    number of covariogram points.

    ``_breakpoints`` cuts each angular node's ray [0, rho_DK(theta)] into
    the pieces [a, b] where g_K is one quadratic, fitted by ``_fit_pieces``.
    A piece integrates in closed form as sum_k c_k m_k, with m_k = ∫_a^b t^k
    psi(r) r dr from the binomial expansion of t^k, t = (r - a) / (b - a),
    and the density's ``radial_moment``.  Its radial error carries the check
    gap plus a roundoff floor of ``_POLAR_ROUNDOFF`` ulp of Vol K through
    ``_nodal_inverse`` into the c_k, and so into the value, since
    0 <= m_k <= m_0.  The rays are taken a block of about ``_POLAR_BLOCK``
    rays times face pairs (2 m^2 on m vertices) at a time, so memory stays
    flat as the polygon grows.
    """
    angle, angle_w, arc = _arc_nodes(arcs, angular)
    theta = np.c_[np.cos(angle), np.sin(angle)]
    rho = bodies.radial_many(bodies.difference_body(K), theta)
    vol, N = K.volume, _nodal_inverse(2)
    floor = _POLAR_ROUNDOFF * np.finfo(float).eps * vol
    sums, errors, points = np.zeros(len(arcs)), np.zeros(len(arcs)), 0
    rays_per_block = max(1, _POLAR_BLOCK // (2 * len(K.vertices) ** 2))
    for begin in range(0, len(rho), rays_per_block):
        rays = slice(begin, begin + rays_per_block)
        a, b, ray = _breakpoints(K, theta[rays], rho[rays])
        ray += begin
        pieces = _fit_pieces(K, theta, rho, a, b, ray, tol)
        points += 2 * len(a) + np.count_nonzero(b < rho[ray])
        c, length = pieces.coefficients.T, b - a
        M1, M2, M3 = (mu.radial_moment(j, a, b) for j in (1, 2, 3))
        m = (M1, (M2 - a * M1) / length, (M3 - 2.0 * a * M2 + a * a * M1) / length ** 2)
        value = c[0] * m[0] + c[1] * m[1] + c[2] * m[2]
        error = np.abs(N).sum() * (np.abs(pieces.residual) + floor) * m[0]
        w = angle_w[ray]
        sums += np.bincount(arc[ray], w * value, len(arcs))
        errors += np.bincount(arc[ray], w * error, len(arcs))
    return sums, errors, points


def _polar_average(K: Polytope, mu: Density, tol: float) -> QuadratureResult:
    """(1/Vol K) ∫_DK g_K dmu on a polygon, for mu with a ``radial_moment``.

    In polar coordinates the integral is ∫ dtheta ∫_0^rho_DK(theta)
    g_K(r theta) phi(r theta) r dr.  In the plane the combinatorial type of
    K ∩ (K + x) changes only where a vertex of one polygon crosses an edge
    of the other, that is on the 2m^2 kink segments ±(e_b - v_a); on each
    cell of their arrangement g_K is one quadratic polynomial.  A ray meets
    them at radii of ``_breakpoints`` (a vertex on an edge is a face pair of
    complementary dimension), and ``_polar_rule`` integrates each radial
    piece in closed form.  Across a kink where a vertex crosses an edge,
    the part of the boundary of K + x inside K changes length continuously,
    so grad g_K is continuous: g_K is C^1 there, and near a point where
    kinks cross it is a polynomial plus multiples of (l)_+^2 for the kinks'
    lines l (the truncated powers of a cross-cut partition).  It is only C^0
    where parallel edges meet: on the lines <u_i, x> = 0, which run along
    edge directions v_{i+1} - v_i through 0, and on the boundary of DK.  The
    ends of the kink segments are the points v_c - v_a.  So inside an arc
    between consecutive directions of v_i - v_j every ray meets the same
    kink segments, at interior points and transversally; their radii,
    rho_DK and the integral of each truncated power from its radius on are
    analytic in theta, and so is the radial integral.  Gauss-Legendre on the
    arcs in theta then converges geometrically.

    Every arc starts with ``_POLAR_NODES`` angular nodes.  Its error is the
    gap to the rule with half the angular nodes (a coarse rule's error, a
    heuristic bound on the fine rule's) plus the radial error of
    ``_polar_rule``.  The errors may sum to ``tol`` or to ``RELATIVE_FLOOR``
    of the value, whichever is larger, as in the facet cubature: on a large
    body the roundoff floor alone can exceed an absolute ``tol``, and the
    error then shows the relative accuracy reached.  While they sum to more,
    each arc over an equal share of that allowance doubles its angular
    nodes; past ``_POLAR_MAX_ANGULAR`` that raises ``QuadratureFailure``.
    """
    v = K.vertices   # arcs (start, width) between the directions of v_i - v_j
    diffs = (v[:, None, :] - v[None, :, :])[~np.eye(len(v), dtype=bool)]
    angles = np.sort(np.arctan2(diffs[:, 1], diffs[:, 0]))
    angles = angles[np.diff(angles, prepend=-np.inf) > 1e-12]
    arcs = np.c_[angles, np.diff(angles, append=angles[0] + 2.0 * np.pi)]
    angular = np.full(len(arcs), _POLAR_NODES)
    evaluations = 0

    def rule(which, halve=False):
        nonlocal evaluations
        sums, errors, count = _polar_rule(K, mu, arcs[which],
                                          angular[which] // (1 + halve), tol)
        evaluations += count
        return sums, errors

    every = np.arange(len(arcs))
    fine, radial = rule(every)
    coarse = rule(every, True)[0]
    while True:
        errors = np.abs(fine - coarse) + radial
        result = QuadratureResult(fine.sum() / K.volume, errors.sum() / K.volume,
                                  evaluations)
        allowed = max(tol * K.volume, RELATIVE_FLOOR * abs(fine.sum()))
        if errors.sum() <= allowed:
            return result
        finer = np.flatnonzero(errors > allowed / len(arcs))
        if np.any(angular[finer] >= _POLAR_MAX_ANGULAR):
            raise QuadratureFailure(
                f"polar translated average misses tol {tol:.1e} at "
                f"{_POLAR_MAX_ANGULAR} angular nodes (error "
                f"{result.error_estimate:.3e})", result)
        angular[finer] *= 2
        coarse[finer] = fine[finer]
        fine[finer], radial[finer] = rule(finer)


def sample_uniform(body, gen: np.random.Generator, out: np.ndarray) -> np.ndarray:
    """Fill ``out`` (count, n) with uniform points in a convex body by
    bounding-box rejection, and return it.

    Candidates come in chunks of about 1.3 times the expected need.  Each
    chunk is drawn, tested with ``body.contains`` and kept a block of
    ``numerics.MC_BLOCK`` rows at a time, the accepted rows going straight
    into ``out``.  ``Generator.random`` fills row-major, one PCG64 step per
    float, so a chunk drawn block by block has the bits of one draw.  Once
    ``count`` points are kept, the untested rest of the chunk is skipped
    with ``bit_generator.advance``: the generator ends where a whole-chunk
    draw would leave it, and the draws after this call do not depend on the
    blocking (``advance`` also drops a buffered 32-bit half-draw, which no
    float draw leaves).
    """
    box = BoxSampler(*body.bounding_box())
    vol = bodies.volume(body)
    count, n = out.shape
    have = 0
    chunk = int(min(4_000_000, max(1024, count * box.measure / vol * 1.3)))
    while have < count:
        for start in range(0, chunk, MC_BLOCK):
            rows = min(MC_BLOCK, chunk - start)
            cand = box.sample(gen, rows)
            keep = np.flatnonzero(body.contains(cand))[:count - have]
            np.take(cand, keep, axis=0, out=out[have:have + len(keep)])
            have += len(keep)
            if have == count:
                gen.bit_generator.advance((chunk - start - rows) * n)
                break
    return out


@dataclass(frozen=True)
class _PairSampler:
    """Pairs (y, w) of independent uniform points of K, of measure 1.0:
    ``sample_uniform`` fills the y and then the w half of one (2, count, n)
    array, and its (count, 2, n) transpose holds a pair per row uncopied."""

    K: Polytope | bodies.Ball
    measure = 1.0

    def sample(self, gen: np.random.Generator, count: int) -> np.ndarray:
        pairs = np.empty((2, count, self.K.n))
        for half in pairs:
            sample_uniform(self.K, gen, half)
        return pairs.transpose(1, 0, 2)


def translated_average(kind: str, K, mu: Density | None = None,
                       nu: Density | None = None, f: Density | None = None,
                       stream: RandomStream | None = None,
                       N: int = DEFAULT_MC_SAMPLES,
                       tol: float = 1e-9) -> QuadratureResult:
    """Covariogram integrated against a second measure, normalized.

    * ``mu_lambda``:  (1/Vol K) ∫_DK g_K dmu
    * ``nu_mu_body``: (1/mu K)  ∫_DK g_{mu,K} dnu
    * ``nu_mu_functional``: (1/||f||_{L^1(mu, K)}) ∫_DK g_{mu,f}(K, .) dnu

    A Lebesgue ``mu_lambda`` is Vol K for every body, since ∫ g_K dx =
    Vol(K)^2.  On a polygon of at most ``_POLAR_MAX_VERTICES`` vertices,
    ``mu_lambda`` under a density with a ``radial_moment`` (the radial
    builtins) is deterministic: ``_polar_average`` integrates the exact
    covariogram in polar coordinates, each radial piece in closed form, to
    ``tol``, or raises ``QuadratureFailure``.  ``nu_mu_body`` with a
    Lebesgue mu is that same integral under nu, since g_{lambda,K} = g_K and
    lambda(K) = Vol K.  Everything else (3-D bodies, balls, polygons with
    more vertices, where the route is slower than sampling, densities
    without radial moments, a non-Lebesgue mu in ``nu_mu_body``, and
    ``nu_mu_functional``) is Monte Carlo from ``stream`` with N pairs of
    uniform points of K (``_sampled_average``).
    """
    if kind == "mu_lambda" and mu is not None and mu.is_lebesgue:
        return QuadratureResult(bodies.volume(K), 0.0, 0)
    density = mu if kind == "mu_lambda" else None
    if kind == "nu_mu_body" and mu is not None and mu.is_lebesgue:
        density = nu
    if (density is not None and density.radial_moment is not None
            and isinstance(K, Polytope) and K.n == 2
            and len(K.vertices) <= _POLAR_MAX_VERTICES):
        return _polar_average(K, density, tol)
    return _sampled_average(kind, K, mu, nu, f, stream, N, tol)


def _sampled_average(kind: str, K, mu: Density | None = None,
                     nu: Density | None = None, f=None,
                     stream: RandomStream | None = None,
                     N: int = DEFAULT_MC_SAMPLES,
                     tol: float = 1e-9) -> QuadratureResult:
    """``translated_average`` by Monte Carlo over pairs of uniform points of
    K (y, acted on by mu, and the translate w), by Fubini:

    * ``mu_lambda``:  Vol(K) E[phi_mu(y - w)]
    * ``nu_mu_body``: Vol(K)^2 E[phi_mu(y) phi_nu(y - w)] / mu(K)
    * ``nu_mu_functional``: the same with f(w) inserted, normalized by the
      L^1(mu, K) norm of f.

    mu(K) comes from ``measure_body`` at ``tol``.  The means are
    ``monte_carlo`` over ``_PairSampler``: a non-finite value raises with
    its pair (y, w) as the point.
    """
    vol = bodies.volume(K)
    if vol <= 0:
        raise DomainError("zero-volume normalizer")
    pairs = _PairSampler(K)
    if kind == "mu_lambda":
        if mu is None:
            raise ConfigurationError("mu_lambda needs mu")
        return monte_carlo(pairs, lambda p: mu.eval(p[:, 0] - p[:, 1]) * vol,
                           N, stream)

    if kind == "nu_mu_body":
        if mu is None or nu is None:
            raise ConfigurationError("nu_mu_body needs mu and nu")

        def pair_values(p):
            y, w = p[:, 0], p[:, 1]
            return mu.eval(y) * nu.eval(y - w) * vol * vol
    elif kind == "nu_mu_functional":
        if mu is None or nu is None or f is None:
            raise ConfigurationError("nu_mu_functional needs mu, nu and f")

        def pair_values(p):
            y, w = p[:, 0], p[:, 1]
            return mu.eval(y) * f.eval(w) * nu.eval(y - w) * vol * vol
    else:
        raise ConfigurationError(f"unknown translated-average kind {kind!r}")

    num = monte_carlo(pairs, pair_values, N, stream)
    den = (measure_body(mu, K, stream.substream(1), N, tol) if kind == "nu_mu_body"
           else l1_norm(f, mu, K, stream.substream(1), N))
    if den.value <= 0:
        raise DomainError(f"zero normalizer for kind {kind!r}")
    value = num.value / den.value
    err = (num.error_estimate / den.value
           + abs(num.value) * den.error_estimate / den.value ** 2)
    return QuadratureResult(value, err, 2 * N)


def l1_norm(f: Density, mu: Density, K, stream: RandomStream,
            N: int = DEFAULT_MC_SAMPLES) -> QuadratureResult:
    """L^1(mu, K) norm of f, by ``monte_carlo_in`` over K."""
    return monte_carlo_in(K, lambda p: np.abs(f.eval(p)) * mu.eval(p), N, stream)
