"""Exact convex-body arithmetic in dimensions 2 through 4.

The canonical representation is the vertex set; facet data (unit outward
normals, offsets h_K(u_i), (n-1)-measures, centroids) is derived by a convex
hull computation and cached on the body.  Minkowski sums and linear images
are vertex-native; intersections of translates go through a halfspace
enumeration step (a fast polygon clip in the plane, qhull elsewhere).

Volumes of polytopes are exact up to floating point: a fan decomposition
over an interior point into simplices, summed determinants.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import linprog
from scipy.spatial import ConvexHull, HalfspaceIntersection, QhullError

from .numerics import (ConfigurationError, DomainError, SphereGrid,
                       ball_volume, squared_norms)


class DegeneracyError(ValueError):
    """Input points do not span a full-dimensional body."""


class PolarDomainError(DomainError):
    """A support value was non-positive where a polar volume was requested."""


_MERGE_TOL = 1e-9  # coplanar-facet merging: normal alignment and offset


@dataclass(frozen=True)
class LinearMap:
    """An n x n real matrix with its determinant cached."""

    matrix: np.ndarray
    det: float = field(init=False)

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=float)
        object.__setattr__(self, "matrix", m)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ConfigurationError("linear map must be a square matrix")
        object.__setattr__(self, "det", float(np.linalg.det(m)))

    @property
    def n(self) -> int:
        return self.matrix.shape[0]

    def inverse(self) -> "LinearMap":
        if abs(self.det) < 1e-14:
            raise ConfigurationError("singular map has no inverse")
        return LinearMap(np.linalg.inv(self.matrix))

    @staticmethod
    def rotation_2d(angle: float) -> "LinearMap":
        c, s = math.cos(angle), math.sin(angle)
        return LinearMap(np.array([[c, -s], [s, c]]))

    @staticmethod
    def rotation_3d(axis, angle: float) -> "LinearMap":
        axis = np.asarray(axis, dtype=float)
        axis = axis / np.linalg.norm(axis)
        K = np.array([[0, -axis[2], axis[1]],
                      [axis[2], 0, -axis[0]],
                      [-axis[1], axis[0], 0]])
        R = np.eye(3) + math.sin(angle) * K + (1 - math.cos(angle)) * (K @ K)
        return LinearMap(R)


class Ball:
    """Euclidean ball of given radius, centered at ``center`` (default 0)."""

    def __init__(self, n: int, radius: float, center=None):
        if radius <= 0:
            raise ConfigurationError("ball radius must be positive")
        self.n = n
        self.radius = float(radius)
        self.center = np.zeros(n) if center is None else np.asarray(center, float)

    @property
    def volume(self) -> float:
        return ball_volume(self.n, self.radius)

    @property
    def diameter(self) -> float:
        return 2.0 * self.radius

    def bounding_box(self):
        return self.center - self.radius, self.center + self.radius

    def contains(self, points: np.ndarray, tol: float = 1e-9) -> np.ndarray:
        return np.sqrt(squared_norms(points - self.center)) <= self.radius + tol


class Polytope:
    """Full-dimensional convex polytope with derived facet data.

    Attributes
    ----------
    vertices : (v, n) array of hull vertices.
    normals : (m, n) unit outward facet normals u_i.
    offsets : (m,) offsets b_i = h_K(u_i).
    areas : (m,) facet (n-1)-measures A_i.
    centroids : (m, n) facet centroids.
    """

    def __init__(self, vertices, normals, offsets, areas, centroids,
                 facet_simplices, volume):
        self.vertices = vertices
        self.normals = normals
        self.offsets = offsets
        self.areas = areas
        self.centroids = centroids
        self.facet_simplices = facet_simplices  # per facet: (k, n, n) coords
        self.volume = volume
        self.n = vertices.shape[1]

    # -- basic queries ----------------------------------------------------

    @property
    def facet_count(self) -> int:
        return len(self.areas)

    @property
    def diameter(self) -> float:
        v = self.vertices
        d2 = np.sum((v[:, None, :] - v[None, :, :]) ** 2, axis=-1)
        return float(np.sqrt(d2.max()))

    def bounding_box(self):
        return self.vertices.min(axis=0), self.vertices.max(axis=0)

    def slack(self, points: np.ndarray, tol: float = 1e-9) -> np.ndarray:
        """(m, N) facet slacks b_i + tol - <u_i, x>, facet-major.

        A point is in K (to ``tol``) when its whole column is >= 0.  The
        leading axis is the short one, so reductions over it run along
        contiguous rows of length N.
        """
        slack = self.normals @ np.atleast_2d(points).T
        return np.subtract((self.offsets + tol)[:, None], slack, out=slack)

    def contains(self, points: np.ndarray, tol: float = 1e-9) -> np.ndarray:
        return np.all(self.slack(points, tol) >= 0.0, axis=0)

    def is_symmetric(self, tol: float = 1e-9) -> bool:
        """True when K = -K as vertex sets."""
        v = self.vertices
        d = np.linalg.norm(v[:, None, :] + v[None, :, :], axis=-1)
        return bool(np.all(d.min(axis=1) <= tol * max(1.0, self.diameter)))

    # -- cheap derived bodies ---------------------------------------------

    def translate(self, x) -> "Polytope":
        x = np.asarray(x, dtype=float)
        return Polytope(self.vertices + x, self.normals,
                        self.offsets + self.normals @ x,
                        self.areas, self.centroids + x,
                        [s + x for s in self.facet_simplices], self.volume)

    def negate(self) -> "Polytope":
        return Polytope(-self.vertices, -self.normals, self.offsets,
                        self.areas, -self.centroids,
                        [-s for s in self.facet_simplices], self.volume)

    def scale(self, c: float) -> "Polytope":
        if c <= 0:
            raise ConfigurationError("scale factor must be positive")
        return Polytope(c * self.vertices, self.normals, c * self.offsets,
                        c ** (self.n - 1) * self.areas, c * self.centroids,
                        [c * s for s in self.facet_simplices],
                        c ** self.n * self.volume)


def simplex_measure(coords: np.ndarray):
    """(d)-measure of d-simplices given as (..., d+1, n) vertex coordinates."""
    edges = coords[..., 1:, :] - coords[..., :1, :]
    gram = edges @ edges.swapaxes(-1, -2)
    det = np.linalg.det(gram)
    return np.sqrt(np.maximum(det, 0.0)) / math.factorial(coords.shape[-2] - 1)


def build_polytope(points) -> Polytope:
    """Convex hull of ``points`` with complete facet data.

    Interior points are discarded; coplanar hull simplices are merged into
    facets (tolerance 1e-9 on normal alignment and offset).
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2:
        raise ConfigurationError("points must be a 2-D array")
    n = pts.shape[1]
    if n not in (2, 3, 4):
        raise ConfigurationError(f"dimension {n} unsupported (need 2..4)")
    if len(pts) < n + 1:
        raise DegeneracyError(f"need at least {n + 1} points in R^{n}")
    if np.linalg.matrix_rank(pts[1:] - pts[0], tol=1e-12) < n:
        raise DegeneracyError("points are affinely dependent")
    try:
        hull = ConvexHull(pts)
    except QhullError as exc:
        raise DegeneracyError(f"hull computation failed: {exc}") from exc

    vertices = pts[hull.vertices]
    eq_normals = hull.equations[:, :-1]
    eq_offsets = -hull.equations[:, -1]

    # group coplanar hull simplices into facets
    groups: list[list[int]] = []
    group_norm: list[np.ndarray] = []
    group_off: list[float] = []
    scale = max(1.0, float(np.abs(eq_offsets).max()))
    for i in range(len(hull.simplices)):
        u, b = eq_normals[i], eq_offsets[i]
        for g, (gu, gb) in enumerate(zip(group_norm, group_off)):
            if u @ gu >= 1.0 - _MERGE_TOL and abs(b - gb) <= _MERGE_TOL * scale:
                groups[g].append(i)
                break
        else:
            groups.append([i])
            group_norm.append(u)
            group_off.append(b)

    center = vertices.mean(axis=0)
    normals, offsets, areas, centroids, facet_simplices = [], [], [], [], []
    volume = 0.0
    for g, members in enumerate(groups):
        simplices = np.stack([pts[hull.simplices[i]] for i in members])
        meas = simplex_measure(simplices)
        area = float(meas.sum())
        if area <= 0.0:
            continue
        u = group_norm[g] / np.linalg.norm(group_norm[g])
        normals.append(u)
        offsets.append(float(np.max(vertices @ u)))
        areas.append(area)
        centroids.append(np.average(simplices.mean(axis=1), axis=0, weights=meas))
        facet_simplices.append(simplices)
        for s in simplices:
            volume += abs(np.linalg.det(s - center)) / math.factorial(n)

    poly = Polytope(vertices, np.array(normals), np.array(offsets),
                    np.array(areas), np.array(centroids), facet_simplices,
                    volume)
    closure = np.linalg.norm(poly.areas @ poly.normals)
    if closure > 1e-9 * max(1.0, poly.areas.sum()):
        raise DegeneracyError(f"facet closure violated: |sum A_i u_i| = {closure:.2e}")
    if volume <= 0.0:
        raise DegeneracyError("hull is not full-dimensional")
    return poly


# -- support / radial functions -------------------------------------------

def support(body, theta) -> float:
    """h_K(theta) = sup over K of <theta, .>; positively homogeneous."""
    theta = np.asarray(theta, dtype=float)
    if isinstance(body, Ball):
        return float(body.radius * np.linalg.norm(theta) + body.center @ theta)
    return float(np.max(body.vertices @ theta))


def support_many(body, thetas: np.ndarray) -> np.ndarray:
    thetas = np.atleast_2d(thetas)
    if isinstance(body, Ball):
        return body.radius * np.linalg.norm(thetas, axis=1) + thetas @ body.center
    return np.max(thetas @ body.vertices.T, axis=1)


def generalized_radial(body, x, theta) -> float:
    """rho of ``body`` seen from interior point ``x`` in direction ``theta``."""
    x = np.asarray(x, dtype=float)
    theta = np.asarray(theta, dtype=float)
    if isinstance(body, Ball):
        rel = x - body.center
        if np.linalg.norm(rel) >= body.radius:
            raise DomainError("base point is not interior to the ball")
        tt = theta @ theta
        proj = rel @ theta
        disc = proj ** 2 - tt * (rel @ rel - body.radius ** 2)
        return float((-proj + math.sqrt(disc)) / tt)
    slack = body.offsets - body.normals @ x
    if np.min(slack) <= 0.0:
        raise DomainError("base point is not interior to the polytope")
    denom = body.normals @ theta
    mask = denom > 0.0
    if not np.any(mask):
        raise DomainError("direction escapes to infinity (unbounded?)")
    return float(np.min(slack[mask] / denom[mask]))


def radial(body, theta) -> float:
    """rho_K(theta) for a body with the origin in its interior."""
    return generalized_radial(body, np.zeros(body.n), theta)


def radial_many(body, thetas: np.ndarray, x=None) -> np.ndarray:
    """Vectorized generalized radial function over direction rows."""
    thetas = np.atleast_2d(thetas)
    if x is None:
        x = np.zeros(thetas.shape[1])
    x = np.asarray(x, dtype=float)
    if isinstance(body, Ball):
        return np.array([generalized_radial(body, x, t) for t in thetas])
    slack = body.offsets - body.normals @ x
    if np.min(slack) <= 0.0:
        raise DomainError("base point is not interior to the polytope")
    denom = thetas @ body.normals.T  # (k, m)
    ratio = np.where(denom > 0.0, slack / np.where(denom > 0.0, denom, 1.0), np.inf)
    return np.min(ratio, axis=1)


def volume(body) -> float:
    return body.volume


# -- polarity ---------------------------------------------------------------

def polar(body: Polytope) -> Polytope:
    """K degrees = {x : h_K(x) <= 1}; needs the origin strictly interior."""
    if isinstance(body, Ball):
        if np.linalg.norm(body.center) > 1e-12:
            raise DomainError("polar of an off-center ball is not a ball")
        return Ball(body.n, 1.0 / body.radius)
    if np.min(body.offsets) <= 1e-9:
        raise DomainError("origin is not strictly interior, polar undefined")
    return build_polytope(body.normals / body.offsets[:, None])


# -- Minkowski structure ----------------------------------------------------

def minkowski_sum(P: Polytope, Q: Polytope) -> Polytope:
    if P.n != Q.n:
        raise ConfigurationError("dimension mismatch in Minkowski sum")
    sums = (P.vertices[:, None, :] + Q.vertices[None, :, :]).reshape(-1, P.n)
    return build_polytope(sums)


def difference_body(P: Polytope) -> Polytope:
    """DK = K + (-K); always symmetric.  Cached on the body (immutable)."""
    cached = getattr(P, "_difference_body", None)
    if cached is None:
        cached = minkowski_sum(P, P.negate())
        P._difference_body = cached
    return cached


# -- intersections of translates --------------------------------------------

def _clip_polygon(vertices: np.ndarray, normals: np.ndarray,
                  offsets: np.ndarray) -> np.ndarray:
    """Sutherland-Hodgman clip of a convex CCW polygon by halfplanes."""
    poly = vertices
    for u, b in zip(normals, offsets):
        if len(poly) == 0:
            break
        d = poly @ u - b
        keep = d <= 1e-12
        out = []
        m = len(poly)
        for i in range(m):
            j = (i + 1) % m
            if keep[i]:
                out.append(poly[i])
            if keep[i] != keep[j]:
                t = d[i] / (d[i] - d[j])
                out.append(poly[i] + t * (poly[j] - poly[i]))
        poly = np.array(out) if out else np.empty((0, 2))
    return poly


def _polygon_area(poly: np.ndarray) -> float:
    if len(poly) < 3:
        return 0.0
    x, y = poly[:, 0], poly[:, 1]
    return 0.5 * abs(np.dot(x, np.roll(y, -1)) - np.dot(y, np.roll(x, -1)))


def clip_translate_volume(K: Polytope, x) -> float:
    """Volume of K intersected with K + x; fast 2-D path, hull elsewhere.

    Areas below machine dust are reported as exactly 0, so the support of
    the covariogram is exactly the difference body.
    """
    x = np.asarray(x, dtype=float)
    if K.n == 2:
        poly = _clip_polygon(K.vertices, K.normals, K.offsets + K.normals @ x)
        area = _polygon_area(poly)
        return area if area > 1e-14 * max(1.0, K.volume) else 0.0
    inter = intersect_translate(K, x)
    return 0.0 if inter is None else inter.volume


def _chebyshev_center(normals: np.ndarray, offsets: np.ndarray):
    """Largest inscribed ball of {x : N x <= b}; (center, radius) or None."""
    m, n = normals.shape
    res = linprog(np.r_[np.zeros(n), -1.0],
                  A_ub=np.c_[normals, np.ones(m)], b_ub=offsets,
                  bounds=[(None, None)] * n + [(0, None)], method="highs")
    if not res.success:
        return None
    return res.x[:n], res.x[n]


def intersect_translate(K: Polytope, x):
    """K intersected with K + x, or None when empty / lower-dimensional.

    The H-representation is the facets of K stacked with the same facets
    translated by x; vertices come from enumerating that joint system.
    """
    x = np.asarray(x, dtype=float)
    if K.n == 2:
        poly = _clip_polygon(K.vertices, K.normals, K.offsets + K.normals @ x)
        if _polygon_area(poly) <= 1e-12 * max(1.0, K.volume):
            return None
        uniq = np.unique(np.round(poly, 12), axis=0)
        if len(uniq) < 3:
            return None
        try:
            return build_polytope(poly)
        except DegeneracyError:
            return None

    normals = np.vstack([K.normals, K.normals])
    offsets = np.concatenate([K.offsets, K.offsets + K.normals @ x])
    cheb = _chebyshev_center(normals, offsets)
    if cheb is None or cheb[1] <= 1e-11 * max(1.0, K.diameter):
        return None
    try:
        hs = HalfspaceIntersection(np.c_[normals, -offsets], cheb[0])
        return build_polytope(hs.intersections)
    except (QhullError, DegeneracyError):
        return None


# -- linear images -----------------------------------------------------------

def apply_linear(body, T: LinearMap):
    """Image of the body under an invertible linear map."""
    if isinstance(T, np.ndarray):
        T = LinearMap(T)
    if abs(T.det) < 1e-14:
        raise ConfigurationError("linear map must be invertible")
    if isinstance(body, Ball):
        M = T.matrix
        MtM = M.T @ M
        c2 = MtM[0, 0]
        if not np.allclose(MtM, c2 * np.eye(body.n), atol=1e-12):
            raise ConfigurationError(
                "only scaled isometries are supported on balls")
        return Ball(body.n, body.radius * math.sqrt(c2), M @ body.center)
    return build_polytope(body.vertices @ T.matrix.T)


# -- star bodies and sphere-grid volumes -------------------------------------

@dataclass(frozen=True)
class StarBody:
    """Radial samples rho(theta) >= 0 on a sphere grid."""

    grid: SphereGrid
    radii: np.ndarray

    def __post_init__(self):
        r = np.asarray(self.radii, dtype=float)
        if r.shape != (self.grid.count,):
            raise ConfigurationError("radii must match the grid size")
        if not np.all(np.isfinite(r)) or np.any(r < 0):
            raise ConfigurationError("radial values must be finite and >= 0")


def star_volume(star: StarBody) -> float:
    """(1/n) sum of w_i rho_i^n over the grid."""
    n = star.grid.n
    return float(np.sum(star.grid.weights * star.radii ** n) / n)


def polar_volume_from_support(h, grid: SphereGrid) -> float:
    """(1/n) sum of w_i h(theta_i)^{-n}; h may be a callable or an array."""
    values = np.asarray(h(grid.directions) if callable(h) else h, dtype=float)
    if np.any(values <= 0.0):
        raise PolarDomainError(
            "support function non-positive on the grid; origin not interior")
    return float(np.sum(grid.weights * values ** (-grid.n)) / grid.n)


def star_body_of(body, grid: SphereGrid) -> StarBody:
    """Sample a convex body's radial function on a grid."""
    if isinstance(body, Ball):
        if np.linalg.norm(body.center) > 1e-12:
            raise DomainError("star body sampling needs the origin inside")
        return StarBody(grid, np.full(grid.count, body.radius))
    return StarBody(grid, radial_many(body, grid.directions))


# -- standard bodies ----------------------------------------------------------

def standard_simplex(n: int) -> Polytope:
    """Convex hull of the origin and the standard basis vectors."""
    return build_polytope(np.vstack([np.zeros(n), np.eye(n)]))


def cube(n: int, half_width: float = 1.0) -> Polytope:
    corners = np.array(np.meshgrid(*([[-half_width, half_width]] * n)))
    return build_polytope(corners.reshape(n, -1).T)


def cross_polytope(n: int, radius: float = 1.0) -> Polytope:
    return build_polytope(np.vstack([radius * np.eye(n), -radius * np.eye(n)]))


def regular_polygon(count: int, radius: float = 1.0) -> Polytope:
    ang = 2.0 * np.pi * np.arange(count) / count
    return build_polytope(radius * np.stack([np.cos(ang), np.sin(ang)], axis=1))


def random_polytope(n: int, stream, count: int | None = None,
                    symmetric: bool = False) -> Polytope:
    """Hull of Gaussian points; used by property and acceptance tests."""
    gen = stream.generator()
    count = count or (3 * n + 2)
    pts = gen.standard_normal((count, n))
    if symmetric:
        pts = np.vstack([pts, -pts])
    return build_polytope(pts)
