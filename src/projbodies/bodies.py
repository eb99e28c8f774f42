"""Exact convex-body arithmetic in dimensions 2 through 4.

The canonical representation is the vertex set; facet data (unit outward
normals, offsets h_K(u_i), (n-1)-measures) is derived by a convex
hull computation and cached on the body, together with the hull simplices
tiling the facets: one flat array ordered by facet (``facet_simplices``)
and the facet of each (``simplex_facet``), built by one pass per facet.
Minkowski sums and linear images are vertex-native.  Intersections of
translates K ∩ (K + x) are read off the face lattice (``face_pairs``): each
of their vertices is where a face of K meets a face of K + x of
complementary dimension, a point affine in x whose map is cached per face
pair, so each x costs one matrix product, a facet membership test and a
hull volume (in 3-D and 4-D; ``covariogram`` clips polygons itself).

Volumes of polytopes are exact up to floating point: a fan decomposition
over an interior point into simplices, summed determinants.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.spatial import ConvexHull, QhullError

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
    facet_simplices : (S, n, n) vertex coordinates of the (n-1)-simplices
        that tile the facets, grouped by facet in facet order.
    simplex_facet : (S,) int facet index of each simplex, non-decreasing,
        every facet 0..m-1 holding at least one simplex.
    """

    def __init__(self, vertices, normals, offsets, areas, facet_simplices,
                 simplex_facet, volume):
        self.vertices = vertices
        self.normals = normals
        self.offsets = offsets
        self.areas = areas
        self.facet_simplices = facet_simplices
        self.simplex_facet = simplex_facet
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
                        self.offsets + self.normals @ x, self.areas,
                        self.facet_simplices + x, self.simplex_facet,
                        self.volume)

    def negate(self) -> "Polytope":
        return Polytope(-self.vertices, -self.normals, self.offsets,
                        self.areas, -self.facet_simplices, self.simplex_facet,
                        self.volume)

    def scale(self, c: float) -> "Polytope":
        if c <= 0:
            raise ConfigurationError("scale factor must be positive")
        return Polytope(c * self.vertices, self.normals, c * self.offsets,
                        c ** (self.n - 1) * self.areas,
                        c * self.facet_simplices, self.simplex_facet,
                        c ** self.n * self.volume)


def simplex_measure(coords: np.ndarray):
    """d-measure of d-simplices given as (..., d+1, n) vertex coordinates.

    An edge (d = 1) is the root of its squared length.  For d >= 2 it is
    the root of the summed squared d x d minors of the edge matrix, over d!
    (Cauchy-Binet), each minor expanded by elements (``_minors``).  With
    edges of length L a minor is off by about eps L^d, so a sliver keeps
    its tiny measure and a simplex with two equal vertices measures 0;
    sqrt(det Gram) cancels instead, and its roundoff of eps L^(2d) leaves
    up to about sqrt(eps) L^d of false measure.
    """
    d = coords.shape[-2] - 1
    edges = coords[..., 1:, :] - coords[..., :1, :]
    if d == 1:
        squared = np.linalg.det(edges @ edges.swapaxes(-1, -2))
    else:
        minors = _minors(edges, d)
        squared = (minors * minors).sum(axis=-1)
    return np.sqrt(np.maximum(squared, 0.0)) / math.factorial(d)


@functools.cache
def _expansion(n: int, k: int) -> tuple[np.ndarray, np.ndarray]:
    """For the k-subsets S of range(n) in ``itertools.combinations`` order,
    each column S_s (k, M) and the index among the (k-1)-subsets of S
    without S_s (k, M)."""
    subsets = list(itertools.combinations(range(n), k))
    index = {c: i for i, c in enumerate(itertools.combinations(range(n), k - 1))}
    return (np.array(subsets).T,
            np.array([[index[c[:s] + c[s + 1:]] for c in subsets] for s in range(k)]))


def _minors(rows: np.ndarray, k: int) -> np.ndarray:
    """The k x k minors of the last k rows of ``rows`` (..., d, n), one per
    k-subset of the columns, by Laplace expansion along their first row."""
    row = rows[..., rows.shape[-2] - k, :]
    if k == 1:
        return row
    columns, rest = _expansion(rows.shape[-1], k)
    lower = _minors(rows, k - 1)
    total = row[..., columns[0]] * lower[..., rest[0]]
    for s in range(1, k):
        term = row[..., columns[s]] * lower[..., rest[s]]
        total = total + term if s % 2 == 0 else total - term
    return total


def build_polytope(points) -> Polytope:
    """Convex hull of ``points`` with complete facet data.

    Interior points are discarded; coplanar hull simplices are merged into
    facets (tolerance 1e-9 on normal alignment and offset).
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2:
        raise ConfigurationError("points must be a 2-D array")
    if not np.all(np.isfinite(pts)):
        raise ConfigurationError("points must be finite")
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
    scale = max(1.0, float(np.abs(eq_offsets).max()))

    # one facet per pass: the first hull simplex not yet placed and every
    # remaining simplex coplanar with it
    rest = np.arange(len(hull.simplices))
    normals, offsets, areas, members = [], [], [], []
    while len(rest):
        u, b = eq_normals[rest[0]], eq_offsets[rest[0]]
        same = ((eq_normals[rest] @ u >= 1.0 - _MERGE_TOL)
                & (np.abs(eq_offsets[rest] - b) <= _MERGE_TOL * scale))
        same[0] = True
        group, rest = rest[same], rest[~same]
        simplices = pts[hull.simplices[group]]
        area = float(simplex_measure(simplices).sum())
        if area <= 0.0:
            continue
        u = u / np.linalg.norm(u)
        normals.append(u)
        offsets.append(float(np.max(vertices @ u)))
        areas.append(area)
        members.append(group)

    facet_simplices = pts[hull.simplices[np.concatenate(members)]]
    simplex_facet = np.repeat(np.arange(len(members)), [len(g) for g in members])
    # summed in facet order, one simplex at a time
    cones = np.abs(np.linalg.det(facet_simplices - vertices.mean(axis=0)))
    volume = float(np.cumsum(cones / math.factorial(n))[-1])
    poly = Polytope(vertices, np.array(normals), np.array(offsets),
                    np.array(areas), facet_simplices, simplex_facet, volume)
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
    rho = radial_many(body, theta, x)[0]
    if np.isinf(rho):
        raise DomainError("direction escapes to infinity (unbounded?)")
    return float(rho)


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


# -- faces and intersections of translates ----------------------------------

def face_pairs(K: Polytope, k: int):
    """Yield (j, M) for each j with j and k - j in 0..n: M stacks, for every
    face F of K cut out by j facets and every face G cut out by k - j, the
    rows [u_i, b_i] of F above those of G, (f_j f_{k-j}, k, n + 1).

    The face rows are cached on K: for each j, the j facets cutting out each
    face of dimension n - j (j = 0: K itself, no rows).  The facets come from
    one vertex; faces are told apart by the vertices they hold, and a subset
    counts when its normals are independent and those vertices span n - j
    dimensions.
    """
    n = K.n
    if not hasattr(K, "_face_rows"):
        tol = 1e-9 * max(1.0, K.diameter)
        incident = np.abs(K.vertices @ K.normals.T - K.offsets) <= tol
        faces = [{} for _ in range(n)]
        for v, j in itertools.product(range(len(K.vertices)), range(1, n + 1)):
            for S in map(list, itertools.combinations(np.flatnonzero(incident[v]), j)):
                held = K.vertices[incident[:, S].all(axis=1)]
                if (held.tobytes() not in faces[j - 1]
                        and np.linalg.matrix_rank(K.normals[S]) == j
                        and np.linalg.matrix_rank(held - held[0], tol) == n - j):
                    faces[j - 1][held.tobytes()] = np.c_[K.normals[S], K.offsets[S]]
        K._face_rows = [np.empty((1, 0, n + 1))] + [np.array(list(f.values())) for f in faces]
    for j in range(max(0, k - n), min(k, n) + 1):
        F, G = K._face_rows[j], K._face_rows[k - j]
        yield j, np.concatenate([np.repeat(F, len(G), axis=0),
                                 np.tile(G, (len(F), 1, 1))], axis=1)


def _intersection_vertices(K: Polytope, x: np.ndarray) -> np.ndarray:
    """Vertices of K ∩ (K + x), some repeated; none when it is empty.

    Each is where a face F of K cut out by j facets meets a face G + x of
    K + x cut out by n - j (j = n, 0: a vertex of one body in the other).
    For independent rows A = [A_F; A_G] (|det A| > 1e-12), b = [b_F; b_G]
    that point is p0 + T x with p0 = A^-1 b, T = A^-1 [0; A_G]; it is kept
    when slack_i >= max(-<u_i, x>, 0) to 1e-15 ||A^-1||_F max|v|, since its
    roundoff grows with ||A^-1||.  p0, T (as (P n, n) rows, so one product
    moves every point) and the tolerances are cached on K.
    """
    if not hasattr(K, "_vertex_maps"):
        p0, T, norms = [], [], []
        for j, M in face_pairs(K, K.n):
            M = M[np.abs(np.linalg.det(M[..., :-1])) > 1e-12]
            inverse = np.linalg.inv(M[..., :-1])
            p0.append((inverse @ M[..., -1:])[..., 0])
            T.append((inverse[..., j:] @ M[:, j:, :-1]).reshape(-1, K.n))
            norms.append(np.linalg.norm(inverse, axis=(1, 2)))
        tol = 1e-15 * np.sqrt(squared_norms(K.vertices).max()) * np.concatenate(norms)
        K._vertex_maps = np.concatenate(p0), np.concatenate(T), tol
    p0, T, tol = K._vertex_maps
    points = p0 + (T @ x).reshape(p0.shape)
    need = np.maximum(-(K.normals @ x), 0.0)
    slack = K.slack(points, 0.0)
    slack += tol  # in place: a second (m, P) array costs more than the test
    return points[np.all(slack >= need[:, None], axis=0)]


def clip_translate_volume(K: Polytope, x) -> float:
    """Volume of K ∩ (K + x): the qhull volume of its vertices (Q12: the
    clusters of nearly coinciding vertices at tiny x may make wide facets in
    4-D).  Volumes below machine dust are reported as exactly 0, so the
    support of the covariogram is exactly the difference body.  This is the
    covariogram of bodies in 3-D and 4-D; ``covariogram.covariogram_exact``
    clips polygons itself.
    """
    points = _intersection_vertices(K, np.asarray(x, dtype=float))
    if len(points) <= K.n:
        return 0.0
    try:
        vol = float(ConvexHull(points, qhull_options="Q12").volume)
    except QhullError:
        vol = 0.0
    return vol if vol > 1e-14 * max(1.0, K.volume) else 0.0


def intersect_translate(K: Polytope, x):
    """K ∩ (K + x) built from its vertices, or None when it is empty or
    lower-dimensional."""
    try:
        return build_polytope(_intersection_vertices(K, np.asarray(x, dtype=float)))
    except DegeneracyError:
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
