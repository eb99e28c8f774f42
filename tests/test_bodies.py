from __future__ import annotations

import math

import numpy as np
import pytest

import projbodies as pb


def test_build_triangle(triangle):
    assert triangle.facet_count == 3
    assert triangle.volume == pytest.approx(0.5, abs=1e-14)
    assert sorted(triangle.areas) == pytest.approx([1.0, 1.0, math.sqrt(2)])


def test_build_square(square):
    assert square.facet_count == 4
    assert np.allclose(square.areas, 2.0)
    assert np.allclose(square.offsets, 1.0)
    assert square.is_symmetric()


def test_build_simplex3(simplex3):
    assert simplex3.volume == pytest.approx(1 / 6, abs=1e-14)


def test_build_rejects_degenerate():
    with pytest.raises(pb.DegeneracyError):
        pb.build_polytope([[0, 0], [1, 1], [2, 2], [3, 3]])
    with pytest.raises(pb.DegeneracyError):
        pb.build_polytope([[0, 0], [1, 0]])


def test_facet_closure(triangle, square, cube3, simplex3, stream):
    for body in (triangle, square, cube3, simplex3,
                 pb.random_polytope(2, stream), pb.random_polytope(3, stream)):
        closure = np.linalg.norm(body.areas @ body.normals)
        assert closure <= 1e-9 * max(1.0, body.areas.sum())


def _flat_layout_bodies(n):
    K = pb.random_polytope(n, pb.RandomStream(31).substream(n))
    base = [K, pb.random_polytope(n, pb.RandomStream(32).substream(n), symmetric=True),
            pb.cube(n), pb.cross_polytope(n), pb.standard_simplex(n)]
    return base + [K.translate(np.linspace(-0.5, 0.7, n)), K.negate(), K.scale(2.5)]


@pytest.mark.parametrize("n", [2, 3, 4])
def test_facet_simplices_are_one_flat_array_by_facet(n):
    """The (S, n, n) facet simplices run facet by facet, every facet holds
    some, their measures sum to the facet areas, and each simplex lies on
    its facet's plane; translates, negations and dilates keep all of it."""
    for K in _flat_layout_bodies(n):
        facet = K.simplex_facet
        assert K.facet_simplices.shape == (len(facet), n, n)
        assert np.all(np.diff(facet) >= 0)
        assert np.array_equal(np.unique(facet), np.arange(K.facet_count))
        areas = np.bincount(facet, pb.bodies.simplex_measure(K.facet_simplices))
        assert np.allclose(areas, K.areas, rtol=1e-13, atol=0.0)
        heights = np.einsum("skj,sj->sk", K.facet_simplices, K.normals[facet])
        assert np.allclose(heights, K.offsets[facet, None],
                           rtol=0.0, atol=1e-12 * max(1.0, K.diameter))


def test_support(triangle, square):
    assert pb.support(square, [1, 0]) == 1.0
    d = np.array([1.0, 1.0]) / math.sqrt(2)
    assert pb.support(triangle, d) == pytest.approx(1 / math.sqrt(2), abs=1e-12)
    assert pb.support(pb.Ball(2, 2.0), [0, 1]) == pytest.approx(2.0)
    # positive homogeneity
    assert pb.support(triangle, 3.5 * d) == pytest.approx(3.5 * pb.support(triangle, d))


def test_radial(triangle, square):
    d = np.array([1.0, 1.0]) / math.sqrt(2)
    assert pb.radial(square, d) == pytest.approx(math.sqrt(2), abs=1e-12)
    assert pb.generalized_radial(triangle, [0.25, 0.25], [1, 0]) == pytest.approx(0.5)
    assert pb.radial(pb.Ball(2, 1.0), [0.6, 0.8]) == pytest.approx(1.0)
    with pytest.raises(pb.DomainError):
        pb.generalized_radial(triangle, [2.0, 2.0], [1, 0])
    # exit point lies on the boundary
    x = np.array([0.2, 0.3])
    theta = np.array([0.6, -0.8])
    rho = pb.generalized_radial(square, x, theta)
    exit_point = x + rho * theta
    slack = square.offsets - square.normals @ exit_point
    assert abs(min(slack)) < 1e-10


def test_volume(triangle, simplex3):
    assert pb.volume(triangle) == pytest.approx(0.5)
    assert pb.volume(pb.Ball(3, 1.0)) == pytest.approx(4 * math.pi / 3)
    hexagon = pb.difference_body(triangle)
    assert hexagon.volume == pytest.approx(3.0, abs=1e-12)


def test_polar(square, cross2):
    p = pb.polar(square)
    assert p.volume == pytest.approx(2.0, abs=1e-12)  # cross-polytope
    pp = pb.polar(pb.polar(cross2))
    d = np.linalg.norm(pp.vertices[:, None, :] - cross2.vertices[None, :, :],
                       axis=-1)
    assert d.min(axis=1).max() < 1e-9
    two_sq = square.scale(2.0)
    assert pb.polar(two_sq).volume == pytest.approx(2.0 / 4, abs=1e-12)
    shifted = square.translate([2.0, 0.0])  # origin not interior
    with pytest.raises(pb.DomainError):
        pb.polar(shifted)


def test_minkowski_and_difference(triangle, square):
    d = pb.difference_body(square)
    assert np.allclose(sorted(d.offsets), 2.0)  # DK = 2K for symmetric K
    hexagon = pb.difference_body(triangle)
    # vertex-sum enumeration oracle
    verts = triangle.vertices
    sums = {tuple(np.round(v - w, 12)) for v in verts for w in verts}
    expected = {(1, 0), (0, 1), (-1, 0), (0, -1), (1, -1), (-1, 1)}
    assert expected <= sums
    hx = {tuple(np.round(v, 12)) for v in hexagon.vertices}
    assert hx == expected
    point = pb.build_polytope([[3, 0], [3.5, 0], [3, 0.5]])
    s = pb.minkowski_sum(square, point)
    assert s.volume >= square.volume


def test_intersect_translate(square, triangle):
    inter = pb.intersect_translate(square, [1.0, 0.0])
    assert inter.volume == pytest.approx(2.0, abs=1e-12)
    assert pb.intersect_translate(square, [3.0, 0.0]) is None
    inter = pb.intersect_translate(triangle, [0.5, 0.0])
    assert inter.volume == pytest.approx(0.125, abs=1e-12)  # 0.5 (1-r)^2


def test_intersect_iff_in_difference_body(stream):
    for n in (2, 3):
        K = pb.random_polytope(n, stream.substream(n))
        DK = pb.difference_body(K)
        gen = stream.substream(10 + n).generator()
        for _ in range(10):
            theta = gen.standard_normal(n)
            theta /= np.linalg.norm(theta)
            rho = pb.radial_many(DK, theta[None, :])[0]
            inside = pb.intersect_translate(K, (1 - 1e-6) * rho * theta)
            outside = pb.intersect_translate(K, (1 + 1e-6) * rho * theta)
            assert inside is not None
            assert outside is None or outside.volume < 1e-9


def test_apply_linear(triangle, square):
    T = pb.LinearMap(np.eye(2))
    img = pb.apply_linear(triangle, T)
    assert img.volume == pytest.approx(triangle.volume)
    img = pb.apply_linear(square, pb.LinearMap(np.diag([2.0, 0.5])))
    assert img.volume == pytest.approx(4.0, abs=1e-12)
    assert pb.support(img, [1, 0]) == pytest.approx(2.0)
    rot = pb.LinearMap.rotation_2d(math.pi / 2)
    img = pb.apply_linear(triangle, rot)
    assert img.volume == pytest.approx(0.5, abs=1e-12)
    with pytest.raises(pb.ConfigurationError):
        pb.apply_linear(square, pb.LinearMap(np.array([[1.0, 0], [2.0, 0]])))


def test_volume_scaling_under_maps(stream):
    gen = stream.generator()
    for _ in range(5):
        K = pb.random_polytope(2, stream.substream(int(gen.integers(1000))))
        M = gen.standard_normal((2, 2))
        if abs(np.linalg.det(M)) < 0.1:
            continue
        img = pb.apply_linear(K, pb.LinearMap(M))
        assert img.volume == pytest.approx(abs(np.linalg.det(M)) * K.volume,
                                           rel=1e-9)


def test_star_volume(grid4096):
    star = pb.star_body_of(pb.Ball(2, 1.0), grid4096)
    assert pb.star_volume(star) == pytest.approx(math.pi, abs=1e-6)


def test_polar_volume_from_support(triangle, grid4096):
    zon = pb.projection_zonoid(triangle)
    val = pb.polar_volume_from_support(lambda d: zon.support(d), grid4096)
    assert val == pytest.approx(3.0, abs=1e-4 * 3)
    ball = pb.Ball(2, 2.0)  # Pi B = 2B for the unit disk
    val = pb.polar_volume_from_support(
        lambda d: pb.support_many(ball, d), grid4096)
    assert val == pytest.approx(math.pi / 4, abs=1e-6)
    with pytest.raises(pb.PolarDomainError):
        pb.polar_volume_from_support(lambda d: -np.ones(len(d)), grid4096)


def test_support_radial_duality(stream, grid64):
    for n in (2, 3):
        K = pb.random_polytope(n, stream.substream(40 + n), symmetric=True)
        P = pb.polar(K)
        grid = grid64 if n == 2 else pb.sphere_directions(3, 64)
        rho = pb.radial_many(K, grid.directions)
        h = pb.support_many(P, grid.directions)
        assert np.max(np.abs(rho * h - 1.0)) < 1e-9


def test_brunn_minkowski_smoke(stream):
    for i in range(5):
        K = pb.random_polytope(2, stream.substream(50 + i))
        L = pb.random_polytope(2, stream.substream(60 + i))
        s = pb.minkowski_sum(K, L)
        assert (s.volume ** 0.5
                >= K.volume ** 0.5 + L.volume ** 0.5 - 1e-9)


def test_regular_polygon_and_cross():
    gon = pb.regular_polygon(256)
    assert gon.volume == pytest.approx(math.pi, rel=1e-3)
    assert pb.cross_polytope(3).volume == pytest.approx(4 / 3, abs=1e-12)


def test_dimension_guards():
    with pytest.raises(pb.ConfigurationError):
        pb.build_polytope(np.eye(5))
    with pytest.raises(pb.ConfigurationError):
        pb.minkowski_sum(pb.cube(2), pb.cube(3))


def _row_major_contains(K, points, tol):
    return np.all(points @ K.normals.T <= K.offsets + tol, axis=1)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_contains_matches_row_major_formula(n):
    gen = np.random.default_rng(n)
    K = pb.random_polytope(n, pb.RandomStream(31).substream(n))
    lo, hi = K.bounding_box()
    points = lo - 0.1 + gen.random((20_000, n)) * (hi - lo + 0.2)
    # on each facet hyperplane moved out by tol, and one ulp to either side
    level = (K.offsets + 1e-9)[:, None] * K.normals
    points = np.vstack([points, level, np.nextafter(level, np.inf),
                        np.nextafter(level, -np.inf)])
    for tol in (1e-9, 0.0, 1e-3):
        assert np.array_equal(K.contains(points, tol),
                              _row_major_contains(K, points, tol))

    # the cube's facet products are exact: a coordinate of exactly
    # offset + tol is in, the next float above is out
    C = pb.cube(n)
    edge = 1.0 + 1e-9
    points = gen.uniform(-1.0, 1.0, (3, 64, n))
    points[0, :, 0] = edge
    points[1, :, -1] = -edge
    points[2, :, 0] = np.nextafter(edge, np.inf)
    points = points.reshape(-1, n)
    inside = C.contains(points)
    assert np.array_equal(inside, _row_major_contains(C, points, 1e-9))
    assert inside[:128].all() and not inside[128:].any()


@pytest.mark.parametrize("n", [2, 3, 4])
def test_ball_contains_matches_norm_formula(n):
    gen = np.random.default_rng(10 + n)
    B = pb.Ball(n, 1.5, center=gen.standard_normal(n))
    points = B.center + gen.standard_normal((20_000, n))
    assert np.array_equal(
        B.contains(points),
        np.linalg.norm(points - B.center, axis=1) <= B.radius + 1e-9)
