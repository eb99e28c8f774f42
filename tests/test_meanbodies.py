from __future__ import annotations

import math

import numpy as np
import pytest
from scipy import integrate

import projbodies as pb
from projbodies import covariogram


def test_c_np_values():
    assert pb.c_np(2, 1) == pytest.approx(3.0, abs=1e-12)
    assert pb.c_np(2, 0) == pytest.approx(math.exp(1.5), abs=1e-12)
    assert pb.c_np(3, 0) == pytest.approx(math.exp(1 + 0.5 + 1 / 3), abs=1e-12)
    # p -> 0 continuity of (n B(p+1, n))^{-1/p}
    assert pb.c_np(2, 1e-7) == pytest.approx(pb.c_np(2, 0), rel=1e-5)


def test_radial_mean_body_p1(triangle, square, grid64):
    r1 = pb.radial_mean_body(triangle, 1.0, grid64, tol=1e-10)
    # oracle: mean of rho over K = (1/6) / (1/2) = 1/3 at e1
    assert r1.star.radii[0] == pytest.approx(1 / 3, abs=1e-14)
    r1 = pb.radial_mean_body(square, 1.0, grid64, tol=1e-10)
    assert r1.star.radii[0] == pytest.approx(1.0, abs=1e-14)


def test_radial_mean_body_p_infinity(square, grid64):
    r = pb.radial_mean_body(square, np.inf, grid64)
    DK = pb.difference_body(square)
    assert np.allclose(r.star.radii, pb.radial_many(DK, grid64.directions))


def test_radial_mean_body_p0(square, grid64):
    r0 = pb.radial_mean_body(square, 0.0, grid64, tol=1e-10)
    # geometric-mean oracle at e1: exp(mean of log(1 - x1)) = 2/e
    assert r0.star.radii[0] == pytest.approx(2 / math.e, abs=1e-14)


def test_radial_mean_body_negative_p(square, grid64):
    r = pb.radial_mean_body(square, -0.5, grid64, tol=1e-10)
    # oracle at e1: M_p = mean (1-x1)^{-1/2} = sqrt 2; rho = M^{-2} = 1/2
    assert r.star.radii[0] == pytest.approx(0.5, abs=1e-14)
    with pytest.raises(pb.DomainError):
        pb.radial_mean_body(square, -1.0, grid64)


def test_spectral_mean_body(triangle, square, grid64):
    s = pb.spectral_mean_body(triangle, -1.0, grid64)
    assert s.star.radii[0] == pytest.approx(0.5, abs=1e-12)  # Vol/h_Pi
    s1 = pb.spectral_mean_body(triangle, 1.0, grid64, tol=1e-10)
    assert s1.star.radii[0] == pytest.approx(2 / 3, abs=1e-8)
    sinf = pb.spectral_mean_body(square, np.inf, grid64)
    assert np.allclose(sinf.star.radii,
                       pb.radial_many(pb.difference_body(square),
                                      grid64.directions))
    s0 = pb.spectral_mean_body(square, 0.0, grid64, tol=1e-9)
    r0 = pb.radial_mean_body(square, 0.0, grid64, tol=1e-9)
    assert np.allclose(s0.star.radii, math.e * r0.star.radii)


def test_simplex_constant_identity(triangle, grid64):
    """c_{2,1} rho_{R_1}(e1) = rho_{DK}(e1) for the simplex."""
    r1 = pb.radial_mean_body(triangle, 1.0, grid64, tol=1e-10)
    rho_dk = pb.radial_many(pb.difference_body(triangle),
                            grid64.directions)
    assert np.allclose(pb.c_np(2, 1) * r1.star.radii, rho_dk, atol=1e-7)


def test_jensen_monotonicity(square, triangle, grid64):
    for K in (square, triangle):
        prev = None
        for p in (0.0, 0.5, 1.0, 2.0, 4.0):
            r = pb.radial_mean_body(K, p, grid64, tol=1e-9).star.radii
            if prev is not None:
                assert np.all(r >= prev - 1e-8)
            prev = r


def test_symmetry_of_radii(triangle, grid64):
    """R_p K radial values are even in theta."""
    r = pb.radial_mean_body(triangle, 1.0, grid64, tol=1e-9).star.radii
    half = grid64.count // 2
    assert np.allclose(r[:half], r[half:], atol=1e-8)


def test_p_continuity(square, grid64):
    r0 = pb.radial_mean_body(square, 0.0, grid64, tol=1e-9).star.radii
    r001 = pb.radial_mean_body(square, 0.01, grid64, tol=1e-9).star.radii
    assert np.max(np.abs(r001 - r0) / r0) <= 1e-2


def test_x_ray_chord_identity(triangle):
    """(1/(p+1)) int X^{p+1} over the shadow = int_K rho^p, for p = 1.

    Left side by direct 2-D quadrature of the chord function, right side
    from the covariogram route used by radial_mean_body.
    """
    # X_{e1}(y) = chord length of T at height y = 1 - y for y in (0,1)
    lhs = 0.5 * sum((1 - y) ** 2 * 0.01 for y in np.arange(0.005, 1.0, 0.01))
    grid = pb.sphere_directions(2, 64)
    r1 = pb.radial_mean_body(triangle, 1.0, grid, tol=1e-10)
    rhs = r1.star.radii[0] * triangle.volume  # M_1 * Vol = int rho dx
    assert lhs == pytest.approx(rhs, abs=1e-3)


def test_inclusion_chain_simplex(triangle, grid64):
    rep = pb.inclusion_chain_report(triangle, [0, 1, 2], grid64, tol=1e-9)
    assert rep.passed
    assert rep.witnesses["equality_spread"].value <= 1e-14


def test_inclusion_chain_simplex_3d():
    rep = pb.inclusion_chain_report(pb.standard_simplex(3), [0, 1, 2],
                                    pb.sphere_directions(3, 32), tol=1e-9)
    assert rep.passed
    assert rep.witnesses["equality_spread"].value <= 1e-13


def test_inclusion_chain_square_and_pentagon(square, grid64, stream):
    rep = pb.inclusion_chain_report(square, [0, 1, 2], grid64, tol=1e-9)
    assert rep.passed
    pentagon = pb.regular_polygon(5)
    rep = pb.inclusion_chain_report(pentagon, [0, 1, 2], grid64, tol=1e-9)
    assert rep.passed
    assert rep.witnesses["equality_spread"].value > 1e-3  # strictly inside


def test_ball_distance_bound(grid64):
    """Vol(K) Pi°K ⊆ DK ⊆ n Vol(K) Pi°K on a ball-like polygon."""
    gon = pb.regular_polygon(256)
    zon = pb.projection_zonoid(gon)
    rho_polar = gon.volume / zon.support(grid64.directions)
    rho_dk = pb.radial_many(pb.difference_body(gon), grid64.directions)
    assert np.all(rho_polar <= rho_dk + 1e-9)
    assert np.all(rho_dk <= 2 * rho_polar + 1e-9)


def _cube_radius(theta, p):
    """rho_{R_p}(theta) of [-1,1]^n by 1-D quadrature of g = prod(2 - r|theta_i|)."""
    a = np.abs(theta)
    val, _ = integrate.quad(lambda r: float(np.prod(2.0 - r * a)) * r ** (p - 1.0),
                            0.0, 2.0 / a.max(), epsabs=1e-15, epsrel=1e-13)
    return (p / 2.0 ** len(a) * val) ** (1.0 / p)


@pytest.mark.parametrize("n", [3, 4])
def test_cube_radii_match_quadrature(n):
    grid = pb.sphere_directions(n, 16, pb.RandomStream(11))
    for p in (1.0, 2.0):
        radii = pb.radial_mean_body(pb.cube(n), p, grid).star.radii
        ref = [_cube_radius(theta, p) for theta in grid.directions]
        assert np.max(np.abs(radii - ref)) <= 1e-13


def _c07_pentagon():
    gen = pb.RandomStream(424242 + 3).generator()
    pentagon = None
    while pentagon is None or len(pentagon.vertices) != 5:
        pentagon = pb.build_polytope(gen.standard_normal((5, 2)))
    return pentagon


def test_chains_share_pieces_across_p(monkeypatch, square, triangle, grid64):
    """c07's three chains make one exact covariogram stack per body: one
    ``ray_pieces`` stack serves every direction and every p (the adaptive
    ray route took 108,696 calls, the per-direction pieces 256)."""
    calls = []
    exact = covariogram.covariogram_exact

    def counting(K, x):
        calls.append(1)
        return exact(K, x)

    monkeypatch.setattr(covariogram, "covariogram_exact", counting)
    for K in (square, triangle, _c07_pentagon()):
        assert pb.inclusion_chain_report(K, [0, 1, 2], grid64, tol=1e-9).passed
    assert len(calls) == 3


_PIECE_BODIES = [pb.regular_polygon(5), pb.cube(3),
                 pb.random_polytope(3, pb.RandomStream(424242).substream(22))]


@pytest.mark.parametrize("K", _PIECE_BODIES, ids=["pentagon", "cube3", "random3"])
def test_ray_pieces_are_the_covariogram(K):
    gen = np.random.default_rng(3)
    thetas = gen.standard_normal((3, K.n))
    thetas /= np.linalg.norm(thetas, axis=1, keepdims=True)
    rho = pb.radial_many(pb.difference_body(K), thetas)
    pieces = pb.ray_pieces(K, thetas)
    assert np.array_equal(np.unique(pieces.ray), np.arange(3))
    assert pieces.coefficients.shape == (len(pieces.a), K.n + 1)
    for i, theta in enumerate(thetas):
        on = pieces.ray == i
        edges = np.r_[pieces.a[on], pieces.b[on][-1]]
        assert edges[0] == 0.0 and np.all(np.diff(edges) > 0.0)
        assert np.array_equal(pieces.a[on][1:], pieces.b[on][:-1])
        assert edges[-1] == pytest.approx(rho[i], rel=1e-15)
        for a, b, c in zip(pieces.a[on], pieces.b[on], pieces.coefficients[on]):
            for t in gen.random(3):
                g = pb.covariogram_exact(K, (a + (b - a) * t) * theta)
                assert abs(g - np.polyval(c[::-1], t)) <= 1e-13 * K.volume
    assert np.all(np.abs(pieces.residual) <= 1e-9 * K.volume)


def test_ray_pieces_check_node_catches_missed_breakpoints(monkeypatch):
    """With every breakpoint dropped, the check node of ``ray_pieces`` and
    of the polar translated average sees that g_K is no longer one quadratic
    on [0, rho_DK]."""
    pentagon = pb.regular_polygon(5)
    thetas = np.array([[0.3, 0.7], [-0.9, 0.2]])
    assert len(pb.ray_pieces(pentagon, thetas).a) > 2
    gauss2 = pb.gaussian(2)
    pb.translated_average(pentagon, gauss2)
    monkeypatch.setattr(covariogram, "_breakpoints", lambda K, thetas, rhos: (
        np.zeros(len(rhos)), rhos, np.arange(len(rhos))))
    with pytest.raises(pb.QuadratureFailure, match="check node"):
        pb.ray_pieces(pentagon, thetas)
    with pytest.raises(pb.QuadratureFailure, match="check node"):
        pb.translated_average(pentagon, gauss2)
