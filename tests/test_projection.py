from __future__ import annotations

import math

import numpy as np
import pytest

import projbodies as pb
from scipy.spatial import ConvexHull
from conftest import gauss_edge_weight


def test_projection_zonoid_triangle(triangle):
    zon = pb.projection_zonoid(triangle)
    # facet-sum oracle: h(e1) = (1/2)(A_left + A_hyp / sqrt 2) = 1
    assert zon.support(np.array([[1.0, 0.0]]))[0] == pytest.approx(1.0)
    assert zon.support(np.array([[0.0, 1.0]]))[0] == pytest.approx(1.0)


def test_projection_zonoid_square(square, gauss2):
    zon = pb.projection_zonoid(square)
    thetas = np.array([[1.0, 0.0], [0.6, 0.8]])
    expect = 2.0 * (np.abs(thetas[:, 0]) + np.abs(thetas[:, 1]))
    assert np.allclose(zon.support(thetas), expect)
    zmu = pb.projection_zonoid(square, gauss2, tol=1e-9)
    a = gauss_edge_weight()
    assert zmu.support(np.array([[1.0, 0.0]]))[0] == pytest.approx(a, abs=1e-5)
    d = np.array([[0.6, 0.8]])
    assert zmu.support(d)[0] == pytest.approx(a * 1.4, abs=1e-5)


def test_zonoid_ball_sandwich(square, gauss2, stream):
    """0 <= h <= half the total weight on random directions."""
    zon = pb.projection_zonoid(square, gauss2)
    gen = stream.generator()
    thetas = gen.standard_normal((64, 2))
    thetas /= np.linalg.norm(thetas, axis=1, keepdims=True)
    h = zon.support(thetas)
    assert np.all(h >= 0)
    assert np.all(h <= 0.5 * zon.total_weight + 1e-12)


def test_pi_of_negated_body(stream):
    for n in (2, 3):
        K = pb.random_polytope(n, stream.substream(n))
        z1 = pb.projection_zonoid(K)
        z2 = pb.projection_zonoid(K.negate())
        grid = pb.sphere_directions(n, 64) if n == 2 else \
            pb.sphere_directions(3, 64)
        assert np.max(np.abs(z1.support(grid.directions)
                             - z2.support(grid.directions))) < 1e-12


def test_offset_vector_lebesgue_exact(triangle, leb2):
    off = pb.offset_vector(triangle, leb2)
    assert np.linalg.norm(off.value) == 0.0
    assert off.is_projective


def test_offset_vector_symmetric_gaussian(square, gauss2, stream):
    off = pb.offset_vector(square, gauss2, stream=stream)
    assert np.linalg.norm(off.value) <= 3 * max(off.error_estimate, 1e-12)
    assert off.is_projective and off.consistent


def test_offset_vector_shifted_body(triangle, gauss2, stream):
    """Gauss-Green: boundary and interior forms agree for a shifted body."""
    K = triangle.translate([0.4, 0.2])
    off = pb.offset_vector(K, gauss2, stream=stream, tol=1e-10)
    assert np.linalg.norm(off.value) > 1e-3  # genuinely non-projective
    assert off.consistent
    # independent oracle: eta = -1/2 int_K y phi(y) dy by quadrature
    from scipy.integrate import dblquad
    phi = lambda x, y: math.exp(-(x * x + y * y) / 2) / (2 * math.pi)
    mx, _ = dblquad(lambda y, x: x * phi(x, y), 0.4, 1.4,
                    lambda x: 0.2, lambda x: 0.2 + (1.4 - x))
    my, _ = dblquad(lambda y, x: y * phi(x, y), 0.4, 1.4,
                    lambda x: 0.2, lambda x: 0.2 + (1.4 - x))
    oracle = -0.5 * np.array([mx, my])
    assert np.linalg.norm(off.value - oracle) < 1e-6


def test_tau_of_phi_vanishes(square, gauss2, stream):
    off = pb.offset_vector(square, gauss2, f=gauss2, stream=stream)
    assert off.which == "tau"
    assert off.is_projective  # f = phi is mu-projective


def test_brightness_residual_plain_lebesgue(square, leb2):
    res = pb.brightness_residual(square, leb2, [1.0, 0.0])
    assert res.value <= 1e-6


def test_brightness_residual_modes(square, gauss2, stream):
    for mode, f in (("plain", None), ("polarized", None),
                    ("functional", gauss2)):
        res = pb.brightness_residual(square, gauss2, [1.0, 0.0], mode=mode,
                                     f=f, stream=stream, N=200_000)
        assert res.value <= 3.0 * res.error_estimate


def test_brightness_residual_guards(triangle, gauss2, stream):
    with pytest.raises(pb.ConfigurationError):
        pb.brightness_residual(triangle, gauss2, [1.0, 0.0], mode="polarized",
                               stream=stream)


def test_transform_law(square, triangle, gauss2, leb2):
    grid = pb.sphere_directions(2, 256)
    assert pb.transform_law_residual(
        square, gauss2, pb.LinearMap(np.eye(2)), grid) <= 1e-12
    assert pb.transform_law_residual(
        square, gauss2, pb.LinearMap(np.diag([2.0, 0.5])), grid) <= 1e-4
    rot = pb.LinearMap.rotation_2d(math.pi / 4)
    assert pb.transform_law_residual(triangle, leb2, rot, grid) <= 1e-9
    shear = pb.LinearMap(np.array([[1.0, 0.7], [0.0, 1.0]]))
    assert pb.transform_law_residual(triangle, gauss2, shear, grid) <= 1e-4


def test_zonoid_polar_volume(triangle, square, gauss2, grid4096):
    zon = pb.projection_zonoid(triangle)
    assert pb.zonoid_polar_volume(zon, grid4096) == pytest.approx(3.0, rel=1e-3)
    zg = pb.projection_zonoid(square, gauss2)
    a = gauss_edge_weight()
    assert pb.zonoid_polar_volume(zg, grid4096) == pytest.approx(
        2.0 / a ** 2, rel=5e-3)
    gon = pb.regular_polygon(512)
    z = pb.projection_zonoid(gon)
    assert pb.zonoid_polar_volume(z, grid4096) == pytest.approx(
        math.pi / 4, abs=1e-3)


def test_zonoid_polar_volume_domain(square):
    zon = pb.projection_zonoid(square)
    shifted = zon.with_offset([10.0, 0.0])
    with pytest.raises(pb.PolarDomainError):
        pb.zonoid_polar_volume(shifted, pb.sphere_directions(2, 64))


@pytest.mark.parametrize("n, simplex_pv, cube_pv",
                         [(2, 3.0, 1 / 2), (3, 80 / 3, 1 / 48), (4, 3780.0, 1 / 6144)])
def test_exact_polar_volume_closed_forms(n, simplex_pv, cube_pv):
    # Zhang's and Petty's equality-side closed forms for the standard simplex
    # and Pi [-1,1]^n = 2^n [-1,1]^n, whose polar is 2^-n cross-polytope
    for K, truth in ((pb.standard_simplex(n), simplex_pv), (pb.cube(n), cube_pv)):
        pv, err = pb.projection_zonoid(K).polar_volume()
        assert pv == pytest.approx(truth, rel=1e-12, abs=0)
        assert err == 0.0


def test_exact_polar_volume_bracket(square, gauss2):
    zon = pb.projection_zonoid(square, gauss2, tol=1e-9)
    pv, err = zon.polar_volume()
    w, e = zon.weights, zon.weight_errors
    lo = ConvexHull(zon.polar_points(w + e)).volume
    hi = ConvexHull(zon.polar_points(np.maximum(w - e, 0.0))).volume
    assert lo <= pv <= hi
    assert err == max(hi - pv, pv - lo) > 0.0
    # the polar of a (|x_1| + |x_2|) <= 1 is the cross-polytope of area 2/a^2
    assert lo <= 2.0 / gauss_edge_weight() ** 2 <= hi


def test_exact_polar_volume_domain(square):
    shifted = pb.projection_zonoid(square).with_offset([10.0, 0.0])
    with pytest.raises(pb.PolarDomainError):
        shifted.polar_volume()


def test_grid_polar_volume_converges_to_exact():
    pentagon = pb.projection_zonoid(pb.regular_polygon(5))
    # c04's first Gaussian-shifted 3-D body
    K = pb.random_polytope(3, pb.RandomStream(424242).substream(20))
    body, _ = pb.shifted_zonoid(K, pb.gaussian(3), tol=1e-9)
    for Z, counts, rel in ((pentagon, (64, 256, 1024, 4096), 1e-7),
                           (body, (256, 16384), 1e-5)):
        exact, _ = Z.polar_volume()
        gaps = [abs(pb.zonoid_polar_volume(Z, pb.sphere_directions(Z.n, c)) - exact)
                for c in counts]
        assert all(b < a for a, b in zip(gaps, gaps[1:]))
        assert gaps[-1] <= rel * exact


def test_zhang_petty_sandwich_random(stream, grid4096):
    for i in range(6):
        K = pb.random_polytope(2, stream.substream(70 + i))
        zon = pb.projection_zonoid(K)
        pv = pb.zonoid_polar_volume(zon, grid4096)
        product = K.volume * pv
        assert product >= 6 / 4 - 1e-3
        assert product <= (math.pi / 2) ** 2 + 1e-3


def test_set_inclusion_radial(square, gauss2, grid64, stream):
    """DK ⊆ (F/F')(mu K) (Pi_mu K)° direction-wise (power 1/n, symmetric)."""
    zon = pb.projection_zonoid(square, gauss2)
    muK = pb.measure_body(gauss2, square, stream, 200_000)
    DK = pb.difference_body(square)
    rho = pb.radial_many(DK, grid64.directions)
    h = zon.support(grid64.directions)
    bound = 2.0 * muK.value  # F(x)=x^{1/2}: F/F' = 2x
    assert np.all(rho * h <= bound + 3 * (2 * muK.error_estimate) + 1e-9)


def test_exp_norm_scaling_law(square):
    mu = pb.exp_norm(square)
    grid = pb.sphere_directions(2, 128)
    base = pb.projection_zonoid(square).support(grid.directions)
    for t in (0.5, 1.0, 2.0, 4.0):
        tK = square.scale(t)
        zon = pb.projection_zonoid(tK, mu, tol=1e-10)
        ratio = zon.support(grid.directions) / (t * math.exp(-t) * base)
        assert np.max(np.abs(ratio - 1.0)) <= 1e-3


def test_halfspace_integral_identity(square, triangle, gauss2, leb2):
    lhs, rhs, resid = pb.halfspace_integral_identity(square, gauss2, [1, 0])
    assert lhs == pytest.approx(gauss_edge_weight(), abs=1e-6)
    assert resid <= 1e-8
    lhs, rhs, resid = pb.halfspace_integral_identity(square, leb2, [1, 0])
    assert (lhs, rhs) == (pytest.approx(2.0), pytest.approx(2.0))
    lhs, rhs, resid = pb.halfspace_integral_identity(triangle, leb2, [1, 0])
    assert lhs == pytest.approx(1.0)
    assert resid <= 1e-12


def test_ball_projection(grid4096):
    ball = pb.Ball(2, 1.0)
    pball = pb.ball_projection_body(ball)
    assert pball.radius == pytest.approx(2.0)
    b3 = pb.ball_projection_body(pb.Ball(3, 1.0))
    assert b3.radius == pytest.approx(math.pi)
