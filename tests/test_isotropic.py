from __future__ import annotations

import math

import numpy as np
import pytest

import projbodies as pb


def test_isotropy_residual_symmetric_fixtures(square, cross2, leb2):
    assert pb.isotropy_residual(square, leb2).residual <= 1e-12
    assert pb.isotropy_residual(cross2, leb2).residual <= 1e-12
    assert pb.isotropy_residual(square, pb.gaussian(2)).residual <= 1e-8


def test_isotropy_residual_triangle(triangle, leb2):
    cert = pb.isotropy_residual(triangle, leb2)
    # hand facet-sum oracle: off-diagonal sqrt(2) - 1, residual (2 - sqrt 2)
    assert cert.residual == pytest.approx(2 - math.sqrt(2), abs=1e-9)
    assert not cert.isotropic


def test_decomposition_trace_identity(stream, leb2):
    """trace of (n/mu(dK)) sum w u (x) u = n for any body (unit normals)."""
    from projbodies.isotropic import _decomposition_matrix
    for n in (2, 3):
        K = pb.random_polytope(n, stream.substream(80 + n))
        w, _ = pb.facet_weights(pb.lebesgue(n), K)
        M = _decomposition_matrix(K, w)
        assert np.trace(M) == pytest.approx(n, abs=1e-9)


def test_I_functional(square, leb2):
    assert pb.I_functional(square, leb2, np.eye(2)) == pytest.approx(8.0)
    assert pb.I_functional(square, leb2,
                           np.diag([2.0, 0.5])) == pytest.approx(10.0)
    g = pb.gaussian(2)
    from conftest import gauss_edge_weight
    assert pb.I_functional(square, g, np.eye(2)) == pytest.approx(
        4 * gauss_edge_weight(), abs=1e-5)


def test_minimize_I_square(square, leb2, stream):
    point, value, converged = pb.minimize_I(square, leb2, stream=stream)
    assert converged
    assert value == pytest.approx(8.0, abs=1e-8)
    assert np.max(np.abs(point.matrix - np.eye(2))) <= 1e-5


def test_minimize_I_cross(cross2, leb2, stream):
    point, value, converged = pb.minimize_I(cross2, leb2, stream=stream)
    assert value == pytest.approx(4 * math.sqrt(2), abs=1e-7)
    assert np.max(np.abs(point.matrix - np.eye(2))) <= 1e-5


def test_minimize_I_rectangle(leb2, stream):
    rect = pb.build_polytope([[2, 0.5], [2, -0.5], [-2, 0.5], [-2, -0.5]])
    point, value, converged = pb.minimize_I(rect, leb2, stream=stream)
    assert converged
    assert value == pytest.approx(8.0, abs=1e-6)
    # minimizer is diag(2, 1/2) up to rotation: compare singular values
    sv = np.sort(np.linalg.svd(point.matrix)[1])
    assert sv == pytest.approx([0.5, 2.0], abs=1e-4)


def test_minimize_never_exceeds_identity(stream, leb2):
    for i in range(3):
        K = pb.random_polytope(2, stream.substream(90 + i))
        _, value, _ = pb.minimize_I(K, leb2, stream=stream.substream(95 + i))
        assert value <= pb.I_functional(K, leb2, np.eye(2)) + 1e-12


def test_sln_point_determinant(stream):
    gen = stream.generator()
    from projbodies.isotropic import SLnPoint, _traceless_basis
    basis = _traceless_basis(3)
    M = np.tensordot(gen.standard_normal(len(basis)) * 0.4, basis, axes=1)
    pt = SLnPoint(M)
    assert abs(np.linalg.det(pt.matrix) - 1.0) <= 1e-10


def test_ball_zonoid_volume_bound(square, cross2, leb2):
    rep = pb.ball_zonoid_volume_bound(square.areas, square.normals)
    assert rep.verdict == "pass"
    assert rep.rhs == pytest.approx(0.5)     # bound
    assert rep.lhs == pytest.approx(0.5, rel=1e-4)  # observed, equality
    rep = pb.ball_zonoid_volume_bound(cross2.areas, cross2.normals)
    assert rep.verdict == "pass"
    g = pb.gaussian(2)
    w, _ = pb.facet_weights(g, square, 1e-9)
    rep = pb.ball_zonoid_volume_bound(w, square.normals)
    assert rep.verdict == "pass"
    assert rep.lhs == pytest.approx(rep.rhs, rel=1e-3)  # diagonal equality
    # non-isotropic input: hypothesis violation
    tri = pb.standard_simplex(2)
    rep = pb.ball_zonoid_volume_bound(tri.areas, tri.normals)
    assert rep.verdict == "hypothesis_violation"


def test_isotropic_sandwich(square, cross2, leb2, gauss2):
    rep = pb.isotropic_sandwich_check(square, leb2)
    assert rep.passed
    assert rep.witnesses["h_min"].value == pytest.approx(2.0)
    assert rep.witnesses["h_max"].value == pytest.approx(2 * math.sqrt(2))
    assert rep.witnesses["lower"].value == pytest.approx(2.0)
    assert rep.witnesses["upper"].value == pytest.approx(8 / (2 * math.sqrt(2)))
    assert pb.isotropic_sandwich_check(cross2, leb2).passed
    assert pb.isotropic_sandwich_check(square, gauss2).passed


def test_reported_grid_is_the_grid_used(square, gauss2):
    # a turned triangle: its extreme support directions miss every grid
    K = pb.apply_linear(pb.regular_polygon(3), pb.LinearMap.rotation_2d(0.1234))
    zon = pb.projection_zonoid(K)
    for cfg in (None, pb.RunConfig(), pb.RunConfig(grid=64)):
        rep = pb.isotropic_sandwich_check(K, pb.lebesgue(2), cfg=cfg)
        h = zon.support(pb.sphere_directions(2, rep.config["grid"]).directions)
        assert rep.witnesses["h_min"].value == float(np.min(h))
        assert rep.witnesses["h_max"].value == float(np.max(h))
    assert pb.isotropic_sandwich_check(K, pb.lebesgue(2)).config["grid"] == 1024
    # the polar volume is exact, so the grid does not reach it: the polar
    # of w (|x_1| + |x_2|) <= 1 is the cross-polytope of area 2 / w^2
    w, _ = pb.facet_weights(gauss2, square, 1e-9)
    observed = []
    for cfg in (None, pb.RunConfig(grid=64)):
        rep = pb.ball_zonoid_volume_bound(w, square.normals, cfg=cfg)
        assert rep.config["grid"] == (cfg or pb.RunConfig()).grid
        observed.append(rep.witnesses["observed"].value)
    assert observed[0] == observed[1]
    assert observed[0] == pytest.approx(2.0 / w[0] ** 2, rel=1e-12, abs=0)
    assert pb.ball_zonoid_volume_bound(w, square.normals).config["grid"] == 4096


def test_isotropic_volume_sandwich(square, cross2, leb2, gauss2):
    rep = pb.isotropic_volume_sandwich(square, leb2)
    assert rep.passed
    assert rep.witnesses["product"].value == pytest.approx(32.0, abs=1e-4)
    assert rep.witnesses["upper"].value == pytest.approx(32.0)
    assert pb.isotropic_volume_sandwich(cross2, leb2).passed
    assert pb.isotropic_volume_sandwich(square, gauss2).passed


def test_reverse_isoperimetric(square, leb2, gauss2, stream):
    rep = pb.reverse_isoperimetric(square, leb2, pb.log_family(),
                                   stream=stream)
    assert rep.passed
    assert rep.lhs == pytest.approx(8.0)
    assert rep.rhs == pytest.approx(16.0, rel=1e-9)
    rep = pb.reverse_isoperimetric(square, gauss2, pb.log_family(),
                                   stream=stream)
    assert rep.passed
    from conftest import gauss_edge_weight
    assert rep.lhs == pytest.approx(4 * gauss_edge_weight(), abs=1e-6)
    truth = 8 * (2 * pb.gaussian_cdf(1.0) - 1) ** 2 / 2
    assert rep.rhs == pytest.approx(truth, rel=1e-2)


def test_reverse_isoperimetric_f_form(square, leb2, stream):
    """Power family at s = 1/n: the Beta integral gives 16/sqrt(3)."""
    rep = pb.reverse_isoperimetric(square, leb2, pb.power_family(0.5),
                                   mode="f_form", stream=stream)
    assert rep.passed
    assert rep.rhs == pytest.approx(16 / math.sqrt(3), rel=1e-9)
    # q_form with the same power family must be weaker or equal (comparison
    # of concavity strengths), and the log shortcut weaker still
    repq = pb.reverse_isoperimetric(square, leb2, pb.power_family(0.5),
                                    mode="q_form", stream=stream)
    assert rep.rhs <= repq.rhs + 1e-9
    replog = pb.reverse_isoperimetric(square, leb2, pb.log_family(),
                                      stream=stream)
    assert repq.rhs <= replog.rhs + 1e-9


def test_reverse_isoperimetric_guards(triangle, leb2, gauss2, stream):
    with pytest.raises(pb.ConfigurationError):
        pb.reverse_isoperimetric(triangle, leb2, pb.log_family(),
                                 stream=stream)  # not isotropic
    with pytest.raises(pb.ConfigurationError):
        pb.reverse_isoperimetric(pb.cube(2), gauss2, pb.power_family(0.5),
                                 stream=stream)  # gaussian is not s-concave
