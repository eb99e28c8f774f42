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
    from projbodies.isotropic import _moment
    for n in (2, 3):
        K = pb.random_polytope(n, stream.substream(80 + n))
        w, _ = pb.facet_weights(pb.lebesgue(n), K)
        M = n / w.sum() * _moment(w, K.normals)
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
    M = stream.generator().standard_normal((3, 3)) * 0.4
    pt = pb.SLnPoint(M - np.trace(M) / 3 * np.eye(3))
    assert abs(np.linalg.det(pt.matrix) - 1.0) <= 1e-10


ISOTROPIC_BODIES = ([(2, i) for i in (90, 91, 92)] + [(3, i) for i in (20, 21)]
                    + [(4, 40)])


@pytest.mark.parametrize("n,index", ISOTROPIC_BODIES,
                         ids=[f"{n}d-{i}" for n, i in ISOTROPIC_BODIES])
def test_minimize_I_image_is_isotropic(n, index):
    """The minimizer's image A^{-t}K passes the library's own isotropy
    check, so the reverse isoperimetric report accepts it, and its surface
    area is the minimum value."""
    leb = pb.lebesgue(n)
    K = pb.random_polytope(n, pb.RandomStream(424242).substream(index))
    point, value, converged = pb.minimize_I(K, leb)
    assert converged
    assert value <= pb.I_functional(K, leb, np.eye(n))
    image = pb.apply_linear(K, pb.LinearMap(np.linalg.inv(point.matrix).T))
    assert pb.isotropy_residual(image, leb).isotropic
    rep = pb.reverse_isoperimetric(image, leb, pb.log_family(),
                                   cfg=pb.RunConfig(seed=7))
    assert rep.lhs == pytest.approx(value, rel=1e-9)
    assert float(image.areas.sum()) == pytest.approx(value, rel=1e-12, abs=0)


def test_minimize_I_gaussian_is_stationary(gauss2):
    K = pb.random_polytope(2, pb.RandomStream(424242).substream(90))
    point, value, converged = pb.minimize_I(K, gauss2)
    assert converged
    assert value <= pb.I_functional(K, gauss2, np.eye(2))
    w, _ = pb.facet_weights(gauss2, K, 1e-9)
    A = point.matrix
    lengths = np.linalg.norm(K.normals @ A.T, axis=1)
    M = np.einsum("i,ij,ik->jk", w / lengths, K.normals, K.normals)
    assert np.linalg.norm(2 / value * A @ M @ A.T - np.eye(2)) <= 1e-10


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


def test_reported_settings_are_the_settings_used(square, gauss2):
    """set_inclusion_big samples at most 512 directions and echoes the grid
    it sampled; berwald_1d_check integrates at cfg.tol (default 1e-10) and
    echoes it."""
    family = pb.power_family(0.5)
    reps = {g: pb.verify("set_inclusion_big", square, mu=gauss2, family=family,
                         precision=pb.RunConfig(grid=g)) for g in (64, 512, 4096)}
    assert {g: rep.config["grid"] for g, rep in reps.items()} == \
        {64: 64, 512: 512, 4096: 512}
    assert (reps[4096].margin, reps[4096].tolerance) == \
        (reps[512].margin, reps[512].tolerance)
    assert reps[4096].to_json_dict()["witnesses"] == reps[512].to_json_dict()["witnesses"]
    assert pb.verify("set_inclusion_big", square, mu=gauss2,
                     family=family).config == reps[4096].config

    def q(t):
        return t * t

    for cfg in (None, pb.RunConfig(tol=1e-6)):
        rep = pb.berwald_1d_check(q, lambda r: 1.0 + r, 2, 1.0, [0.5, 1.0], cfg=cfg)
        tol = rep.config["tol"]
        beta = 2 * pb.integrate_1d(lambda t: q(t) * (1 - t), 0.0, 1.0, tol).value
        assert tol == (cfg.tol if cfg else 1e-10)
        assert rep.witnesses["beta"].value == beta


def test_isotropic_volume_sandwich(square, cross2, leb2, gauss2):
    rep = pb.isotropic_volume_sandwich(square, leb2)
    assert rep.passed
    assert rep.witnesses["product"].value == pytest.approx(32.0, abs=1e-4)
    assert rep.witnesses["upper"].value == pytest.approx(32.0)
    assert pb.isotropic_volume_sandwich(cross2, leb2).passed
    assert pb.isotropic_volume_sandwich(square, gauss2).passed


def test_reverse_isoperimetric(square, leb2, gauss2):
    rep = pb.reverse_isoperimetric(square, leb2, pb.log_family())
    assert rep.passed
    assert rep.lhs == pytest.approx(8.0)
    assert rep.rhs == pytest.approx(16.0, rel=1e-9)
    rep = pb.reverse_isoperimetric(square, gauss2, pb.log_family())
    assert rep.passed
    from conftest import gauss_edge_weight
    assert rep.lhs == pytest.approx(4 * gauss_edge_weight(), abs=1e-6)
    truth = 8 * (2 * pb.gaussian_cdf(1.0) - 1) ** 2 / 2
    assert rep.rhs == pytest.approx(truth, rel=1e-2)


def test_reverse_isoperimetric_tolerance_is_first_order(square, gauss2):
    """Log family, q_form: rhs = 4 n mu(K) Vol^(-1/n) is linear in mu(K),
    so the tolerance is 3 RSS(e_boundary, 4 n Vol^(-1/n) e_mu)."""
    rep = pb.reverse_isoperimetric(square, gauss2, pb.log_family())
    w, n = rep.witnesses, 2
    slope = 4.0 * n * square.volume ** (-1.0 / n)
    expected = 3.0 * math.hypot(w["mu_boundary"].error, slope * w["mu_K"].error)
    assert rep.tolerance == pytest.approx(expected, rel=1e-6)


def test_reverse_isoperimetric_f_form(square, leb2):
    """Power family at s = 1/n: the Beta integral gives 16/sqrt(3)."""
    rep = pb.reverse_isoperimetric(square, leb2, pb.power_family(0.5),
                                   mode="f_form")
    assert rep.passed
    assert rep.rhs == pytest.approx(16 / math.sqrt(3), rel=1e-9)
    # q_form with the same power family must be weaker or equal (comparison
    # of concavity strengths), and the log shortcut weaker still
    repq = pb.reverse_isoperimetric(square, leb2, pb.power_family(0.5),
                                    mode="q_form")
    assert rep.rhs <= repq.rhs + 1e-9
    replog = pb.reverse_isoperimetric(square, leb2, pb.log_family())
    assert repq.rhs <= replog.rhs + 1e-9


def test_reverse_isoperimetric_guards(triangle, leb2, gauss2):
    with pytest.raises(pb.ConfigurationError):  # not isotropic
        pb.reverse_isoperimetric(triangle, leb2, pb.log_family())
    with pytest.raises(pb.ConfigurationError):  # gaussian is not s-concave
        pb.reverse_isoperimetric(pb.cube(2), gauss2, pb.power_family(0.5))
