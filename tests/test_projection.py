from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest

import projbodies as pb
from projbodies import projection
from scipy.spatial import ConvexHull
from conftest import gauss_edge_weight, nan_density


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


@pytest.mark.parametrize("N", [20_000, 2 * pb.numerics.MC_BLOCK + 999])
def test_tau_matches_masked_full_field(gauss2, stream, N):
    """tau, with the field evaluated at K's points only and a block of rows
    at a time, has the bits of the mean of the field at every box point
    times the membership mask."""
    K = pb.random_polytope(2, pb.RandomStream(31)).translate([0.4, -0.7])
    f = pb.radial_power(2, 1.5)
    off = pb.offset_vector(K, gauss2, f=f, stream=stream, N=N)

    box = pb.BoxSampler(*K.bounding_box())
    p = box.sample(stream.generator(), N)
    field = (f.eval(p)[:, None] * gauss2.grad(p)
             - gauss2.eval(p)[:, None] * f.grad(p)) * K.contains(p)[:, None]
    mean, budget = pb.numerics.mean_with_budget(field)
    assert off.value.tobytes() == (0.5 * (mean * box.measure)).tobytes()
    assert off.error_estimate == 0.5 * float(np.linalg.norm(budget * box.measure))


def test_tau_has_the_monte_carlo_guards(square, gauss2, stream):
    """tau needs N >= 1000 and a stream, and a NaN density raises rather than
    giving a NaN vector."""
    for kwargs in ({"stream": stream, "N": 500}, {"stream": None, "N": 2000}):
        with pytest.raises(pb.ConfigurationError):
            pb.offset_vector(square, gauss2, f=gauss2, **kwargs)
    with pytest.raises(pb.EvaluationError):
        pb.offset_vector(square, nan_density(2), f=gauss2, stream=stream, N=2000)


def test_tau_of_mu_itself_is_the_monte_carlo_zero_without_sampling(
        monkeypatch, gauss2, stream):
    """f is mu: f grad phi - phi grad f is exactly 0, so tau is the zero
    vector with error 0, the bits that sampling gives (a copy of mu is
    another object and still samples), and no point is drawn."""
    K = pb.random_polytope(2, pb.RandomStream(31)).translate([0.4, -0.7])
    sampled = pb.offset_vector(K, gauss2, f=dataclasses.replace(gauss2),
                               stream=stream, N=20_000)
    calls = []
    monkeypatch.setattr(projection, "_interior_vector",
                        lambda *args: calls.append(args))
    off = pb.offset_vector(K, gauss2, f=gauss2, stream=stream, N=20_000)
    assert calls == [] and off.which == sampled.which == "tau"
    assert off.value.tobytes() == sampled.value.tobytes() == np.zeros(2).tobytes()
    assert off.error_estimate == sampled.error_estimate == 0.0


def test_tau_of_a_density_labelled_like_mu_samples(monkeypatch, square, gauss2,
                                                    stream):
    """The shortcut keys on the object: a custom density labelled
    "gaussian" with the Gaussian's functions is sampled."""
    lookalike = pb.custom_density(2, gauss2.eval, gauss2.grad, label="gaussian",
                                  even=True, radially_decreasing=True)
    calls = []
    sample = projection._interior_vector
    monkeypatch.setattr(projection, "_interior_vector",
                        lambda *args: calls.append(args) or sample(*args))
    off = pb.offset_vector(square, gauss2, f=lookalike, stream=stream, N=20_000)
    assert len(calls) == 1 and off.which == "tau"


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


def test_exact_weights_build_one_polar_hull(monkeypatch, simplex3, square, gauss2):
    hulls = []

    def counting_hull(points):
        hulls.append(len(points))
        return ConvexHull(points)

    monkeypatch.setattr(projection, "ConvexHull", counting_hull)
    pv, err = pb.projection_zonoid(simplex3).polar_volume()
    assert len(hulls) == 1
    assert pv == pytest.approx(80 / 3, rel=1e-12, abs=0) and err == 0.0
    # weights with cubature errors still take the two bracket hulls
    pb.projection_zonoid(square, gauss2, tol=1e-9).polar_volume()
    assert len(hulls) == 4


def test_exact_polar_volume_domain(square):
    shifted = pb.projection_zonoid(square).with_offset([10.0, 0.0])
    with pytest.raises(pb.PolarDomainError):
        shifted.polar_volume()


def test_one_unresolved_weight_keeps_a_polar_bracket():
    """In the plane h at the normal of generator i does not involve w_i, so
    one weight below its error still leaves the clamped weights
    max(w - e, 0) a bounded polar: the bracket's wide end."""
    g = np.array([[1.0, 0.0], [0.0, 1.0], [math.sqrt(0.5), math.sqrt(0.5)]])
    w, e = np.array([1.0, 0.8, 1e-15]), np.array([1e-3, 2e-3, 3e-15])
    value, err = pb.Zonoid(2, g, w, weight_errors=e).polar_volume()
    polar = lambda weights: ConvexHull(pb.Zonoid(2, g, weights).polar_points()).volume
    assert value == polar(w)
    assert err == max(polar(np.maximum(w - e, 0.0)) - value, value - polar(w + e))
    assert 0.0 < err < 1e-2 * value


def test_unresolved_weight_has_no_polar_bracket():
    """A weight error at least the weight leaves no lower end of the bracket
    where the clamped weights leave the origin on the zonoid's boundary: a
    PrecisionError naming the facet, its weight and its error."""
    zon = pb.Zonoid(2, np.eye(2), np.array([1.0, 0.5]),
                    weight_errors=np.array([0.1, 0.5]))
    with pytest.raises(pb.PrecisionError,
                       match=r"facet 1 weight 5\.000e-01 has error 5\.000e-01.*tighten tol"):
        zon.polar_volume()


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
