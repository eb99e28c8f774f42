from __future__ import annotations

import math

import numpy as np
import pytest

import projbodies as pb
from projbodies.covariogram import _brightness_values, _pointwise_values, l1_norm


def test_exact_values(square, triangle):
    assert pb.covariogram_exact(square, [1.0, 0.0]) == pytest.approx(2.0)
    assert pb.covariogram_exact(square, [0.0, 0.0]) == pytest.approx(4.0)
    assert pb.covariogram_exact(triangle, [0.0, 0.0]) == pytest.approx(0.5)
    # simplex path: g(r e1) = 0.5 (1 - r)^2
    assert pb.covariogram_exact(triangle, [0.5, 0.0]) == pytest.approx(0.125)


def test_support_is_difference_body(triangle, stream):
    DK = pb.difference_body(triangle)
    gen = stream.generator()
    for _ in range(20):
        theta = gen.standard_normal(2)
        theta /= np.linalg.norm(theta)
        rho = pb.radial_many(DK, theta[None, :])[0]
        assert pb.covariogram_exact(triangle, 0.999999 * rho * theta) > 0
        assert pb.covariogram_exact(triangle, 1.000001 * rho * theta) == 0.0


def test_one_over_n_concavity_along_rays(square, triangle, stream):
    gen = stream.generator()
    for K in (square, triangle):
        DK = pb.difference_body(K)
        for _ in range(25):
            theta = gen.standard_normal(2)
            theta /= np.linalg.norm(theta)
            rho = pb.radial_many(DK, theta[None, :])[0]
            r1, r2 = np.sort(gen.random(2)) * rho
            g = [pb.covariogram_exact(K, r * theta) ** 0.5
                 for r in (r1, 0.5 * (r1 + r2), r2)]
            assert g[1] >= 0.5 * (g[0] + g[2]) - 1e-9


def test_simplex_affinity(triangle, stream):
    """For simplices g^{1/n} is affine along rays: chord deviation <= 1e-9."""
    gen = stream.generator()
    DK = pb.difference_body(triangle)
    for _ in range(50):
        theta = gen.standard_normal(2)
        theta /= np.linalg.norm(theta)
        rho = pb.radial_many(DK, theta[None, :])[0]
        rs = np.linspace(0, rho, 9)
        vals = np.array([pb.covariogram_exact(triangle, r * theta) ** 0.5
                         for r in rs])
        chord = vals[0] + (vals[-1] - vals[0]) * rs / rho
        assert np.max(np.abs(vals - chord)) <= 1e-9


def test_mu_covariogram_values(square, gauss2, stream):
    q = pb.CovariogramQuery(square, gauss2, stream=stream, N=200_000)
    res = pb.mu_covariogram(q, [0.0, 0.0])
    truth = (2 * pb.gaussian_cdf(1.0) - 1) ** 2
    assert abs(res.value - truth) <= res.error_estimate

    qp = pb.CovariogramQuery(square, gauss2, mode="polarized", stream=stream)
    res = pb.mu_covariogram(qp, [3.0, 0.0])  # outside DK
    assert res.value == 0.0
    res0 = pb.mu_covariogram(qp, [0.0, 0.0])
    assert abs(res0.value - truth) <= res0.error_estimate


def test_functional_covariogram_tensor_oracle(square, gauss2, stream):
    """g_{mu,phi}(K, 0) = integral of phi^2 over K, by tensor Gauss-Legendre."""
    nodes, weights = np.polynomial.legendre.leggauss(48)
    one_d = weights @ np.exp(-nodes ** 2)  # integral of e^{-t^2} over [-1,1]
    oracle = one_d ** 2 / (4 * math.pi ** 2)
    q = pb.CovariogramQuery(square, gauss2, f=gauss2, mode="functional",
                            stream=stream, N=400_000)
    res = pb.mu_covariogram(q, [0.0, 0.0])
    assert abs(res.value - oracle) <= res.error_estimate
    norm = l1_norm(gauss2, gauss2, square, stream)
    assert abs(norm.value - oracle) <= norm.error_estimate


def test_query_validation(square, gauss2):
    with pytest.raises(pb.ConfigurationError):
        pb.CovariogramQuery(square, gauss2, mode="functional")  # f missing
    with pytest.raises(pb.ConfigurationError):
        pb.CovariogramQuery(square, gauss2, f=gauss2, mode="polarized")
    with pytest.raises(pb.ConfigurationError):
        pb.CovariogramQuery(square, gauss2, mode="weird")


def test_evenness(square, gauss2, stream):
    q = pb.CovariogramQuery(square, gauss2, stream=stream)
    for x in ([0.4, 0.3], [0.8, -0.2]):
        a = pb.mu_covariogram(q, np.array(x))
        b = pb.mu_covariogram(q, -np.array(x))
        assert abs(a.value - b.value) <= a.error_estimate + b.error_estimate
    qp = pb.CovariogramQuery(square, gauss2, mode="polarized", stream=stream)
    a = pb.mu_covariogram(qp, np.array([0.7, 0.1]))
    b = pb.mu_covariogram(qp, np.array([-0.7, -0.1]))
    assert abs(a.value - b.value) <= a.error_estimate + b.error_estimate


def test_f_concavity_transfer(square, gauss2, leb2, stream):
    """Midpoint test on F o g for (gaussian, log) and (lebesgue, power(1/n))."""
    gen = stream.generator()
    DK = pb.difference_body(square)
    log_f = pb.log_family()
    pow_f = pb.power_family(0.5)
    for _ in range(10):
        theta = gen.standard_normal(2)
        theta /= np.linalg.norm(theta)
        rho = pb.radial_many(DK, theta[None, :])[0]
        r1, r2 = np.sort(gen.random(2)) * 0.85 * rho
        rm = 0.5 * (r1 + r2)
        q = pb.CovariogramQuery(square, gauss2, stream=stream, N=100_000)
        vals = [pb.mu_covariogram(q, r * theta) for r in (r1, rm, r2)]
        budget = sum(v.error_estimate / v.value for v in vals)  # log scale
        mid = math.log(vals[1].value)
        ends = 0.5 * (math.log(vals[0].value) + math.log(vals[2].value))
        assert mid >= ends - 3 * budget
        g = [pb.covariogram_exact(square, r * theta) for r in (r1, rm, r2)]
        assert pow_f.F(g[1]) >= 0.5 * (pow_f.F(g[0]) + pow_f.F(g[2])) - 1e-9


def test_brightness_exact(square, triangle):
    q = pb.CovariogramQuery(square)
    fd = pb.brightness_derivative(q, [1.0, 0.0])
    assert abs(fd.value + 2.0) <= 1e-6  # g = 4 - 2r along e1
    q = pb.CovariogramQuery(triangle)
    fd = pb.brightness_derivative(q, [1.0, 0.0])
    # Cauchy-formula oracle: h_{Pi T}(e1) = (1/2) sum A_i |<e1, u_i>| = 1
    assert abs(fd.value + 1.0) <= 1e-4


def test_brightness_gaussian(square, gauss2, stream):
    from conftest import gauss_edge_weight
    q = pb.CovariogramQuery(square, gauss2, stream=stream, N=400_000)
    fd = pb.brightness_derivative(q, [1.0, 0.0])
    assert abs(fd.value + gauss_edge_weight()) <= fd.error_estimate


def test_brightness_step_guard(square):
    q = pb.CovariogramQuery(square)
    with pytest.raises(pb.DomainError):
        pb.brightness_derivative(q, [1.0, 0.0], h=10.0)


def test_brightness_precision_error(square, gauss2, stream):
    q = pb.CovariogramQuery(square, gauss2, stream=stream, N=2000, tol=1e-9)
    with pytest.raises(pb.PrecisionError):
        pb.brightness_derivative(q, [1.0, 0.0])


def test_translated_average_identities(triangle, gauss2, leb2, stream):
    # integral of g_K against Lebesgue = Vol(K)^2, so mu_lambda = Vol(K)
    res = pb.translated_average("mu_lambda", triangle, mu=leb2, stream=stream)
    assert res.value == pytest.approx(0.5, abs=1e-12)
    # nu = Lebesgue: integral of g_{mu,K} dx = Vol(K) mu(K)
    res = pb.translated_average("nu_mu_body", triangle, mu=gauss2, nu=leb2,
                                stream=stream)
    assert abs(res.value - 0.5) <= res.error_estimate
    # functional, f = phi: integral of g_{mu,phi} dx = mu(K) * int_K phi,
    # normalized by int_K phi^2; oracle by 2-D quadrature
    from scipy.integrate import dblquad
    gamma_T, _ = dblquad(lambda y, x: math.exp(-(x * x + y * y) / 2)
                         / (2 * math.pi), 0, 1, 0, lambda x: 1 - x)
    phi2_T, _ = dblquad(lambda y, x: math.exp(-(x * x + y * y))
                        / (2 * math.pi) ** 2, 0, 1, 0, lambda x: 1 - x)
    fres = pb.translated_average("nu_mu_functional", triangle, mu=gauss2,
                                 nu=leb2, f=gauss2, stream=stream)
    assert abs(fres.value - gamma_T ** 2 / phi2_T) <= fres.error_estimate


def test_translated_average_gaussian_ball(stream, gauss2):
    """mu_lambda of a large disk under the Gaussian approaches 1.

    Exact oracle: mean over the disk of noncentral chi-square ball masses;
    at R = 20 the value is 0.96012 (the deficit decays like 0.8/R).
    """
    from scipy import integrate, stats
    R = 20.0
    oracle, _ = integrate.quad(
        lambda r: 2 * r * stats.ncx2.cdf(R * R, 2, (R * r) ** 2), 0, 1)
    big = pb.Ball(2, R)
    res = pb.translated_average("mu_lambda", big, mu=gauss2, stream=stream,
                                N=200_000)
    assert abs(res.value - oracle) <= res.error_estimate
    assert oracle == pytest.approx(0.96012, abs=1e-4)


def test_translated_average_guards(triangle, stream, gauss2):
    with pytest.raises(pb.ConfigurationError):
        pb.translated_average("mu_lambda", triangle, stream=stream)
    with pytest.raises(pb.ConfigurationError):
        pb.translated_average("nu_mu_body", triangle, mu=gauss2, stream=stream)
    with pytest.raises(pb.ConfigurationError):
        pb.translated_average("bogus", triangle, mu=gauss2, stream=stream)


def _three_contains_integrands(q, points, theta, h):
    """Integrands at steps {0, h/2, h} by testing the shifted points."""
    K, mu = q.K, q.mu
    base = K.contains(points)
    if q.mode == "polarized":
        phi = mu.eval(points)
        return [phi * base] + [
            phi * (K.contains(points + s * theta / 2.0)
                   & K.contains(points - s * theta / 2.0)) for s in (h / 2, h)]
    phi_base = mu.eval(points) * base
    if q.mode == "functional":
        return [q.f.eval(points) * phi_base] + [
            q.f.eval(points - s * theta) * phi_base * K.contains(points - s * theta)
            for s in (h / 2, h)]
    return [phi_base] + [phi_base * K.contains(points - s * theta)
                         for s in (h / 2, h)]


@pytest.mark.parametrize("mode", ["plain", "polarized", "functional"])
@pytest.mark.parametrize("n", [2, 3])
def test_brightness_values_match_three_contains(n, mode):
    stream = pb.RandomStream(4242)
    g = pb.gaussian(n)
    for i, symmetric in enumerate((False, True)):
        K = pb.random_polytope(n, stream.substream(10 * n + i), symmetric=symmetric)
        gen = stream.substream(100 + 10 * n + i).generator()
        theta = gen.standard_normal(n)
        theta /= np.linalg.norm(theta)
        h = 0.05 * K.diameter   # a wide step puts many points in the sliver
        lo, hi = K.bounding_box()
        points = lo - h + gen.random((50_000, n)) * (hi - lo + 2 * h)
        # on each facet hyperplane moved out by contains' tol, and one ulp
        # to either side: the base mask turns on the last bit there
        level = (K.offsets + 1e-9)[:, None] * K.normals
        points = np.vstack([points, level, np.nextafter(level, np.inf),
                            np.nextafter(level, -np.inf)])
        for mu in (g, pb.exp_norm(pb.cross_polytope(n))):
            q = pb.CovariogramQuery(K, mu, g if mode == "functional" else None,
                                    mode=mode)
            new = _brightness_values(q, points, theta, h)
            old = _three_contains_integrands(q, points, theta, h)
            for a, b in zip(new, old):
                assert a.tobytes() == b.tobytes()


def _two_contains_integrand(q, points, x):
    """Covariogram integrand by testing the shifted points."""
    K, mu = q.K, q.mu
    if q.mode == "polarized":
        inside = K.contains(points + x / 2.0) & K.contains(points - x / 2.0)
        return mu.eval(points) * inside
    inside = K.contains(points) & K.contains(points - x)
    if q.mode == "functional":
        return q.f.eval(points - x) * mu.eval(points) * inside
    return mu.eval(points) * inside


@pytest.mark.parametrize("mode", ["plain", "polarized", "functional"])
@pytest.mark.parametrize("n", [2, 3])
def test_pointwise_values_match_two_contains(n, mode):
    stream = pb.RandomStream(4343)
    g = pb.gaussian(n)
    for i, symmetric in enumerate((False, True)):
        K = pb.random_polytope(n, stream.substream(10 * n + i), symmetric=symmetric)
        gen = stream.substream(100 + 10 * n + i).generator()
        x = gen.standard_normal(n)
        x *= 0.2 * K.diameter / np.linalg.norm(x)
        lo, hi = K.bounding_box()
        points = lo + gen.random((50_000, n)) * (hi - lo)
        q = pb.CovariogramQuery(K, g, g if mode == "functional" else None, mode=mode)
        new = _pointwise_values(q, points, x)
        assert new.tobytes() == _two_contains_integrand(q, points, x).tobytes()
        assert np.count_nonzero(new) > 1000
