from __future__ import annotations

import dataclasses
import itertools
import math
import tracemalloc

import numpy as np
import pytest
from scipy.spatial import ConvexHull, QhullError

import projbodies as pb
from conftest import flux_free
from projbodies import covariogram
from projbodies.covariogram import (PrismSampler, _PairSampler, _breakpoints,
                                    _pointwise_values, _polar_average,
                                    _prism_quotients, _sampled_average,
                                    l1_norm, sample_uniform)
from projbodies.measures import product_flux
from projbodies.numerics import MC_BLOCK, row_blocks


def test_exact_values(square, triangle):
    assert pb.covariogram_exact(square, [1.0, 0.0]) == pytest.approx(2.0)
    assert pb.covariogram_exact(square, [0.0, 0.0]) == pytest.approx(4.0)
    assert pb.covariogram_exact(triangle, [0.0, 0.0]) == pytest.approx(0.5)
    # simplex path: g(r e1) = 0.5 (1 - r)^2
    assert pb.covariogram_exact(triangle, [0.5, 0.0]) == pytest.approx(0.125)


@pytest.mark.parametrize("n, index", [(3, 22), (2, 0)], ids=["3", "2"])
def test_covariogram_tiny_translations(n, index):
    """Near-duplicate intersection vertices at tiny x still give about Vol K,
    for a c04 body in space and in the plane."""
    K = pb.random_polytope(n, pb.RandomStream(424242).substream(index))
    theta = pb.sphere_directions(n, 6).directions[4]
    h = float(pb.projection_zonoid(K).support(theta[None, :])[0])
    for r in 10.0 ** np.arange(-12, -3):
        # g(r theta) = V - r h_{Pi K}(theta) + O(r^2)
        assert abs(K.volume - pb.covariogram_exact(K, r * theta) - r * h) <= 1e-12 + r * r * 1e3


def _brute_force_volume(K, x):
    """Vol(K ∩ (K + x)) from every n-subset of the 2m halfspaces of K and
    K + x: solve each nonsingular subset, keep the solutions in both bodies
    (to 1e-12 of the largest offset) and take the hull volume (0 when they
    span less than n dimensions)."""
    normals = np.vstack([K.normals, K.normals])
    offsets = np.r_[K.offsets, K.offsets + K.normals @ x]
    subsets = np.array(list(itertools.combinations(range(len(offsets)), K.n)))
    A = normals[subsets]
    ok = np.abs(np.linalg.det(A)) > 1e-12
    points = np.linalg.solve(A[ok], offsets[subsets[ok]][..., None])[..., 0]
    tol = 1e-12 * np.abs(K.offsets).max()
    points = points[np.all(normals @ points.T <= offsets[:, None] + tol, axis=0)]
    try:
        return ConvexHull(points).volume
    except (QhullError, ValueError):
        return 0.0


def _c04_bodies():
    stream = pb.RandomStream(424242)
    return ([pb.random_polytope(2, stream.substream(i)) for i in range(6)]
            + [pb.random_polytope(2, stream.substream(10 + i), symmetric=True)
               for i in range(6)]
            + [pb.random_polytope(3, stream.substream(20 + i)) for i in range(4)]
            + [pb.random_polytope(3, stream.substream(30 + i), symmetric=True)
               for i in range(4)])


def _brute_force_cases():
    gen = pb.RandomStream(424242 + 2).generator()
    for K in _c04_bodies() + [pb.cube(4)]:
        thetas = gen.standard_normal((2, K.n))
        thetas /= np.linalg.norm(thetas, axis=1, keepdims=True)
        rho = pb.radial_many(pb.difference_body(K), thetas)
        for theta, r in zip(thetas, rho):
            yield K, gen.uniform(0.05, 0.95) * r * theta
            yield K, (1.0 + 1e-9) * r * theta  # just outside DK
        yield K, np.zeros(K.n)
    cube = pb.cube(3)
    for x in ([1.0, 0.0, 0.0], [0.5, 0.0, 0.0], [1.0, 1.0, 0.0], [0.5, -1.5, 1.0],
              [2.0, 0.0, 0.0], [0.0, 0.0, 0.0]):
        yield cube, np.array(x)  # coinciding facets; at [2, 0, 0] a flat square


def test_covariogram_matches_brute_force_enumeration():
    """covariogram_exact and intersect_translate against every vertex of the
    halfspace arrangement, to 1e-13 Vol K: c04's bodies and cube(4) at two
    random translations in DK, two just outside it (0) and x = 0 (Vol K), and
    cube(3) at axis-aligned translations."""
    for K, x in _brute_force_cases():
        ref = _brute_force_volume(K, x)
        if not np.any(x):
            assert ref == pytest.approx(K.volume, rel=1e-13)
        g = pb.covariogram_exact(K, x)
        assert abs(g - ref) <= 1e-13 * K.volume
        inter = pb.intersect_translate(K, x)
        if ref == 0.0:
            assert g == 0.0 and inter is None
        else:
            assert abs(inter.volume - ref) <= 1e-13 * K.volume


def test_exact_brightness_is_the_first_piece_slope():
    """c04's 20 bodies and 16 directions each: d = -h_{Pi K} to 1e-12."""
    gen = pb.RandomStream(424242 + 1).generator()
    for K in _c04_bodies():
        thetas = gen.standard_normal((16, K.n))
        thetas /= np.linalg.norm(thetas, axis=1, keepdims=True)
        h = pb.projection_zonoid(K).support(thetas)
        for theta, h_theta in zip(thetas, h):
            fd = pb.brightness_derivative(pb.CovariogramQuery(K), theta)
            assert abs(fd.value + h_theta) <= min(1e-12 * h_theta, fd.error_estimate)


# value.hex() and error_estimate.hex() of the exact slope on c04's 12
# polygons and cube(3), two directions each (drawn below): the bits the slope
# had when each ray was fitted alone, which fitting stacks must keep.
_EXACT_SLOPE_BITS = (
    (("-0x1.64247d27c4800p+1", "0x1.e271306427529p-43"),
     ("-0x1.8933bd9c17a62p+1", "0x1.fc89e66357503p-43")),
    (("-0x1.451233d1ff1adp+1", "0x1.7f843695202aap-42"),
     ("-0x1.c51ec6ff4beadp+1", "0x1.8933038a8e722p-42")),
    (("-0x1.aa63d4104693ep+1", "0x1.0c4cee26375f3p-41"),
     ("-0x1.e473eba3a8997p+1", "0x1.addefbc8cdb51p-42")),
    (("-0x1.38b2010560655p+0", "0x1.4519527b202dfp-42"),
     ("-0x1.0f44fbf512a73p+2", "0x1.911d8d5c6a0dbp-42")),
    (("-0x1.d26bb66fa61f6p+1", "0x1.f3d95bbda7468p-41"),
     ("-0x1.d0d1e5974a1a9p+1", "0x1.ec0f71c25dd4fp-41")),
    (("-0x1.041cffa0ff6c4p+1", "0x1.ec4ac62d60649p-43"),
     ("-0x1.8881181d8ef12p+1", "0x1.97a06ac5a3d20p-42")),
    (("-0x1.ddda5279c63b6p+1", "0x1.305bc36983d16p-41"),
     ("-0x1.1e8614aa3fe2ap+2", "0x1.3742df3aa54a7p-41")),
    (("-0x1.29d5db90f12c8p+2", "0x1.65256be688cdap-38"),
     ("-0x1.2c390a07904e1p+2", "0x1.8fa272f395a6ep-38")),
    (("-0x1.375d9a3cafd95p+2", "0x1.6d9d8c1a642d0p-42"),
     ("-0x1.03acf8d3fe257p+2", "0x1.856b9f653162dp-42")),
    (("-0x1.b28fd6fb9e03ap+1", "0x1.257be6fe28ab7p-41"),
     ("-0x1.891284b2c710fp+1", "0x1.ed136ca24c276p-41")),
    (("-0x1.bd0d78ebc79adp+1", "0x1.0fc84caf117c4p-42"),
     ("-0x1.3577b8014e37dp+1", "0x1.cc196ea399dbap-43")),
    (("-0x1.de73d8507be66p+1", "0x1.5a3fb0bef1cedp-41"),
     ("-0x1.381a68f5f11b5p+2", "0x1.89fdfd73e9255p-41")),
    (("-0x1.41743f9ac9255p+2", "0x1.36ed1838f8c16p-40"),
     ("-0x1.af09690a9b45ap+2", "0x1.cf6ec96085541p-41")),
)


def test_exact_brightness_keeps_its_bits():
    """The exact slope fits the unit ray of ``brightness_derivative``'s one
    ``_unit_rays`` call (on a theta already normalised here) and keeps the
    recorded value and error bits."""
    gen = np.random.default_rng(2323)
    for K, bits in zip(_c04_bodies()[:12] + [pb.cube(3)], _EXACT_SLOPE_BITS):
        thetas = gen.standard_normal((2, K.n))
        thetas /= np.linalg.norm(thetas, axis=1, keepdims=True)
        for theta, (value, error) in zip(thetas, bits):
            fd = pb.brightness_derivative(pb.CovariogramQuery(K), theta)
            assert (fd.value.hex(), fd.error_estimate.hex()) == (value, error)


def _plan_queries(K):
    """The brightness modes of one direction in the benchmark's order: exact,
    plain, polarized (symmetric bodies), functional gamma x gamma; then a
    cusped mu, whose slope stops at ``_analytic_reach`` (another stack)."""
    g = pb.gaussian(K.n)
    modes = [(None, None, "plain"), (g, None, "plain")]
    if K.is_symmetric():
        modes.append((g, None, "polarized"))
    modes += [(g, g, "functional"), (pb.radial_power(K.n, 0.5), None, "plain")]
    return [pb.CovariogramQuery(K, mu, f, mode=mode) for mu, f, mode in modes]


def test_ray_plans_change_no_bit():
    """Every brightness derivative on a body that keeps a ray plan equals
    the one on a fresh ``build_polytope(K.vertices)``, which has none: an
    asymmetric and a symmetric c04 polygon with directions theta_1, theta_2,
    theta_1 in turn and every mode at each, and a sampled 3-D query beside
    the exact one."""
    c04 = _c04_bodies()
    gen = np.random.default_rng(2828)
    cases = [(K, _plan_queries(K)) for K in (c04[2], c04[10])]
    K3, g3 = c04[13], pb.gaussian(3)
    cases.append((K3, [pb.CovariogramQuery(K3),
                       pb.CovariogramQuery(K3, g3, stream=pb.RandomStream(7), N=20_000)]))
    for K, queries in cases:
        fresh = pb.build_polytope(K.vertices)
        for name in ("vertices", "normals", "offsets", "facet_simplices"):
            assert getattr(fresh, name).tobytes() == getattr(K, name).tobytes()
        thetas = gen.standard_normal((2, K.n))
        thetas /= np.linalg.norm(thetas, axis=1, keepdims=True)
        for theta in thetas[[0, 1, 0]]:
            for q in queries:
                got = pb.brightness_derivative(q, theta)
                ref = pb.brightness_derivative(
                    dataclasses.replace(q, K=pb.build_polytope(K.vertices)), theta)
                assert got == ref, (q.mode, q.mu.label)
        assert K._ray_plan.key == theta.tobytes()
    assert cases[1][0]._ray_plan.clip is not None   # a clip was kept


def test_a_body_keeps_one_ray_plan(monkeypatch):
    """After 50 directions a body holds one plan, the last direction's.  The
    modes at one direction normalise it with one ``_unit_rays`` call and
    clip its Chebyshev stack once.  ``mu_covariogram`` never reads the
    plan: with the kept areas zeroed, it gives the plan's own stack and
    others a fresh body's bits, and the plan keeps its clip."""
    K = _c04_bodies()[10]
    queries = _plan_queries(K)
    plain = queries[1]
    for angle in np.linspace(0.0, 2.0 * np.pi, 50, endpoint=False):
        theta = np.array([np.cos(angle), np.sin(angle)])
        pb.brightness_derivative(plain, theta)
    plans = [v for v in vars(K).values() if isinstance(v, covariogram._RayPlan)]
    assert len(plans) == 1 and plans[0].key == theta.tobytes()

    stacks, clipped = [], covariogram._clipped_edges
    monkeypatch.setattr(covariogram, "_clipped_edges",
                        lambda K, xs: stacks.append(xs.copy()) or clipped(K, xs))
    normalised, unit_rays = [], covariogram._unit_rays
    monkeypatch.setattr(covariogram, "_unit_rays",
                        lambda K, t: normalised.append(t) or unit_rays(K, t))
    theta = np.array([0.6, -0.8])
    cusp = pb.CovariogramQuery(K, pb.radial_power(2, 0.5), pb.gaussian(2), mode="functional",
                               stream=pb.RandomStream(7), N=2_000)
    assert cusp.sampled
    for q in queries + [cusp]:
        pb.brightness_derivative(q, theta)
    assert len(normalised) == 1
    plan = K._ray_plan
    assert sum(xs.tobytes() == plan.stack.tobytes() for xs in stacks) == 1

    poisoned = [(x, sides, 0.0 * area, shift) for x, sides, area, shift in plan.clip]
    plan.clip = poisoned
    fresh = dataclasses.replace(plain, K=pb.build_polytope(K.vertices))
    for xs in (plan.stack, plan.stack[::-1], plan.stack[:5], 0.5 * plan.stack):
        assert pb.mu_covariogram(plain, xs) == pb.mu_covariogram(fresh, xs)
    assert plan.clip is poisoned
    assert pb.mu_covariogram(plain, plan.stack)[0].value > 0.0


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


def test_evenness(square, gauss2):
    """r(x) = r(-x) on any polygon, and g(x) = g(-x) on symmetric ones under
    an even mu (K ∩ (K - x) = -(K ∩ (K + x)) there), within the two
    budgets."""
    gen = np.random.default_rng(1919)
    c04 = _c04_bodies()
    for K in (square, c04[10], c04[2]):
        xs = gen.uniform(-0.8, 0.8, (20, 2)) * K.diameter / 2.0
        for mode in ("plain", "polarized") if K.is_symmetric() else ("polarized",):
            for mu in (gauss2, pb.radial_power(2, 0.5)):
                q = pb.CovariogramQuery(K, mu, mode=mode)
                for a, b in zip(pb.mu_covariogram(q, xs), pb.mu_covariogram(q, -xs)):
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
    q = pb.CovariogramQuery(square, flux_free(gauss2), stream=stream, N=400_000)
    fd = pb.brightness_derivative(q, [1.0, 0.0])
    assert abs(fd.value + gauss_edge_weight()) <= fd.error_estimate


def test_only_the_monte_carlo_brightness_takes_a_step(gauss2, stream):
    """A needle 2 x 0.002 across its width: the Monte Carlo step 1e-3 diam K
    exceeds rho_DK / 4 = 0.0005 there, so a sampled query raises
    ``DomainError``, while the deterministic derivatives, which take no
    step, meet -h of the matching projection body within their budgets."""
    K = pb.build_polytope([[-1, -0.001], [1, -0.001], [1, 0.001], [-1, 0.001]])
    theta = np.array([[0.0, 1.0]])
    fd = pb.brightness_derivative(pb.CovariogramQuery(K), theta[0])
    h = pb.projection_zonoid(K).support(theta)[0]
    assert abs(fd.value + h) <= fd.error_estimate < 1e-12
    for mode in ("plain", "polarized", "functional"):
        f = gauss2 if mode == "functional" else None
        q = pb.CovariogramQuery(K, gauss2, f, mode=mode)
        assert not q.sampled
        fd = pb.brightness_derivative(q, theta[0])
        # K and gamma_2 are even, so eta = 0, and f = mu gives tau = 0
        h = pb.projection_zonoid(K, gauss2, f, tol=1e-12).support(theta)[0]
        assert abs(fd.value + h) <= fd.error_estimate < 1e-4 * h
        q = pb.CovariogramQuery(K, flux_free(gauss2), f, mode=mode, stream=stream)
        with pytest.raises(pb.DomainError, match="rho_DK/4 = 0.0005"):
            pb.brightness_derivative(q, theta[0])


def test_brightness_precision_error(square, gauss2, stream):
    """A budget over tol raises; the Monte Carlo message asks for a larger
    N, the deterministic one names the tolerance its values were taken at."""
    q = pb.CovariogramQuery(square, flux_free(gauss2), stream=stream, N=2000, tol=1e-9)
    with pytest.raises(pb.PrecisionError, match="increase N"):
        pb.brightness_derivative(q, [1.0, 0.0])
    for f, mode in ((None, "plain"), (None, "polarized"), (gauss2, "functional")):
        q = pb.CovariogramQuery(square, gauss2, f, mode=mode, N=2000, tol=1e-12)
        with pytest.raises(pb.PrecisionError,
                           match="values were taken at tol 1.0e-12 each") as info:
            pb.brightness_derivative(q, [0.8, 0.6])
        assert "increase N" not in str(info.value)


@pytest.mark.parametrize("mode", ["plain", "polarized", "functional"])
def test_mc_brightness_has_the_monte_carlo_guards(square, gauss2, stream, mode):
    """The Monte Carlo brightness needs a stream and N >= 1000, and a density
    that is NaN on the sliver (the only points the kernel evaluates it at)
    raises rather than returning a NaN value and budget."""
    from conftest import nan_density
    g = flux_free(gauss2)
    f = g if mode == "functional" else None
    for kwargs in ({"stream": stream, "N": 500}, {"stream": None, "N": 2000}):
        q = pb.CovariogramQuery(square, g, f, mode=mode, **kwargs)
        with pytest.raises(pb.ConfigurationError):
            pb.brightness_derivative(q, [1.0, 0.0])
    q = pb.CovariogramQuery(square, nan_density(2), f, mode=mode,
                            stream=stream, N=2000)
    with pytest.raises(pb.EvaluationError):
        pb.brightness_derivative(q, [1.0, 0.0])


def test_l1_norm_without_a_stream_is_a_configuration_error(square, gauss2):
    with pytest.raises(pb.ConfigurationError):
        pb.covariogram.l1_norm(gauss2, gauss2, square, None)


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
    # the sampled pair averages keep monte_carlo's stream and N >= 1000 guards
    cube3, g3 = pb.cube(3), pb.gaussian(3)
    for kwargs in ({"N": 999, "stream": stream}, {"stream": None}):
        with pytest.raises(pb.ConfigurationError):
            pb.translated_average("nu_mu_body", cube3, mu=g3, nu=g3, **kwargs)
        with pytest.raises(pb.ConfigurationError):
            pb.translated_average("mu_lambda", cube3, mu=g3, **kwargs)


def test_translated_average_rejects_non_finite_pair_values(stream):
    """A pair value that is not finite raises EvaluationError at that pair."""
    g3 = pb.gaussian(3)

    def ev(p):
        out = g3.eval(p)
        out[np.all(p > 0.0, axis=1)] = np.nan   # nan for y - w in the open octant
        return out

    mu = dataclasses.replace(g3, eval=ev, label="nan-octant")
    with pytest.raises(pb.EvaluationError) as err:
        pb.translated_average("mu_lambda", pb.cube(3), mu=mu, stream=stream,
                              N=1000)
    y, w = err.value.point
    assert np.all(y - w > 0.0)


# -- the planar polar route of translated_average -----------------------------

def _planar_bodies():
    return ([pb.cube(2), pb.standard_simplex(2)]
            + [K for K in _c04_bodies() if K.n == 2])


def test_polygon_covariogram_matches_the_exact_covariogram():
    """The clipped-edge g_K of a stack of translations against the qhull
    volume of ``intersect_translate``, one translation at a time (0 where it
    is None): inside DK, on its boundary (g = 0) and beyond it."""
    gen = np.random.default_rng(1818)
    for K in _planar_bodies():
        thetas = gen.standard_normal((120, 2))
        thetas /= np.linalg.norm(thetas, axis=1, keepdims=True)
        rho = pb.radial_many(pb.difference_body(K), thetas)
        scale = np.r_[gen.uniform(0.0, 1.0, 80), np.ones(20), gen.uniform(1.0, 1.2, 20)]
        xs = thetas * (scale * rho)[:, None]
        exact = np.array([getattr(pb.intersect_translate(K, x), "volume", 0.0)
                          for x in xs])
        batched = pb.covariogram_exact(K, xs)
        assert np.max(np.abs(batched - exact)) <= 4e-15 * K.volume
        assert np.all(batched[80:] == 0.0)


def test_polygon_covariogram_counts_coincident_edges_once(square):
    """Along the axes of cube(2) an edge of K + x lies on the parallel edge
    of K; the tie-break keeps one of the two, so g = 2 (2 - |t|) exactly,
    and on the diagonal g = (2 - |t|)^2.  Along e_1 the standard simplex keeps
    g = (1 - t)^2 / 2 exactly at dyadic t."""
    t = np.linspace(-2.0, 2.0, 33)
    s = np.arange(33) / 32.0
    for K, xs, ref in ((square, np.c_[t, 0 * t], 2.0 * (2.0 - np.abs(t))),
                       (square, np.c_[0 * t, t], 2.0 * (2.0 - np.abs(t))),
                       (square, np.c_[t, t], (2.0 - np.abs(t)) ** 2),
                       (pb.standard_simplex(2), np.c_[s, 0 * s], (1.0 - s) ** 2 / 2.0)):
        assert np.array_equal(pb.covariogram_exact(K, xs), ref)


def test_covariogram_stack_matches_one_call_per_translation():
    """A stack through ``covariogram_exact`` gives, bit for bit, the floats
    of one call per translation: c04's polygons (the clip) and cube(3)
    (the hull volumes)."""
    gen = np.random.default_rng(2121)
    for K in [K for K in _c04_bodies() if K.n == 2] + [pb.cube(3)]:
        thetas = gen.standard_normal((24, K.n))
        thetas /= np.linalg.norm(thetas, axis=1, keepdims=True)
        rho = pb.radial_many(pb.difference_body(K), thetas)
        xs = thetas * (gen.uniform(0.0, 1.1, 24) * rho)[:, None]
        stack = pb.covariogram_exact(K, xs)
        single = [pb.covariogram_exact(K, x) for x in xs]
        assert all(type(g) is float for g in single)
        assert stack.tobytes() == np.array(single).tobytes()


@pytest.mark.parametrize("index", [2, 16], ids=["pentagon", "3d"])
def test_breakpoints_of_a_stack_match_one_direction_at_a_time(index):
    """``_breakpoints`` on 16 directions at once gives, bit for bit, the
    pieces of 16 one-direction calls, so mean bodies, the brightness
    derivative and the polar rule see the same pieces in any blocking."""
    K = _c04_bodies()[index]
    gen = np.random.default_rng(2122)
    thetas = gen.standard_normal((16, K.n))
    thetas /= np.linalg.norm(thetas, axis=1, keepdims=True)
    rho = pb.radial_many(pb.difference_body(K), thetas)
    a, b, ray = _breakpoints(K, thetas, rho)
    assert np.array_equal(np.unique(ray), np.arange(16))
    for i in range(16):
        one = _breakpoints(K, thetas[i:i + 1], rho[i:i + 1])
        assert np.array_equal(one[2], np.zeros(len(one[0]), dtype=int))
        assert a[ray == i].tobytes() == one[0].tobytes()
        assert b[ray == i].tobytes() == one[1].tobytes()
        assert a[ray == i][0] == 0.0 and b[ray == i][-1] == rho[i]
        assert len(one[0]) > 1


@pytest.mark.parametrize("index", range(14),
                         ids=[f"c04_{i}" for i in range(12)] + ["cube3", "random3"])
def test_ray_pieces_of_a_stack_match_one_direction_at_a_time(index):
    """16 directions in one ``ray_pieces`` call give, bit for bit, the pieces
    of 16 one-direction calls: the unit rays, rho_DK, the breakpoints, the
    covariogram values and each piece's c_k do not depend on the stack."""
    K = (_c04_bodies()[:12] + [pb.cube(3), pb.random_polytope(
        3, pb.RandomStream(424242).substream(22))])[index]
    thetas = np.random.default_rng(2123).standard_normal((16, K.n))
    whole = pb.ray_pieces(K, thetas)
    for i, theta in enumerate(thetas):
        one = pb.ray_pieces(K, theta)
        assert np.array_equal(one.ray, np.zeros(len(one.a), dtype=int))
        for field in ("a", "b", "coefficients", "residual"):
            mine = getattr(whole, field)[whole.ray == i]
            assert mine.tobytes() == getattr(one, field).tobytes(), (i, field)


def _gaussian_square_average(R):
    """(1/4R^2) ∫ (2R - |x_1|)(2R - |x_2|) phi(x_1) phi(x_2) dx over
    DK = [-2R, 2R]^2 for K = R [-1, 1]^2: the square of ∫_{-2R}^{2R}
    (2R - |t|) phi(t) dt = 2R erf(sqrt 2 R) - 2 (phi(0) - phi(2R)), over 4R^2.
    phi(0) - phi(2R) = -phi(0) expm1(-2R^2) keeps its digits at small R."""
    phi0 = 1.0 / math.sqrt(2.0 * math.pi)
    line = 2.0 * R * math.erf(math.sqrt(2.0) * R) + 2.0 * phi0 * math.expm1(-2.0 * R * R)
    return line ** 2 / (4.0 * R * R)


def _second_moment_average(K):
    """(1/Vol K) ∫ g_K |x|^2 dx = Vol K E|Y - W|^2 = 2 Vol K tr Cov(K), from
    the exact polygon moments (shoelace sums over the vertices in angle order)."""
    c = K.vertices.mean(axis=0)
    v = K.vertices[np.argsort(np.arctan2(*(K.vertices - c).T[::-1]))]
    x, y = v.T
    xn, yn = np.roll(x, -1), np.roll(y, -1)
    cross = x * yn - xn * y
    area = cross.sum() / 2.0
    mean = np.array([((x + xn) * cross).sum(), ((y + yn) * cross).sum()]) / (6.0 * area)
    second = ((x * x + x * xn + xn * xn + y * y + y * yn + yn * yn) * cross).sum() / 12.0
    return 2.0 * area * (second / area - mean @ mean)


@pytest.mark.parametrize("R", [1.0, 8.0, 30.0, 1e4, 1e8, 1e30])
def test_polar_average_of_the_gaussian_on_a_square_meets_the_closed_form(R, gauss2):
    """From the unit square to one 10^30 times the Gaussian's scale, whose
    mass sits in the first 10^-30 of each ray: the radial moments are exact,
    so no radial node can miss it."""
    res = pb.translated_average("mu_lambda", pb.cube(2).scale(R), mu=gauss2, tol=1e-12)
    ref = _gaussian_square_average(R)
    assert abs(res.value - ref) <= res.error_estimate <= 1e-12
    assert abs(res.value - ref) <= 4e-15


@pytest.mark.parametrize("R", [1e-4, 1e-8])
def test_polar_average_on_a_tiny_square_keeps_its_relative_digits(R, gauss2):
    """Vol K = 4R^2 is far below 1 and so is every g_K; the roundoff floor is
    relative to Vol K, so the average is about Vol K phi(0) and not 0."""
    res = pb.translated_average("mu_lambda", pb.cube(2).scale(R), mu=gauss2, tol=1e-9)
    ref = _gaussian_square_average(R)
    assert ref == pytest.approx(4.0 * R * R / (2.0 * math.pi), rel=1e-6)
    assert abs(res.value - ref) <= res.error_estimate <= 1e-9
    assert abs(res.value - ref) <= 1e-14 * ref


@pytest.mark.parametrize("K", _planar_bodies(), ids=lambda K: f"m{K.facet_count}")
def test_polar_average_budgets_cover_exact_moments(K):
    """|x|^0 gives Vol K and |x|^2 gives 2 Vol K tr Cov(K); each budget covers
    the gap to these references, at the default tol and at 1e-12 (where the
    relative floor of 1e-12 of the value may take over).  Polygons with more
    vertices than ``translated_average`` routes here are run directly."""
    for alpha, ref in ((0.0, K.volume), (2.0, _second_moment_average(K))):
        for tol in (1e-9, 1e-12):
            res = _polar_average(K, pb.radial_power(2, alpha), tol)
            assert abs(res.value - ref) <= res.error_estimate
            assert res.error_estimate <= max(tol, 1e-12 * res.value)
            assert abs(res.value - ref) <= 1e-13 * ref


@pytest.mark.parametrize("alpha", [1.0, 0.5])
def test_polar_average_agrees_with_pooled_monte_carlo(alpha):
    """|x| and |x|^0.5 on an irregular c04 pentagon: within three pooled
    standard errors of 2M pairs of uniform points (ten runs of 200k)."""
    K = pb.random_polytope(2, pb.RandomStream(424242).substream(2))
    assert len(K.vertices) == 5
    mu = pb.radial_power(2, alpha)
    res = pb.translated_average("mu_lambda", K, mu=mu)
    runs = [_sampled_average("mu_lambda", K, mu=mu, stream=pb.RandomStream(1818, i))
            for i in range(10)]
    pooled = np.mean([r.value for r in runs])
    three_sigma = np.sqrt(np.mean([r.error_estimate ** 2 for r in runs]) / len(runs))
    assert abs(res.value - pooled) <= three_sigma + res.error_estimate
    assert res.error_estimate <= 1e-9 * res.value


def test_fractional_powers_need_no_more_nodes_than_integer_ones(triangle):
    """|x|^alpha is singular at 0 for fractional alpha; |x|^0.25 and |x|^0.5
    meet tol with the first rules, as |x| does."""
    counts = {alpha: pb.translated_average("mu_lambda", triangle,
                                           mu=pb.radial_power(2, alpha)).evaluations
              for alpha in (0.25, 0.5, 1.0)}
    assert counts[0.25] == counts[0.5] == counts[1.0]


def test_lebesgue_nu_mu_body_is_mu_lambda_under_nu(triangle, leb2):
    """g_{lambda,K} = g_K and lambda(K) = Vol K: the same integral, bit for
    bit, and no stream is needed."""
    K = pb.random_polytope(2, pb.RandomStream(424242).substream(3))
    for body in (triangle, K):
        for nu in (pb.radial_power(2, 1.0), pb.gaussian(2)):
            two = pb.translated_average("nu_mu_body", body, mu=leb2, nu=nu)
            one = pb.translated_average("mu_lambda", body, mu=nu)
            assert two == one


def test_lebesgue_mu_lambda_is_the_volume(monkeypatch):
    """(1/Vol K) ∫ g_K dx = Vol K for every body, with no sampling."""
    monkeypatch.setattr(covariogram, "sample_uniform", None)
    for K in (pb.standard_simplex(2), pb.cube(3), pb.Ball(3, 0.7)):
        res = pb.translated_average("mu_lambda", K, mu=pb.lebesgue(K.n))
        assert (res.value, res.error_estimate, res.evaluations) == (pb.volume(K), 0.0, 0)


def test_translated_average_keeps_monte_carlo_bits_off_the_route(triangle, gauss2):
    """3-D bodies, balls, densities without a flux (custom, even one labelled
    "gaussian", composed, exp_norm), a non-Lebesgue mu in nu_mu_body and
    the functional kind stay on the Monte Carlo kernel, bit for bit."""
    stream, N = pb.RandomStream(1819), 20_000
    lookalike = pb.custom_density(2, gauss2.eval, gauss2.grad, label="gaussian",
                                  even=True, radially_decreasing=True)
    rp = pb.radial_power(2, 1.0)
    cases = [
        ("mu_lambda", pb.standard_simplex(3), {"mu": pb.gaussian(3)}),
        ("mu_lambda", pb.Ball(2, 1.5), {"mu": gauss2}),
        ("mu_lambda", triangle, {"mu": lookalike}),
        ("mu_lambda", triangle, {"mu": pb.compose_linear(gauss2, np.diag([1.0, 2.0]))}),
        ("mu_lambda", triangle, {"mu": pb.exp_norm(pb.cube(2))}),
        ("nu_mu_body", triangle, {"mu": gauss2, "nu": rp}),
        ("nu_mu_body", triangle, {"mu": pb.lebesgue(2), "nu": lookalike}),
        ("nu_mu_functional", triangle, {"mu": pb.lebesgue(2), "nu": rp, "f": gauss2}),
    ]
    for kind, K, kw in cases:
        res = pb.translated_average(kind, K, stream=stream, N=N, **kw)
        ref = _sampled_average(kind, K, stream=stream, N=N, **kw)
        assert res == ref and res.evaluations in (N, 2 * N)


def _ellipse_polygon(m):
    """An irregular m-gon: m vertices at uneven angles on an ellipse."""
    angles = np.sort(np.random.default_rng(m).uniform(0.0, 2.0 * np.pi, m))
    K = pb.build_polytope(np.c_[1.5 * np.cos(angles), np.sin(angles)])
    assert len(K.vertices) == m
    return K


@pytest.mark.parametrize("K", [_ellipse_polygon(7), _ellipse_polygon(8),
                               pb.regular_polygon(256)],
                         ids=lambda K: f"m{len(K.vertices)}")
def test_translated_average_routes_by_vertex_count(K, gauss2, leb2):
    """The polar route's work grows much faster with the vertex count than
    sampling's: up to seven vertices it is taken (no stream needed), beyond
    that mu_lambda and a Lebesgue nu_mu_body keep the Monte Carlo bits."""
    stream, N = pb.RandomStream(1820), 2_000
    for kind, kw in (("mu_lambda", {"mu": gauss2}),
                     ("nu_mu_body", {"mu": leb2, "nu": gauss2})):
        res = pb.translated_average(kind, K, stream=stream, N=N, **kw)
        if len(K.vertices) <= covariogram._POLAR_MAX_VERTICES:
            assert res == _polar_average(K, gauss2, 1e-9)
        else:
            assert res == _sampled_average(kind, K, stream=stream, N=N, **kw)


def test_polar_rule_blocks_match_one_batch(monkeypatch, gauss2):
    """Rays, pieces and translations taken a few hundred at a time give the
    rule of one batch, up to the order of the sums."""
    K = _ellipse_polygon(5)
    for mu in (gauss2, pb.radial_power(2, 0.5)):
        whole = _polar_average(K, mu, 1e-9)
        with monkeypatch.context() as patch:
            patch.setattr(covariogram, "_POLAR_BLOCK", 4096)
            blocked = _polar_average(K, mu, 1e-9)
        assert blocked.evaluations == whole.evaluations
        assert blocked.value == pytest.approx(whole.value, rel=1e-14)
        assert blocked.error_estimate == pytest.approx(whole.error_estimate,
                                                       rel=1e-6, abs=1e-15)


@pytest.mark.parametrize("n", [2, 3])
def test_blocked_translated_average_matches_whole_array(n):
    """Over 2.3 blocks of rows, every kind has the bits of its integrand
    evaluated on the whole (N,) arrays at once.  A planar Gaussian mu_lambda
    is deterministic in ``translated_average``, so its Monte Carlo kernel is
    called directly."""
    K = pb.random_polytope(n, pb.RandomStream(424242).substream(20 if n == 3 else 0))
    mu, nu, f = pb.gaussian(n), pb.radial_power(n, 1.0), pb.gaussian(n)
    N, stream = 2 * MC_BLOCK + 9_000, pb.RandomStream(61)
    gen = stream.generator()
    ys = sample_uniform(K, gen, np.empty((N, n)))
    ws = sample_uniform(K, gen, np.empty((N, n)))
    vol = K.volume
    res = _sampled_average("mu_lambda", K, mu=mu, stream=stream, N=N)
    mean, err = pb.numerics.mean_with_budget(mu.eval(ys - ws) * vol)
    assert (res.value, res.error_estimate) == (mean, err)
    den = pb.measure_body(mu, K, stream.substream(1), N)
    res = pb.translated_average("nu_mu_body", K, mu=mu, nu=nu, stream=stream, N=N)
    num, num_err = pb.numerics.mean_with_budget(
        mu.eval(ys) * nu.eval(ys - ws) * vol * vol)
    assert res.value == num / den.value
    assert res.error_estimate == (num_err / den.value
                                  + abs(num) * den.error_estimate / den.value ** 2)
    den = l1_norm(f, mu, K, stream.substream(1), N)
    res = pb.translated_average("nu_mu_functional", K, mu=mu, nu=nu, f=f,
                                stream=stream, N=N)
    num, _ = pb.numerics.mean_with_budget(
        mu.eval(ys) * f.eval(ws) * nu.eval(ys - ws) * vol * vol)
    assert res.value == num / den.value


def _chunk_rows(body, count):
    """Candidates per chunk in sample_uniform: 1.3 times the expected need."""
    lo, hi = body.bounding_box()
    box = pb.BoxSampler(lo, hi)
    return box, int(min(4_000_000, max(1024, count * box.measure / body.volume * 1.3)))


def _whole_chunk_sample_uniform(body, gen, count):
    """Rejection sampling that draws and tests each chunk in one piece."""
    box, chunk = _chunk_rows(body, count)
    out = np.empty((count, body.n))
    have = 0
    while have < count:
        cand = box.sample(gen, chunk)
        acc = cand[body.contains(cand)]
        take = min(count - have, len(acc))
        out[have:have + take] = acc[:take]
        have += take
    return out


@pytest.mark.parametrize("body, count", [
    ("square", 200_000), ("triangle", 200_000), ("simplex3", 200_000),
    ("simplex4", 200_000),   # two 4M-row chunks
    ("triangle", 300), ("simplex3", 100),   # one chunk of the 1024-row minimum
])
def test_sample_uniform_matches_whole_chunk_rejection(body, count):
    """Blocks, the early stop and the skip over the untested rows leave the
    points and the generator's next draws byte-equal to whole chunks."""
    K = {"square": pb.cube(2), "triangle": pb.standard_simplex(2),
         "simplex3": pb.standard_simplex(3), "simplex4": pb.standard_simplex(4)}[body]
    stream = pb.RandomStream(7373, count)
    gen, ref_gen = stream.generator(), stream.generator()
    out = np.empty((count, K.n))
    points = sample_uniform(K, gen, out)
    ref = _whole_chunk_sample_uniform(K, ref_gen, count)
    assert points is out
    assert points.tobytes() == ref.tobytes()
    assert gen.bit_generator.state == ref_gen.bit_generator.state
    assert gen.random(64).tobytes() == ref_gen.random(64).tobytes()


def test_sample_uniform_stops_testing_at_the_block_of_the_last_kept(
        triangle, monkeypatch):
    """Rows tested = the whole-chunk position of the N-th accepted
    candidate, rounded up to the end of its MC_BLOCK block."""
    N, stream = 200_000, pb.RandomStream(7474)
    tested = []
    contains = pb.Polytope.contains

    def counting(self, points, tol=1e-9):
        tested.append(len(points))
        return contains(self, points, tol)

    monkeypatch.setattr(pb.Polytope, "contains", counting)
    sample_uniform(triangle, stream.generator(), np.empty((N, 2)))
    monkeypatch.undo()

    box, chunk = _chunk_rows(triangle, N)
    accepted = np.flatnonzero(triangle.contains(box.sample(stream.generator(), chunk)))
    last = accepted[N - 1]   # one chunk holds all N points
    assert sum(tested) == (last // MC_BLOCK + 1) * MC_BLOCK < chunk
    assert max(tested) == MC_BLOCK


def test_pair_rows_are_the_two_draws_uncopied():
    """Each row of ``_PairSampler`` is (y, w): y from a first
    ``sample_uniform`` call and w from a second on the same generator,
    read in place from the halves of one (2, N, n) array."""
    K, N, stream = pb.standard_simplex(3), MC_BLOCK + 999, pb.RandomStream(8181)
    pairs = _PairSampler(K).sample(stream.generator(), N)
    gen = stream.generator()
    ys = sample_uniform(K, gen, np.empty((N, 3)))
    ws = sample_uniform(K, gen, np.empty((N, 3)))
    assert pairs.shape == (N, 2, 3) and _PairSampler.measure == 1.0
    assert pairs[:, 0].tobytes() == ys.tobytes()
    assert pairs[:, 1].tobytes() == ws.tobytes()
    assert pairs.base.shape == (2, N, 3) and pairs.base.flags.c_contiguous


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


def _polarized_prism_count(K, theta, h, points):
    """How many polarized prisms S + [0, h/2) d_i hold each point: facet i's
    point y = x - t d_i on its plane has 0 <= t < h/2 and lies in K."""
    count = np.zeros(len(points), dtype=int)
    for u, b in zip(K.normals, K.offsets):
        if u @ theta == 0.0:
            continue
        d = -np.sign(u @ theta) * theta
        t = (points @ u - b) / (u @ d)
        count += (t >= 0.0) & (t < h / 2.0) & K.contains(points - t[:, None] * d)
    return count


@pytest.mark.parametrize("mode", ["plain", "polarized", "functional"])
@pytest.mark.parametrize("n", [2, 3])
def test_brightness_values_match_three_contains(n, mode):
    """The functional quotient (the Richardson combination of
    ``_pointwise_values`` at 0, h theta / 2 and h theta, on box points) and
    the prism kernel (plain, polarized) against three ``contains`` masks on
    the same points.  The box points include each facet hyperplane moved
    out by contains' tol, and one ulp to either side.  A prism draw within h/2 of both polarized exits lies in
    two prisms and counts half; the prism kernel writes phi and -3 phi where
    the masks give 4 phi - 3 phi and -3 phi, so it agrees to a few ulp."""
    stream = pb.RandomStream(4242)
    g = pb.gaussian(n)
    for i, symmetric in enumerate((False, True)):
        K = pb.random_polytope(n, stream.substream(10 * n + i), symmetric=symmetric)
        gen = stream.substream(100 + 10 * n + i).generator()
        theta = gen.standard_normal(n)
        theta /= np.linalg.norm(theta)
        h = 0.05 * K.diameter   # a wide step puts many points in the sliver
        if mode == "functional":
            lo, hi = K.bounding_box()
            points = lo - h + gen.random((50_000, n)) * (hi - lo + 2 * h)
            level = (K.offsets + 1e-9)[:, None] * K.normals
            points = np.vstack([points, level, np.nextafter(level, np.inf),
                                np.nextafter(level, -np.inf)])
        else:
            sampler = PrismSampler(K, theta, h, mode == "polarized")
            draws = sampler.sample(gen, 50_000)
            points = np.ascontiguousarray(draws[:, :n])
        for mu in (g, pb.exp_norm(pb.cross_polytope(n))):
            q = pb.CovariogramQuery(K, mu, g if mode == "functional" else None,
                                    mode=mode)
            v0, v1, v2 = _three_contains_integrands(q, points, theta, h)
            ref = 4.0 * v1 - v2 - 3.0 * v0
            if mode == "functional":
                steps = np.outer([0.0, h / 2, h], theta)
                p0, p1, p2 = _pointwise_values(q, points, steps)
                new = 4.0 * p1 - p2 - 3.0 * p0
                assert new.tobytes() == ref.tobytes()
                continue
            new = _prism_quotients(q, sampler, draws)
            if mode == "polarized":
                ref /= np.maximum(_polarized_prism_count(K, theta, h, points), 1)
            np.testing.assert_allclose(new, ref, rtol=1e-15, atol=0.0)
            assert 0 < np.count_nonzero(new == 0.0) < 0.2 * len(new)


def _counting(density):
    """The density as a custom one that tallies the points passed to it."""
    seen = []

    def ev(p):
        seen.append(len(p))
        return density.eval(p)

    mu = pb.custom_density(density.n, eval=ev, grad=density.grad, even=True)
    seen.clear()   # drop the certification probes
    return mu, seen


def test_brightness_evaluates_phi_on_the_sliver_only():
    """Plain and polarized quotients draw their points from the prisms that
    hold the sliver and evaluate phi once per draw, a block at a time; the
    functional one needs f and phi at every point of K in K's box."""
    K, g, N = pb.cube(2), flux_free(pb.gaussian(2)), 200_000
    theta = np.array([0.8, 0.6])
    h = 1e-3 * K.diameter   # the default step
    stream = pb.RandomStream(9090)
    blocks = [len(range(N)[block]) for block in row_blocks(N)]
    for mode in ("plain", "polarized"):
        mu, seen = _counting(g)
        q = pb.CovariogramQuery(K, mu, mode=mode, stream=stream, N=N)
        builtin = pb.CovariogramQuery(K, g, mode=mode, stream=stream, N=N)
        res = pb.brightness_derivative(q, theta)
        assert seen == blocks
        assert res == pb.brightness_derivative(builtin, theta)
        assert res.evaluations == 3 * N

    # the points brightness_derivative draws: K's own box
    points = pb.BoxSampler(*K.bounding_box()).sample(stream.generator(), N)
    base = K.contains(points)
    mu, seen = _counting(g)
    f, f_seen = _counting(g)
    q = pb.CovariogramQuery(K, mu, f, mode="functional", stream=stream, N=N)
    pb.brightness_derivative(q, theta)
    per_block = [np.count_nonzero(base[block]) for block in row_blocks(N)]
    assert len(per_block) > 1
    assert seen == per_block   # phi once per point of K, a block at a time
    assert f_seen == [c for c in per_block for _ in range(3)]


@pytest.mark.parametrize("mode", ["plain", "polarized", "functional"])
@pytest.mark.parametrize("n", [2, 3])
def test_blocked_derivative_matches_one_kernel_call(n, mode):
    """Quotients built a block of rows at a time have the bits of one
    kernel call over all the rows, across an uneven last block (the
    functional kernel is the Richardson combination of
    ``_pointwise_values``): the value is mean(quotients / h) times the
    measure of the sampled region (K's box, or the prisms for plain and
    polarized) and the budget three standard errors."""
    g = flux_free(pb.gaussian(n))
    K = pb.random_polytope(n, pb.RandomStream(5151).substream(n), symmetric=True)
    theta = np.ones(n) / math.sqrt(n)
    theta /= np.linalg.norm(theta)   # as brightness_derivative does
    N = 2 * MC_BLOCK + 4321
    stream = pb.RandomStream(6262, n)
    q = pb.CovariogramQuery(K, g, g if mode == "functional" else None,
                            mode=mode, stream=stream, N=N)
    res = pb.brightness_derivative(q, theta)

    h = 1e-3 * K.diameter
    if mode == "functional":
        sampler = pb.BoxSampler(*K.bounding_box())
        points = sampler.sample(stream.generator(), N)
        v0, v1, v2 = _pointwise_values(q, points, np.outer([0.0, h / 2, h], theta))
        r = (4.0 * v1 - v2 - 3.0 * v0) / h
    else:
        sampler = PrismSampler(K, theta, h, mode == "polarized")
        r = _prism_quotients(q, sampler, sampler.sample(stream.generator(), N)) / h
    assert len(row_blocks(N)) == 3 and N % MC_BLOCK != 0
    value = r.mean() * sampler.measure
    err = 3.0 * (r.std(ddof=1) / np.sqrt(N)) * sampler.measure
    assert res.value == value and res.error_estimate == err
    assert np.count_nonzero(r) > 0


# bodies in two, three and four dimensions for the prism sampler
PRISM_BODIES = [("cube2", lambda: pb.cube(2)),
                ("c04_2d", lambda: pb.random_polytope(2, pb.RandomStream(424242).substream(0))),
                ("cube3", lambda: pb.cube(3)),
                ("c04_3d", lambda: pb.random_polytope(3, pb.RandomStream(424242).substream(31),
                                                      symmetric=True)),
                ("cross4", lambda: pb.cross_polytope(4)),
                ("random4", lambda: pb.random_polytope(4, pb.RandomStream(1414).substream(4)))]


@pytest.mark.parametrize("polarized", [False, True], ids=["plain", "polarized"])
@pytest.mark.parametrize("make", [m for _, m in PRISM_BODIES],
                         ids=[name for name, _ in PRISM_BODIES])
def test_prism_measure_is_h_times_the_projection_body_support(make, polarized):
    """The prisms hold h h_{Pi K}(theta) (Cauchy's formula) in both modes."""
    K = make()
    gen = pb.RandomStream(1415, K.n).generator()
    for theta in gen.standard_normal((4, K.n)):
        theta /= np.linalg.norm(theta)
        h = 1e-3 * K.diameter
        support = float(pb.projection_zonoid(K).support(theta[None, :])[0])
        measure = PrismSampler(K, theta, h, polarized).measure
        assert abs(measure - h * support) <= 1e-12 * h * support


@pytest.mark.parametrize("polarized", [False, True], ids=["plain", "polarized"])
@pytest.mark.parametrize("make", [m for _, m in PRISM_BODIES],
                         ids=[name for name, _ in PRISM_BODIES])
def test_prism_draws_stay_in_their_prisms(make, polarized):
    """Each draw (x, t, s) is y + t d with y on simplex s, 0 <= t < depth and
    d = -sign(<u, theta>) theta for the simplex's outer normal u; the rows
    come grouped by simplex.  In plain mode a draw in K has reach t: the
    largest step back along theta that its facet slacks allow."""
    K = make()
    n, diam = K.n, K.diameter
    gen = pb.RandomStream(1416, n).generator()
    theta = gen.standard_normal(n)
    theta /= np.linalg.norm(theta)
    h = 0.05 * diam
    sampler = PrismSampler(K, theta, h, polarized)
    draws = sampler.sample(gen, 20_000)
    x, t, s = draws[:, :n], draws[:, n], draws[:, n + 1]
    assert np.all(np.diff(s) >= 0.0) and np.all(s == np.round(s))
    assert np.all(t >= 0.0) and np.all(t < (h / 2.0 if polarized else h))
    centre = K.vertices.mean(axis=0)
    for k in np.unique(s).astype(int):
        rows = s == k
        S = sampler.simplices[k]
        edges = (S[1:] - S[0]).T
        u = np.linalg.svd(edges.T)[2][-1]
        u *= np.sign(u @ (S[0] - centre))
        assert (u @ theta < 0.0) or polarized
        d = -np.sign(u @ theta) * theta
        y = x[rows] - t[rows, None] * d
        w, *_ = np.linalg.lstsq(edges, (y - S[0]).T, rcond=None)
        assert np.abs(edges @ w - (y - S[0]).T).max() <= 1e-12 * diam
        assert w.min() >= -1e-12 and w.sum(axis=0).max() <= 1.0 + 1e-12
    if not polarized:
        slack = K.slack(x, tol=0.0)
        inside = np.all(slack >= 0.0, axis=0)
        c = K.normals @ theta
        reach = (slack[c < 0.0] / -c[c < 0.0, None]).min(axis=0)
        assert 0.5 * len(x) < np.count_nonzero(inside) < len(x)
        assert np.abs(reach[inside] - t[inside]).max() <= 1e-12 * diam


def _calibration_case(name, mode):
    """Body, direction and reference h_{Pi_gamma K}(theta) (shifted by the
    offset vector in plain mode, as c04 does) for the calibration test."""
    if name == "cube2":
        # each edge of [-1,1]^2 carries EDGE_WEIGHT, so h = 1.4 EDGE_WEIGHT
        from conftest import EDGE_WEIGHT
        return pb.cube(2), np.array([0.8, 0.6]), 1.4 * EDGE_WEIGHT
    K = pb.random_polytope(3, pb.RandomStream(424242).substream(31), symmetric=True)
    g = pb.gaussian(3)
    theta = np.array([0.6, -0.48, 0.64])
    zon = pb.projection_zonoid(K, g, tol=1e-9)
    if mode == "plain":
        zon = zon.with_offset(pb.offset_vector(K, g, tol=1e-9).value)
    return K, theta, float(zon.support(theta[None, :])[0])


@pytest.mark.parametrize("mode", ["plain", "polarized"])
@pytest.mark.parametrize("name", ["cube2", "c04_3d"])
def test_prism_brightness_budget_is_calibrated(name, mode):
    """Over 40 streams, z = (value + h_ref) / (budget / 3) behaves like 40
    standard normal draws.  Bounds, fixed before the run: |mean z| <= 3 SE
    = 3 / sqrt(40) = 0.474, and the SD of z inside the 99.9% chi^2 interval
    for 39 degrees of freedom, sqrt(chi2(39) quantiles 0.0005 and 0.9995 /
    39) = [0.646, 1.384].  Cases: cube(2) along (0.8, 0.6) against the
    closed-form edge weight, and a symmetric c04 3-D body (16 facets) against
    its facet cubature at tol 1e-9.  The Gaussian is a flux-free copy, which
    samples on the polygon too."""
    K, theta, h_ref = _calibration_case(name, mode)
    g = flux_free(pb.gaussian(K.n))
    z = []
    for i in range(40):
        q = pb.CovariogramQuery(K, g, mode=mode, stream=pb.RandomStream(1417, i),
                                N=200_000)
        res = pb.brightness_derivative(q, theta)
        z.append((res.value + h_ref) / (res.error_estimate / 3.0))
    z = np.array(z)
    assert abs(z.mean()) <= 0.474, z
    assert 0.646 <= z.std(ddof=1) <= 1.384, z


def test_prism_brightness_peak_memory():
    """One N = 200k plain or polarized call on c04's 10-facet polygon peaks
    (tracemalloc) at or below what the box kernel peaked at on the same
    call: 10,766,696 and 10,766,680 bytes (BENCH_14.json).  The Gaussian is
    a flux-free copy, which samples on the polygon."""
    K = pb.random_polytope(2, pb.RandomStream(424242).substream(13), symmetric=True)
    g = flux_free(pb.gaussian(2))
    theta = np.array([0.8, 0.6])
    for mode, limit in (("plain", 10_766_696), ("polarized", 10_766_680)):
        q = pb.CovariogramQuery(K, g, mode=mode, stream=pb.RandomStream(7, 3),
                                N=200_000)
        pb.brightness_derivative(q, theta)   # the difference body is cached
        assert _peak_bytes(lambda: pb.brightness_derivative(q, theta)) <= limit, mode


def _peak_bytes(call):
    """The tracemalloc peak of one call."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_deterministic_brightness_peak_memory():
    """On the same polygon and direction under gamma_2, the deterministic
    derivatives peak (tracemalloc) at or below the box kernel's 10,766,696
    bytes in all three modes, in functional mode with f = gamma_2 (the
    product rule's edge flux) and with f = |x|^2 (the fan).  The fan lifts
    its triangles to R^4 and refines a block of translations per call, so a
    stack of 170 functional translations along theta stays under that limit
    too, with either f."""
    K = pb.random_polytope(2, pb.RandomStream(424242).substream(13), symmetric=True)
    g = pb.gaussian(2)
    theta = np.array([0.8, 0.6])
    rho = pb.radial_many(pb.difference_body(K), theta[None, :])[0]
    xs = np.outer(np.linspace(0.0, rho, 170), theta)
    for mode, f in (("plain", None), ("polarized", None), ("functional", g),
                    ("functional", pb.radial_power(2, 2.0))):
        q = pb.CovariogramQuery(K, g, f, mode=mode)
        pb.brightness_derivative(q, theta)   # the difference body is cached
        assert _peak_bytes(lambda: pb.brightness_derivative(q, theta)) <= 10_766_696, mode
        if f is not None:
            assert _peak_bytes(lambda: pb.mu_covariogram(q, xs)) <= 10_766_696, f


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
        new, = _pointwise_values(q, points, [x])
        assert new.tobytes() == _two_contains_integrand(q, points, x).tobytes()
        assert np.count_nonzero(new) > 1000


@pytest.mark.parametrize("mode", ["plain", "functional", "polarized"])
def test_mu_covariogram_stack_matches_one_draw_per_translation(mode):
    """Translations that share a draw get the bits of a Monte Carlo run of
    their own: K's box for every x, the integrand phi(p) [p, p - x in K]
    (f(p - x) phi(p) [...] in functional mode; p ± x/2 in K in polarized
    mode).  The functional f is a flux-free copy of gamma_3, so the pair
    keeps the functional integrand (the builtin pair is a polarized query
    of psi)."""
    K = pb.random_polytope(3, pb.RandomStream(424242).substream(20))
    g = pb.gaussian(3)
    q = pb.CovariogramQuery(K, g, f=flux_free(g) if mode == "functional" else None,
                            mode=mode, stream=pb.RandomStream(11), N=20_000)
    theta = np.array([0.6, -0.48, 0.64])
    xs = np.outer([0.0, 0.2, 0.7, 1.3, 9.0], theta)
    got = pb.mu_covariogram(q, xs)
    assert len(got) == len(xs)
    for x, res in zip(xs, got):
        c = K.normals @ x
        need = np.abs(c) / 2.0 if mode == "polarized" else np.maximum(-c, 0.0)
        lo, hi = K.bounding_box()

        def integrand(p, x=x, need=need):
            inside = np.all(K.slack(p) >= need[:, None], axis=0)
            weight = g.eval(p - x) * g.eval(p) if mode == "functional" else g.eval(p)
            return weight * inside

        ref = pb.monte_carlo(pb.BoxSampler(lo, hi), integrand, q.N, q.stream)
        assert res.value.hex() == ref.value.hex()
        assert res.error_estimate.hex() == ref.error_estimate.hex()
        assert res.evaluations == ref.evaluations
        one = pb.mu_covariogram(q, x)
        assert (one.value, one.error_estimate) == (res.value, res.error_estimate)


@pytest.mark.parametrize("what", ["plain", "functional", "polarized", "brightness"])
def test_box_sampled_covariograms_draw_once_from_K_box(monkeypatch, what):
    """A sampled stack of 10 translations, in every mode, and the functional
    brightness derivative make one draw, from exactly K's bounding box.  The
    derivative's f is a flux-free copy of gamma_3, which keeps the box
    quotient; with the builtin gamma_3 it is psi's polarized derivative,
    which draws once from the polarized prisms and never from the box."""
    K = pb.random_polytope(3, pb.RandomStream(424242).substream(31), symmetric=True)
    g = pb.gaussian(3)
    draws, prism_draws = [], []
    sample, prism_sample = pb.BoxSampler.sample, PrismSampler.sample

    def recording(self, gen, count):
        draws.append((self.lows.tobytes(), self.highs.tobytes(), count))
        return sample(self, gen, count)

    def recording_prisms(self, gen, count):
        prism_draws.append((self.polarized, count))
        return prism_sample(self, gen, count)

    monkeypatch.setattr(pb.BoxSampler, "sample", recording)
    monkeypatch.setattr(PrismSampler, "sample", recording_prisms)
    mode = "functional" if what == "brightness" else what
    f = {"functional": g, "brightness": flux_free(g)}.get(what)
    q = pb.CovariogramQuery(K, g, f, mode=mode, stream=pb.RandomStream(12), N=25_000)
    theta = np.array([0.6, -0.48, 0.64])
    if what == "brightness":
        pb.brightness_derivative(q, theta)
        assert prism_draws == []
        pb.brightness_derivative(dataclasses.replace(q, f=g), theta)
        assert prism_draws == [(True, q.N)]
    else:
        got = pb.mu_covariogram(q, np.outer(np.linspace(0.0, 0.9, 10), theta))
        assert len(got) == 10 and got[0].value > got[-1].value > 0.0
    lo, hi = K.bounding_box()
    assert draws == [(lo.tobytes(), hi.tobytes(), q.N)]


def test_concavity_check_draws_once_per_ray(monkeypatch):
    """Each ray's three sampled covariograms share one draw of box points."""
    from projbodies.inequalities import _concavity_check
    draws = []
    sample = pb.BoxSampler.sample

    def counting(self, gen, count):
        draws.append(count)
        return sample(self, gen, count)

    monkeypatch.setattr(pb.BoxSampler, "sample", counting)
    ok, worst = _concavity_check(pb.log_family(), pb.cube(3), pb.gaussian(3),
                                 None, pb.RunConfig(seed=7), pb.RandomStream(7),
                                 triples=4)
    assert ok and len(draws) == 4


def test_planar_concavity_check_makes_one_deterministic_call(monkeypatch):
    """On a polygon under a density with a flux the check draws no box
    points and evaluates every ray's three translations in one call; its
    margin is then the true midpoint gap, well inside a Monte Carlo budget."""
    from projbodies import inequalities
    draws, calls = [], []
    sample, evaluate = pb.BoxSampler.sample, inequalities.mu_covariogram

    def counting_draws(self, gen, count):
        draws.append(count)
        return sample(self, gen, count)

    def counting_calls(q, x):
        calls.append(len(x))
        return evaluate(q, x)

    monkeypatch.setattr(pb.BoxSampler, "sample", counting_draws)
    monkeypatch.setattr(inequalities, "mu_covariogram", counting_calls)
    ok, worst = inequalities._concavity_check(
        pb.log_family(), pb.cube(2), pb.gaussian(2), None, pb.RunConfig(seed=7),
        pb.RandomStream(7), triples=4)
    assert ok and -1e-3 < worst < 0.0
    assert draws == [] and calls == [12]


# -- the planar flux route of mu_covariogram ----------------------------------

def _gaussian_square_covariogram(R, x, polarized):
    """g_{gamma_2,K}(x), or r_{gamma_2,K}(x), for K = R [-1, 1]^2: per axis
    the Gaussian mass of [-R + |t|, R] (K ∩ (K + x) up to a reflection) or
    of [-R + |t|/2, R - |t|/2], and 0 once |t| >= 2R."""
    out = 1.0
    for t in np.abs(x):
        if t >= 2.0 * R:
            return 0.0
        lo, hi = (-R + t / 2.0, R - t / 2.0) if polarized else (-R + t, R)
        out *= 0.5 * (math.erf(hi / math.sqrt(2.0)) - math.erf(lo / math.sqrt(2.0)))
    return out


@pytest.mark.parametrize("mode", ["plain", "polarized"])
@pytest.mark.parametrize("R", [1.0, 3.0])
def test_flux_covariogram_of_a_square_meets_the_erf_products(R, mode, gauss2):
    """R cube(2) under gamma_2 at 0, along an axis (an edge of K + x on the
    parallel edge of K: the tie-break), off the axes, on the boundary of DK
    and beyond it (both 0 exactly); each budget covers its gap, and a stack
    gives the bits of one translation at a time."""
    K = pb.cube(2).scale(R)
    q = pb.CovariogramQuery(K, gauss2, mode=mode, tol=1e-9)
    assert not q.sampled
    xs = R * np.array([[0.0, 0.0], [0.5, 0.0], [0.0, -1.3], [0.3, -0.7],
                       [-1.9, 1.9], [2.0, 0.4], [-0.6, 2.0], [2.5, 0.1], [3.0, 3.0]])
    got = pb.mu_covariogram(q, xs)
    for x, res in zip(xs, got):
        ref = _gaussian_square_covariogram(R, x, mode == "polarized")
        assert abs(res.value - ref) <= res.error_estimate + 1e-16 * (ref == 0.0)
        assert res.error_estimate <= 1e-9
        one = pb.mu_covariogram(q, x)
        assert (one.value, one.error_estimate) == (res.value, res.error_estimate)
    assert [res.value for res in got[5:]] == [0.0] * 4
    assert got[0].value == pytest.approx(pb.measure_body(gauss2, K).value, rel=1e-13)


@pytest.mark.parametrize("index", [2, 0], ids=["pentagon", "hexagon"])
def test_flux_covariogram_matches_the_measure_of_the_intersection(index):
    """On c04's pentagon and hexagon, under gamma_2 and |x|^0.5, each value
    agrees with measure_body on the polygon K ∩ (K + x) (moved by -x/2 in
    polarized mode) built from its vertices, and its budget covers the gap."""
    K = _c04_bodies()[index]
    gen = np.random.default_rng(index)
    thetas = gen.standard_normal((8, 2))
    thetas /= np.linalg.norm(thetas, axis=1, keepdims=True)
    rho = pb.radial_many(pb.difference_body(K), thetas)
    xs = thetas * (gen.uniform(0.0, 0.95, 8) * rho)[:, None]
    for mu in (pb.gaussian(2), pb.radial_power(2, 0.5)):
        for mode in ("plain", "polarized"):
            q = pb.CovariogramQuery(K, mu, mode=mode, tol=1e-12)
            for x, res in zip(xs, pb.mu_covariogram(q, xs)):
                P = pb.intersect_translate(K, x)
                if mode == "polarized":
                    P = P.translate(-x / 2.0)
                ref = pb.measure_body(mu, P, tol=1e-12)
                assert abs(res.value - ref.value) <= res.error_estimate


def test_covariogram_route_comes_from_flux_dimension_and_mode(square, gauss2):
    """Plain and polarized queries on a polygon under a density with a flux
    (or Lebesgue) are deterministic, and so are functional ones whose mu and
    f are both smooth builtins; 3-D bodies, cusped powers in functional mode
    and densities without a flux, a custom one labelled "gaussian" included,
    sample and keep their Monte Carlo results."""
    lookalike = pb.custom_density(2, gauss2.eval, gauss2.grad, label="gaussian",
                                  even=True, radially_decreasing=True)
    for mu in (gauss2, pb.radial_power(2, 1.0), pb.lebesgue(2)):
        for mode in ("plain", "polarized"):
            assert not pb.CovariogramQuery(square, mu, mode=mode).sampled
    smooth = (gauss2, pb.radial_power(2, 2.0), pb.lebesgue(2))
    for mu in smooth:
        for f in smooth:
            assert not pb.CovariogramQuery(square, mu, f, mode="functional").sampled
        for f in (lookalike, pb.exp_norm(square), pb.radial_power(2, 1.0),
                  pb.radial_power(2, 0.5)):
            assert pb.CovariogramQuery(square, mu, f, mode="functional").sampled
            assert pb.CovariogramQuery(square, f, mu, mode="functional").sampled
    assert pb.CovariogramQuery(pb.cube(3), pb.gaussian(3)).sampled
    assert pb.CovariogramQuery(pb.cube(3), pb.gaussian(3), pb.lebesgue(3),
                               mode="functional").sampled
    stream, N = pb.RandomStream(1919), 2_000
    for mu in (lookalike, pb.exp_norm(square)):
        q = pb.CovariogramQuery(square, mu, stream=stream, N=N)
        assert q.sampled
        res = pb.mu_covariogram(q, [0.3, 0.2])
        lo, hi = square.bounding_box()
        ref = pb.monte_carlo(pb.BoxSampler(lo, hi), lambda p: mu.eval(p) * (
            np.all(square.slack(p) >= np.maximum(-square.normals @ [0.3, 0.2], 0.0)[:, None],
                   axis=0)), N, stream)
        assert (res.value, res.error_estimate) == (ref.value, ref.error_estimate)


# -- the planar functional route and the Chebyshev brightness slope -----------

def test_chebyshev_rule_differentiates_polynomials_at_0():
    """The weights give p'(0) of every polynomial of degree <= the rule's
    (t^k: 1 for k = 1, else 0) to 64 ulp of the weights' sum of magnitudes,
    and the degree-8 nodes are every other degree-16 node, bit for bit."""
    from projbodies.covariogram import _chebyshev_rule
    for degree in (8, 16):
        t, w = _chebyshev_rule(degree)
        assert t[0] == 0.0 and t[-1] == 1.0 and np.all(np.diff(t) > 0.0)
        for k in range(degree + 1):
            assert abs(w @ t ** k - (k == 1)) <= 64 * np.finfo(float).eps * np.abs(w).sum()
    assert _chebyshev_rule(16)[0][::2].tobytes() == _chebyshev_rule(8)[0].tobytes()


def _phi1(t):
    return math.exp(-0.5 * t * t) / math.sqrt(2.0 * math.pi)


def _box_functional_covariogram(lo, hi, x):
    """g_{gamma_2, gamma_2}(K, x) on the box K = [lo, hi]: per axis the 1-D
    quad of phi(y - x_i) phi(y) over [lo_i, hi_i] ∩ [lo_i + x_i, hi_i + x_i]."""
    from scipy.integrate import quad
    out = 1.0
    for a, b, t in zip(lo, hi, x):
        a, b = max(a, a + t), min(b, b + t)
        if b <= a:
            return 0.0
        out *= quad(lambda y: _phi1(y - t) * _phi1(y), a, b, epsabs=1e-15, epsrel=1e-13)[0]
    return out


def _box_functional_slope(lo, hi, theta):
    """d/dr g_{gamma_2, gamma_2}(K, r theta) at 0+ on the box K = [lo, hi]:
    per axis G_i(t) = ∫ phi(y - t) phi(y) over [lo_i, hi_i] ∩ [lo_i + t,
    hi_i + t] has one-sided slopes -+(phi(lo_i)^2 + phi(hi_i)^2) / 2 at 0,
    and G_i(0) is a 1-D quad, so the slope is sum_i theta_i G_i'(0)
    prod_{j != i} G_j(0)."""
    G = [_box_functional_covariogram([a], [b], [0.0]) for a, b in zip(lo, hi)]
    return sum(-abs(t) * (_phi1(a) ** 2 + _phi1(b) ** 2) / 2.0 * G[1 - i]
               for i, (a, b, t) in enumerate(zip(lo, hi, theta)))


def _rectangle(lo, hi):
    return pb.build_polytope([[lo[0], lo[1]], [hi[0], lo[1]], [hi[0], hi[1]],
                              [lo[0], hi[1]]])


BOXES = [([-R, -R], [R, R]) for R in (0.01, 0.05, 1.0, 3.0)] + [
    ([-1.0, -0.5], [1.5, 2.0]), ([0.3, -2.0], [1.1, 0.4])]


@pytest.mark.parametrize("lo,hi", BOXES[2:], ids=["cube", "3cube", "rect", "offcentre"])
def test_functional_covariogram_of_a_box_meets_the_quad_products(lo, hi, gauss2):
    """Under gamma_2 with f = gamma_2 each value on a box agrees with the
    product of 1-D quads within its budget, at 0, along and off the axes,
    on the boundary of DK and beyond it (0); a stack gives the bits of one
    translation at a time, and a stack that misses DK gives zeros.  With a
    Lebesgue f the fan integrates phi alone: the flux route's values."""
    K = _rectangle(lo, hi)
    q = pb.CovariogramQuery(K, gauss2, gauss2, mode="functional", tol=1e-10)
    assert not q.sampled
    w = np.subtract(hi, lo)
    xs = np.array([[0.0, 0.0], [0.5, 0.0], [0.0, -0.7], [0.3, -0.4], [-0.9, 0.9],
                   [1.0, 0.2], [1.3, 1.3]]) * w
    got = pb.mu_covariogram(q, xs)
    for x, res in zip(xs, got):
        ref = _box_functional_covariogram(lo, hi, x)
        assert abs(res.value - ref) <= res.error_estimate + 1e-16 * (ref == 0.0)
        assert res.error_estimate <= 1e-10
        one = pb.mu_covariogram(q, x)
        assert (one.value, one.error_estimate) == (res.value, res.error_estimate)
    assert [res.value for res in got[5:]] == [0.0, 0.0]
    assert [(r.value, r.evaluations) for r in pb.mu_covariogram(q, xs[5:])] == [(0.0, 0)] * 2
    lebesgue_f = pb.CovariogramQuery(K, gauss2, pb.lebesgue(2), mode="functional", tol=1e-10)
    plain = pb.CovariogramQuery(K, gauss2, tol=1e-10)
    for a, b in zip(pb.mu_covariogram(lebesgue_f, xs), pb.mu_covariogram(plain, xs)):
        assert abs(a.value - b.value) <= a.error_estimate + b.error_estimate


def _polygon_dblquad(P, fn):
    """∫_P fn(y1, y2) dy by ``scipy.integrate.dblquad`` on the strips
    between P's vertex abscissae, where both envelopes are linear."""
    from scipy.integrate import dblquad
    A, b = P.normals, P.offsets
    up, down = A[:, 1] > 1e-14, A[:, 1] < -1e-14

    def upper(t):
        return np.min((b[up] - A[up, 0] * t) / A[up, 1])

    def lower(t):
        return np.max((b[down] - A[down, 0] * t) / A[down, 1])

    cuts = np.unique(P.vertices[:, 0])
    return sum(dblquad(lambda y2, y1: fn(y1, y2), a, c, lower, upper,
                       epsabs=1e-15, epsrel=1e-13)[0] for a, c in zip(cuts, cuts[1:]))


def test_product_route_meets_a_dblquad_on_a_triangle(gauss2):
    """Under gamma_2 with f = gamma_2 the product-rule values on a triangle
    agree with a tight dblquad of gamma(y - x) gamma(y) over K ∩ (K + x)
    within their budgets (plus the reference's relative 1e-13), each budget
    at most tol: at 0, inside DK and near its boundary; on the boundary and
    beyond it the value is 0."""
    K = pb.build_polytope([[-0.4, -0.7], [1.3, 0.2], [0.1, 1.1]])
    q = pb.CovariogramQuery(K, gauss2, gauss2, mode="functional", tol=1e-11)
    thetas = np.array([[1.0, 0.0], [0.6, -0.8], [-0.28, 0.96], [-0.8, -0.6]])
    rho = pb.radial_many(pb.difference_body(K), thetas)
    xs = np.concatenate([[[0.0, 0.0]], thetas * (0.4 * rho)[:, None],
                         thetas * (0.97 * rho)[:, None], thetas[:2] * rho[:2, None],
                         thetas[:1] * 1.2 * rho[:1, None]])
    got = pb.mu_covariogram(q, xs)
    assert [res.value for res in got[9:]] == [0.0] * 3
    assert max(res.error_estimate for res in got) <= 1e-11
    for x, res in zip(xs[:9], got):
        ref = _polygon_dblquad(pb.intersect_translate(K, x),
                               lambda y1, y2: _phi1(y1 - x[0]) * _phi1(y2 - x[1])
                               * _phi1(y1) * _phi1(y2))
        assert abs(res.value - ref) <= res.error_estimate + 1e-13 * ref, x


def test_product_route_meets_the_fan_on_c04_polygons(gauss2):
    """On c04's 12 polygons at 3 translations each (0 and two inside DK),
    the product-rule values agree with the fan, called directly, within the
    sum of both budgets at tol 1e-11, with fewer evaluations."""
    gen = np.random.default_rng(25)
    for K in _c04_bodies()[:12]:
        theta = gen.standard_normal(2)
        theta /= np.linalg.norm(theta)
        rho = pb.radial_many(pb.difference_body(K), theta[None, :])[0]
        xs = np.outer([0.0, 0.3 * rho, 0.8 * rho], theta)
        q = pb.CovariogramQuery(K, gauss2, gauss2, mode="functional", tol=1e-11)
        fan = covariogram._functional_covariogram(q, xs)
        product = pb.mu_covariogram(q, xs)
        for a, b in zip(product, fan):
            assert a.error_estimate <= 1e-11
            assert abs(a.value - b.value) <= a.error_estimate + b.error_estimate
        assert product[0].evaluations < fan[0].evaluations


def test_only_gaussian_pairs_take_the_product_route(triangle, gauss2, leb2):
    """The product rule covers gamma_n x gamma_n alone: (gamma, |x|^2),
    (|x|^2, gamma), (lambda, gamma) and (gamma, lambda) keep the fan's bits
    and evaluations, a custom density labelled "gaussian" samples, and the
    gamma x gamma values are not the fan's: they are the weight
    gamma(x / sqrt 2) times the polarized values of psi, bit for bit."""
    square_norm = pb.radial_power(2, 2.0)
    lookalike = pb.custom_density(2, gauss2.eval, gauss2.grad, label="gaussian",
                                  even=True, radially_decreasing=True)
    xs = np.array([[0.0, 0.0], [0.2, 0.1], [-0.1, 0.3]])
    for mu, f in ((gauss2, square_norm), (square_norm, gauss2), (leb2, gauss2),
                  (gauss2, leb2)):
        assert product_flux(mu, f) is None
        q = pb.CovariogramQuery(triangle, mu, f, mode="functional")
        assert pb.mu_covariogram(q, xs) == covariogram._functional_covariogram(q, xs)
    for mu, f in ((lookalike, gauss2), (gauss2, lookalike)):
        assert product_flux(mu, f) is None
        assert pb.CovariogramQuery(triangle, mu, f, mode="functional").sampled
    assert product_flux(gauss2, pb.gaussian(3)) is None
    q = pb.CovariogramQuery(triangle, gauss2, pb.gaussian(2), mode="functional")
    product, fan = pb.mu_covariogram(q, xs), covariogram._functional_covariogram(q, xs)
    assert product_flux(gauss2, pb.gaussian(2)) is not None
    assert product[0].evaluations < fan[0].evaluations
    assert [r.value for r in product] != [r.value for r in fan]
    # the gamma x gamma stack is the weight times the polarized stack of psi
    weight, psi = product_flux(gauss2, gauss2)
    polarized = pb.mu_covariogram(pb.CovariogramQuery(triangle, psi, mode="polarized"), xs)
    assert [(r.value, r.error_estimate, r.evaluations) for r in product] == [
        (w * r.value, w * r.error_estimate, r.evaluations)
        for w, r in zip(weight(xs), polarized)]


def test_spatial_gaussian_pairs_are_polarized_prism_derivatives():
    """On four of c04's 3-D bodies at two directions each (N = 200k), the
    builtin gamma_3 x gamma_3 functional derivative is gamma(0) times the
    polarized derivative of psi(z) = gamma(sqrt 2 z), bit for bit: both draw
    from the polarized prisms.  Its budget is at most 5% of h_{Pi_{gamma,
    gamma} K}(theta) (the box quotient's sat near 60%) and covers its
    residual to -h of the tol-1e-10 f-weighted zonoid, whose offset tau is 0
    because f is mu."""
    g = pb.gaussian(3)
    psi = product_flux(g, g)[1]
    gamma0 = g.eval(np.zeros((1, 3)))[0]
    gen = pb.RandomStream(2727).generator()
    for i, K in enumerate(_c04_bodies()[12:20:2]):
        zon = pb.projection_zonoid(K, g, f=g, tol=1e-10)
        assert not np.any(pb.offset_vector(K, g, f=g, stream=pb.RandomStream(1), N=1000).value)
        thetas = gen.standard_normal((2, 3))
        for d, theta in enumerate(thetas / np.linalg.norm(thetas, axis=1, keepdims=True)):
            stream = pb.RandomStream(2828, 10 * i + d)
            res = pb.brightness_derivative(pb.CovariogramQuery(
                K, g, g, mode="functional", stream=stream, N=200_000), theta)
            ref = pb.brightness_derivative(pb.CovariogramQuery(
                K, psi, mode="polarized", stream=stream, N=200_000), theta)
            assert res.value == gamma0 * ref.value
            assert res.error_estimate == gamma0 * ref.error_estimate
            assert res.evaluations == ref.evaluations
            h = float(zon.support(theta[None, :])[0])
            h_err = float(zon.support_error(theta[None, :])[0])
            assert res.error_estimate <= 0.05 * h, (K.facet_count, res.error_estimate / h)
            assert abs(res.value + h) <= res.error_estimate + h_err, (K.facet_count, theta)


def _reference_slopes(K, mode, thetas):
    """-h of the shifted projection body that the brightness identity puts
    at each direction, with the error of that reference: boxes in closed
    form (each edge of R cube(2) carries phi(R) erf(R / sqrt 2), in plain
    and polarized mode alike); other polygons from their gamma_2 zonoids at
    tol 1e-10, shifted in plain mode by eta, and in functional mode (f =
    |x|^2) by tau from a 2M-sample offset_vector, whose error is added."""
    g = pb.gaussian(2)
    lo, hi = K.bounding_box()
    if K.volume == pytest.approx(np.prod(hi - lo), rel=1e-14):
        if mode == "functional":
            return np.array([_box_functional_slope(lo, hi, t) for t in thetas]), 0.0
        R = hi[0]
        return -np.abs(thetas).sum(axis=1) * _phi1(R) * math.erf(R / math.sqrt(2.0)), 0.0
    if mode == "functional":
        f = pb.radial_power(2, 2.0)
        tau = pb.offset_vector(K, g, f=f, stream=pb.RandomStream(2424, len(K.vertices)),
                               N=2_000_000)
        z, shift_err = pb.projection_zonoid(K, g, f=f, tol=1e-10), tau.error_estimate
        z = z.with_offset(tau.value)
    else:
        z, shift_err = pb.projection_zonoid(K, g, tol=1e-10), 0.0
        if mode == "plain":
            off = pb.offset_vector(K, g, tol=1e-10)
            z, shift_err = z.with_offset(off.value), float(np.linalg.norm(off.error_estimate))
    return -z.support(thetas), z.support_error(thetas) + shift_err


@pytest.mark.parametrize("mode", ["plain", "polarized", "functional"])
def test_planar_brightness_budgets_cover_their_residuals(mode):
    """Every deterministic derivative's budget covers its residual against
    the brightness identity, with the reference's error added: on c04's 12
    polygons (the symmetric ones in polarized mode) at their first four c04
    directions, under gamma_2 (f = |x|^2 in functional mode), and on
    R cube(2) for R = 0.01, 0.05, 1, 3 and two rectangles (f = gamma_2)
    against closed forms.  On the small squares r -> g is nearly a
    polynomial, the two rules agree to roundoff and the residual is the
    value errors carried through the weights: without that term of the
    budget the test fails."""
    g = pb.gaussian(2)
    gen = pb.RandomStream(424242 + 1).generator()
    cases = []
    for K in _c04_bodies()[:12]:
        thetas = gen.standard_normal((16, 2))[:4]
        cases.append((K, thetas / np.linalg.norm(thetas, axis=1, keepdims=True),
                      pb.radial_power(2, 2.0)))
    box_thetas = np.array([[1.0, 0.0], [0.6, -0.8], [-0.28, 0.96]])
    cases += [(_rectangle(lo, hi), box_thetas, g) for lo, hi in BOXES
              if mode == "functional" or lo[0] == -hi[0] == lo[1]]
    checked = 0
    for K, thetas, f in cases:
        if mode == "polarized" and not K.is_symmetric():
            continue
        refs, ref_errors = _reference_slopes(K, mode, thetas)
        for theta, ref, ref_error in zip(thetas, refs, np.broadcast_to(ref_errors, len(refs))):
            q = pb.CovariogramQuery(K, g, f if mode == "functional" else None, mode=mode)
            res = pb.brightness_derivative(q, theta)
            assert abs(res.value - ref) <= res.error_estimate + ref_error, (K.volume, theta)
            checked += 1
    assert checked == {"plain": 60, "polarized": 36, "functional": 66}[mode]


@pytest.mark.parametrize("mode", ["plain", "polarized", "functional"])
def test_deterministic_brightness_agrees_with_monte_carlo(mode):
    """On c04's 12 polygons (the symmetric ones in polarized mode) at their
    first c04 direction, the deterministic derivative under gamma_2 lies
    within 3 Monte Carlo budgets of the prism or box Monte Carlo derivative
    under a flux-free copy of gamma_2 (N = 200k)."""
    g = pb.gaussian(2)
    sampled = flux_free(g)
    gen = pb.RandomStream(424242 + 1).generator()
    for i, K in enumerate(_c04_bodies()[:12]):
        theta = gen.standard_normal((16, 2))[0]
        theta /= np.linalg.norm(theta)
        if mode == "polarized" and not K.is_symmetric():
            continue
        functional = mode == "functional"
        det = pb.brightness_derivative(
            pb.CovariogramQuery(K, g, g if functional else None, mode=mode), theta)
        mc = pb.brightness_derivative(pb.CovariogramQuery(
            K, sampled, sampled if functional else None, mode=mode,
            stream=pb.RandomStream(2525, i), N=200_000), theta)
        assert abs(det.value - mc.value) <= 3.0 * mc.error_estimate + det.error_estimate


@pytest.mark.parametrize("case,mode", [
    (case, mode) for case in ("cube3", "exp_norm", "custom") for mode in ("plain", "functional")]
    + [("cusp", "functional")])
def test_brightness_keeps_monte_carlo_off_the_deterministic_route(monkeypatch, case, mode):
    """3-D bodies, exp_norm and custom densities, and a functional query
    with a cusped |x|^(1/2), keep the Monte Carlo derivative (one
    ``monte_carlo`` call of N rows, 3N evaluations), and a builtin gamma_2
    query on a polygon makes no such call."""
    calls = []
    real = covariogram.monte_carlo
    monkeypatch.setattr(covariogram, "monte_carlo",
                        lambda *args: calls.append(args[2]) or real(*args))
    K, mu = {"cube3": (pb.cube(3), pb.gaussian(3)),
             "exp_norm": (pb.cube(2), pb.exp_norm(pb.cross_polytope(2))),
             "custom": (pb.cube(2), flux_free(pb.gaussian(2))),
             "cusp": (pb.cube(2), pb.radial_power(2, 0.5))}[case]
    f = mu if mode == "functional" else None
    q = pb.CovariogramQuery(K, mu, f, mode=mode, stream=pb.RandomStream(31), N=5000)
    theta = np.ones(K.n) / math.sqrt(K.n)
    res = pb.brightness_derivative(q, theta)
    assert q.sampled and calls == [5000] and res.evaluations == 15_000
    calls.clear()
    g = pb.gaussian(2)
    pb.brightness_derivative(pb.CovariogramQuery(pb.cube(2), g, g if mode == "functional"
                                                 else None, mode=mode), [0.8, 0.6])
    assert calls == []


@pytest.mark.parametrize("alpha", [0.5, 1.0])
def test_cusped_power_brightness_budgets_cover_their_residuals(alpha):
    """Under |x|^alpha, singular at 0, the plain and polarized slopes keep
    their interpolation interval half way to the radius where 0 leaves the
    intersection (the covariogram's nearest branch point), and every budget
    covers its residual against the tol-1e-10 zonoid (shifted by eta in
    plain mode) on c04's 12 polygons at their 16 c04 directions.  Read over
    the whole first piece, some plain budgets missed at both exponents."""
    mu = pb.radial_power(2, alpha)
    gen = pb.RandomStream(424242 + 1).generator()
    for K in _c04_bodies()[:12]:
        thetas = gen.standard_normal((16, 2))
        thetas /= np.linalg.norm(thetas, axis=1, keepdims=True)
        z = pb.projection_zonoid(K, mu, tol=1e-10)
        for theta, mode in itertools.product(
                thetas, ("plain", "polarized") if K.is_symmetric() else ("plain",)):
            shifted, shift_err = z, 0.0
            if mode == "plain":
                off = pb.offset_vector(K, mu, tol=1e-10)
                shifted = z.with_offset(off.value)
                shift_err = float(np.linalg.norm(off.error_estimate))
            res = pb.brightness_derivative(pb.CovariogramQuery(K, mu, mode=mode), theta)
            h = float(shifted.support(theta[None, :])[0])
            budget = (res.error_estimate + float(shifted.support_error(theta[None, :])[0])
                      + shift_err)
            assert abs(res.value + h) <= budget, (alpha, mode, K.volume)
