from __future__ import annotations

import dataclasses
import hashlib
import itertools
import math
import tracemalloc

import numpy as np
import pytest
from scipy import integrate

import projbodies as pb
from conftest import gauss_edge_weight


def test_builtin_flags(gauss2, leb2):
    assert gauss2.even and gauss2.radially_decreasing
    assert leb2.radially_nondecreasing and leb2.radially_decreasing
    rp = pb.radial_power(2, 1.5)
    assert rp.radially_nondecreasing and rp.even
    mu = pb.exp_norm(pb.cube(2))
    assert mu.even and "log_concave" in mu.concavity


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("build", [
    pb.lebesgue, pb.gaussian, lambda n: pb.exp_norm(pb.cube(n, 0.7)),
    lambda n: pb.radial_power(n, 0.5), lambda n: pb.radial_power(n, 2.0)],
    ids=["lebesgue", "gaussian", "exp_norm", "radial_power(0.5)",
         "radial_power(2)"])
def test_builtin_flags_pass_probes(build, n):
    """Builtins skip the probe check at construction; their flags must
    still pass it."""
    from projbodies.measures import _certify_flags
    mu = build(n)
    assert _certify_flags(mu) is mu


def test_flag_certification_rejects_lies():
    with pytest.raises(pb.ConfigurationError):
        pb.custom_density(
            2,
            eval=lambda p: np.atleast_2d(p)[:, 0] + 10.0,  # not even
            grad=lambda p: np.zeros_like(np.atleast_2d(p)),
            even=True)


def _zero_grad(p):
    return np.zeros_like(np.atleast_2d(p), dtype=float)


@pytest.mark.parametrize("ev,flags,message", [
    (lambda p: -np.ones(len(np.atleast_2d(p))), {}, "finite and >= 0"),
    (lambda p: np.exp(-np.sum(np.atleast_2d(p) ** 2, axis=1)),
     {"radially_nondecreasing": True}, "radially_nondecreasing flag violated"),
    (lambda p: np.sum(np.atleast_2d(p) ** 2, axis=1),
     {"radially_decreasing": True}, "radially_decreasing flag violated"),
], ids=["negative", "nondecreasing", "decreasing"])
def test_flag_certification_rejects_each_lie(ev, flags, message):
    """A negative density, exp(-|x|^2) declared radially non-decreasing and
    |x|^2 declared radially decreasing each fail their probe."""
    with pytest.raises(pb.ConfigurationError, match=message):
        pb.custom_density(2, eval=ev, grad=_zero_grad, **flags)


@pytest.mark.parametrize("alpha", [math.inf, math.nan, -1.0])
def test_radial_power_needs_a_finite_nonnegative_alpha(alpha):
    with pytest.raises(pb.ConfigurationError, match="finite alpha >= 0"):
        pb.radial_power(2, alpha)


def test_gradient_consistency(gauss2):
    """Central differences match the declared gradient at smooth points."""
    gen = pb.RandomStream(5).generator()
    pts = gen.standard_normal((100, 2))
    h = 1e-6
    for mu in (gauss2, pb.radial_power(2, 2.0)):
        g = mu.grad(pts)
        for j in range(2):
            e = np.zeros(2)
            e[j] = h
            fd = (mu.eval(pts + e) - mu.eval(pts - e)) / (2 * h)
            tol = np.maximum(1e-6, 1e-4 * np.abs(g[:, j]))
            assert np.all(np.abs(fd - g[:, j]) <= tol + 1e-5)


def test_exp_norm_gradient_off_kinks():
    mu = pb.exp_norm(pb.cube(2))
    pts = np.array([[0.5, 0.1], [-0.7, 0.2], [0.1, 0.9]])
    g = mu.grad(pts)
    h = 1e-7
    for j in range(2):
        e = np.zeros(2)
        e[j] = h
        fd = (mu.eval(pts + e) - mu.eval(pts - e)) / (2 * h)
        assert np.allclose(fd, g[:, j], atol=1e-5)


def test_measure_body_lebesgue_exact(triangle, leb2):
    res = pb.measure_body(leb2, triangle)
    assert res.value == pytest.approx(0.5) and res.error_estimate == 0.0


def test_measure_body_gaussian_square(square, gauss2, stream):
    res = pb.measure_body(gauss2, square, stream, 200_000)
    truth = (2 * pb.gaussian_cdf(1.0) - 1) ** 2
    assert abs(res.value - truth) <= res.error_estimate
    rerun = pb.measure_body(gauss2, square, stream, 200_000)
    assert rerun.value == res.value  # bit-identical per stream


def test_exp_norm_total_mass(square):
    mu = pb.exp_norm(square)
    res = pb.total_mass(mu, body=square)
    assert abs(res.value - 2 * 4.0) < 1e-6  # n! Vol(K) = 2 * 4
    hexagon = pb.difference_body(pb.standard_simplex(2))
    mu = pb.exp_norm(hexagon)
    res = pb.total_mass(mu, body=hexagon)
    assert abs(res.value - 2 * hexagon.volume) < 1e-6


@pytest.mark.parametrize("body", [pb.cube(3), pb.cross_polytope(3)],
                         ids=["cube", "cross_polytope"])
def test_exp_norm_total_mass_on_a_sphere_grid(body):
    """n = 3 sums Gamma(n) rho_L^n over a direction grid: n! Vol(L)."""
    res = pb.total_mass(pb.exp_norm(body), grid=pb.sphere_directions(3, 4096),
                        body=body)
    assert abs(res.value - 6.0 * body.volume) <= res.error_estimate


def test_facet_weights_lebesgue(square, triangle, leb2):
    w, e = pb.facet_weights(leb2, square)
    assert np.allclose(w, 2.0) and np.all(e == 0)
    w, _ = pb.facet_weights(leb2, triangle)
    assert sorted(w) == pytest.approx([1.0, 1.0, math.sqrt(2)])


def test_facet_weights_gaussian_square(square, gauss2):
    w, e = pb.facet_weights(gauss2, square, 1e-10)
    oracle = gauss_edge_weight()
    assert oracle == pytest.approx(0.16519, abs=1e-5)
    assert np.allclose(w, oracle, atol=1e-9)
    assert np.all(e < 1e-8)


def test_boundary_measure(square, triangle, gauss2, leb2):
    assert pb.boundary_measure(leb2, square).value == pytest.approx(8.0)
    assert pb.boundary_measure(leb2, triangle).value == pytest.approx(2 + math.sqrt(2))
    res = pb.boundary_measure(gauss2, square, 1e-10)
    assert res.value == pytest.approx(4 * gauss_edge_weight(), abs=1e-8)


def test_boundary_measure_cauchy_identity(square, gauss2):
    """mu(dK) = (1/kappa_{n-1}) integral of h_{Pi_mu K} over the sphere."""
    zon = pb.projection_zonoid(square, gauss2, tol=1e-10)
    grid = pb.sphere_directions(2, 8192)
    integral = float(np.sum(grid.weights * zon.support(grid.directions)))
    bm = pb.boundary_measure(gauss2, square, 1e-10)
    assert integral / 2.0 == pytest.approx(bm.value, rel=1e-6)


def test_facet_weights_3d_gaussian(cube3):
    g3 = pb.gaussian(3)
    w, e = pb.facet_weights(g3, cube3, 1e-8)
    # per-face oracle: pdf(1) * (2 Phi(1) - 1)^2 by separability
    pdf1 = math.exp(-0.5) / math.sqrt(2 * math.pi)
    oracle = pdf1 * (2 * pb.gaussian_cdf(1.0) - 1) ** 2
    assert np.allclose(w, oracle, atol=1e-7)
    assert np.all(e < 1e-6)


def test_radial_power_rejects_boundary_origin():
    rp = pb.radial_power(2, 0.5)
    K = pb.build_polytope([[0, 0], [1, 0], [0, 1]])  # origin on boundary
    with pytest.raises(pb.DomainError):
        pb.facet_weights(rp, K)


@pytest.mark.parametrize("fam_name", ["power", "log", "gaussian_phi_inverse"])
def test_family_derivative_consistency(fam_name):
    fam, hi = {"power": (pb.power_family(0.3), 4.0), "log": (pb.log_family(), 4.0),
               "gaussian_phi_inverse": (pb.gaussian_phi_inverse_family(), 1.0)}[fam_name]
    xs = np.linspace(0.05, hi - 0.05, 9)
    for x in xs:
        h = 1e-6 * max(1.0, abs(x))
        fd = (fam.F(x + h) - fam.F(x - h)) / (2 * h)
        assert abs(fd - fam.Fprime(x)) <= 1e-6 * max(1.0, abs(fam.Fprime(x)))
        assert fam.F(fam.Finv(fam.F(x))) == pytest.approx(fam.F(x), rel=1e-9)


def test_compose_linear(gauss2):
    T = pb.LinearMap(np.diag([2.0, 0.5]))
    muT = pb.compose_linear(gauss2, T)
    pts = pb.RandomStream(3).generator().standard_normal((50, 2))
    assert np.allclose(muT.eval(pts), gauss2.eval(pts @ T.matrix.T))
    g = muT.grad(pts)
    h = 1e-6
    for j in range(2):
        e = np.zeros(2)
        e[j] = h
        fd = (muT.eval(pts + e) - muT.eval(pts - e)) / (2 * h)
        assert np.allclose(fd, g[:, j], atol=1e-6)


# -- density kinds ------------------------------------------------------------

def _constant(c):
    return dict(eval=lambda p: c * np.ones(len(np.atleast_2d(p))),
                grad=lambda p: np.zeros_like(np.atleast_2d(p), dtype=float))


def test_label_does_not_select_lebesgue(square, stream):
    """A custom density labelled "lebesgue" takes the general paths."""
    mu = pb.custom_density(2, label="lebesgue", **_constant(5.0))
    assert mu.kind == "custom" and not mu.is_lebesgue
    res = pb.measure_body(mu, square, stream, 200_000)
    # a constant integrand has zero sample variance: allow roundoff only
    assert abs(res.value - 20.0) <= res.error_estimate + 1e-12
    assert res.evaluations == 200_000
    w, e = pb.facet_weights(mu, square, 1e-9)
    assert np.all(np.abs(w - 10.0) <= 1e-9) and np.all(e <= 1e-9)


def test_label_does_not_select_gaussian_mass(gauss2):
    g = gauss2.eval
    mu = pb.custom_density(2, eval=lambda p: 3.0 * g(p),
                           grad=lambda p: 3.0 * gauss2.grad(p),
                           label="gaussian", even=True)
    with pytest.raises(pb.DomainError):
        pb.total_mass(mu)
    assert pb.total_mass(gauss2).value == 1.0


def test_density_kinds(gauss2):
    assert pb.lebesgue(2).kind == "lebesgue" and gauss2.kind == "gaussian"
    assert pb.exp_norm(pb.cube(2)).kind == "exp_norm"
    assert pb.radial_power(2, 1.0).kind == "radial_power"
    assert pb.compose_linear(gauss2, np.eye(2)).kind == "custom"
    assert dataclasses.replace(gauss2, eval=gauss2.eval).kind == "gaussian"
    with pytest.raises(pb.ConfigurationError):
        pb.custom_density(2, kind="lebesgue", **_constant(1.0))


def test_radial_power_label_on_custom_density_is_not_rejected():
    K = pb.build_polytope([[0, 0], [1, 0], [0, 1]])  # origin on boundary
    mu = pb.custom_density(2, label="radial_power(1.0)", **_constant(1.0))
    w, _ = pb.facet_weights(mu, K)
    assert sorted(w) == pytest.approx([1.0, 1.0, math.sqrt(2)], abs=1e-9)


# -- facet cubature -----------------------------------------------------------

def test_facet_weights_4d_gaussian():
    """Red refinement of tetrahedra: cube(4) facets against the product form."""
    tol = 1e-5
    w, e = pb.facet_weights(pb.gaussian(4), pb.cube(4), tol)
    pdf1 = math.exp(-0.5) / math.sqrt(2 * math.pi)
    oracle = pdf1 * (2 * pb.gaussian_cdf(1.0) - 1) ** 3
    assert len(w) == 8
    assert np.all(np.abs(w - oracle) <= e) and np.all(e <= tol)


def test_facet_integrals_counts_every_point(cube3, gauss2, square):
    for K, mu in ((cube3, pb.gaussian(3)), (square, gauss2)):
        received = []

        def fn(p):
            received.append(len(p))
            return mu.eval(p)

        _, _, evals = pb.measures.facet_integrals(K, fn, 1e-7)
        assert evals == sum(received) > 0


def test_facet_integrals_depth_exhausted(square):
    """A jump at y = 1/3, never on a midpoint, keeps the gap of the simplex
    across it at a fixed fraction of its value: neither the budget 0 nor the
    relative floor is ever met there."""
    with pytest.raises(pb.QuadratureFailure) as info:
        pb.measures.facet_integrals(
            square, lambda p: np.where(p[:, 1] > 1.0 / 3.0, 2.0, 1.0), 0.0)
    assert info.value.best.evaluations > 0


def test_facet_integrals_non_finite_point_on_facet(square):
    """phi is infinite on the upper half of the facet x = 1."""
    def fn(p):
        return np.where((p[:, 0] > 0.999) & (p[:, 1] > 0.5), np.inf, 1.0)

    with pytest.raises(pb.EvaluationError) as info:
        pb.measures.facet_integrals(square, fn, 1e-9)
    x, y = info.value.point
    assert x == pytest.approx(1.0) and 0.5 < y <= 1.0


def test_facet_integrals_memory_is_bounded(cube3):
    """Refinement runs in bounded batches, not whole levels at once."""
    g = pb.gaussian(3)
    tracemalloc.start()
    try:
        pb.measures.facet_integrals(cube3, g.eval, 1e-8)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 32e6


def _reference_integral(fn, spx, budget):
    """One simplex at a time on an explicit stack, each child's rule value
    kept as its coarse value: the arithmetic and order of the batched code."""
    d = len(spx) - 1
    bary, w = pb.measures._grundmann_moller(d)
    floor = pb.measures._ROUNDOFF_ULPS * np.finfo(float).eps

    def value(s):
        return float(np.sum(fn(bary @ s) * w)) * pb.bodies.simplex_measure(s)

    def split(s):
        mid = {(i, j): 0.5 * (s[i] + s[j]) for i in range(d + 1)
               for j in range(i, d + 1)}
        return [np.array([mid[min(i, j), max(i, j)] for i, j in kid])
                for kid in pb.measures._CHILDREN[d]]

    total = err = 0.0
    evals = len(w)
    stack = [(spx, value(spx), budget, 0)]
    while stack:
        s, coarse, b, depth = stack.pop()
        kids = split(s)
        kid_vals = [value(k) for k in kids]
        evals += len(w) * len(kids)
        fine = 0.0
        for v in kid_vals:
            fine += v
        local_err = abs(fine - coarse) + floor * abs(fine)
        if local_err <= b or depth >= pb.measures._MAX_DEPTH:
            total += fine
            err += local_err
        else:
            stack += [(k, v, b / len(kids), depth + 1)
                      for k, v in zip(kids, kid_vals)]
    return total, err, evals


@pytest.mark.parametrize("n,tol", [(2, 1e-10), (3, 1e-6)])
def test_facet_integrals_match_per_simplex_reference(n, tol):
    K = pb.random_polytope(n, pb.RandomStream(77).substream(n))
    mu = pb.gaussian(n)
    values, errors, evals = pb.measures.facet_integrals(K, mu.eval, tol)
    ref_values, ref_errors = np.zeros(len(values)), np.zeros(len(values))
    ref_evals = 0
    counts = np.bincount(K.simplex_facet)
    for i, spx in zip(K.simplex_facet, K.facet_simplices):
        v, e, ne = _reference_integral(mu.eval, spx, tol / counts[i])
        ref_values[i] += v
        ref_errors[i] += e
        ref_evals += ne
    assert evals == ref_evals
    # the same arithmetic in the same order
    assert np.array_equal(values, ref_values)
    assert np.array_equal(errors, ref_errors)


def test_facet_integrals_independent_of_batch_size(cube3, monkeypatch):
    g = pb.gaussian(3)
    K = pb.random_polytope(3, pb.RandomStream(424242).substream(20))
    full = [pb.measures.facet_integrals(B, g.eval, 1e-6) for B in (K, cube3)]
    monkeypatch.setattr(pb.measures, "_BATCH", 5)
    for B, (values, errors, evals) in zip((K, cube3), full):
        v, e, ne = pb.measures.facet_integrals(B, g.eval, 1e-6)
        assert np.array_equal(v, values) and np.array_equal(e, errors)
        assert ne == evals


@pytest.mark.parametrize("n", [2, 3, 4])
def test_builtin_densities_match_row_formulas(n):
    p = np.random.default_rng(40 + n).standard_normal((20_000, n)) * 2.0
    norm = (2.0 * np.pi) ** (-n / 2.0)
    g = pb.gaussian(n)
    assert np.array_equal(g.eval(p), norm * np.exp(-0.5 * np.sum(p * p, axis=1)))
    assert g.grad(p).tobytes() == (-p * g.eval(p)[:, None]).tobytes()
    r = np.linalg.norm(p, axis=1)
    for alpha in (0.5, 2.0):
        mu = pb.radial_power(n, alpha)
        assert np.array_equal(mu.eval(p), r ** alpha)
        assert (mu.grad(p).tobytes()
                == (alpha * r[:, None] ** (alpha - 2.0) * p).tobytes())
    L = pb.random_polytope(n, pb.RandomStream(77).substream(n), symmetric=True)
    U = L.normals / L.offsets[:, None]
    assert np.array_equal(pb.exp_norm(L).eval(p),
                          np.exp(-np.max(p @ U.T, axis=1)))


@pytest.mark.parametrize("d", [1, 2, 3])
def test_grundmann_moller_rule_is_exact_to_degree_9(d):
    """Barycentric monomials b^alpha integrate over the simplex (measure 1)
    to d! alpha! / (d + |alpha|)!, exactly up to |alpha| = 9."""
    bary, w = pb.measures._grundmann_moller(d)
    assert len(w) == {1: 15, 2: 35, 3: 70}[d]
    assert np.allclose(bary.sum(axis=1), 1.0, rtol=0, atol=2e-16)
    assert abs(math.fsum(w) - 1.0) <= 1e-15
    degree_10 = []
    for alpha in itertools.product(range(11), repeat=d + 1):
        k = sum(alpha)
        if k > 10:
            continue
        exact = (math.factorial(d) * math.prod(map(math.factorial, alpha))
                 / math.factorial(d + k))
        rel = abs(math.fsum(w * np.prod(bary ** np.array(alpha), axis=1))
                  - exact) / exact
        if k <= 9:
            assert rel <= 1e-13, alpha
        else:
            degree_10.append(rel)
    assert max(degree_10) > 1e-6   # degree 9, not more


def _gauss_legendre_facet_integrals(K, fn, order=40):
    """Facet integrals by a tensor Gauss-Legendre rule on each facet simplex
    (collapsed onto the triangle in 3-D), summed with math.fsum: a reference
    that shares no rule or refinement with ``facet_integrals``."""
    x, gw = np.polynomial.legendre.leggauss(order)
    x, gw = (x + 1.0) / 2.0, gw / 2.0
    parts = [[] for _ in range(K.facet_count)]
    for i, spx in zip(K.simplex_facet, K.facet_simplices):
        if len(spx) == 2:
            p = spx[0] + x[:, None] * (spx[1] - spx[0])
            parts[i] += list(fn(p) * gw * np.linalg.norm(spx[1] - spx[0]))
        else:
            s, t = (a.ravel() for a in np.meshgrid(x, x, indexing="ij"))
            p = (spx[0] + s[:, None] * (spx[1] - spx[0])
                 + (s * t)[:, None] * (spx[2] - spx[1]))
            jac = np.linalg.norm(np.cross(spx[1] - spx[0], spx[2] - spx[1]))
            parts[i] += list(fn(p) * np.outer(gw, gw).ravel() * s * jac)
    return np.array([math.fsum(part) for part in parts])


@pytest.mark.parametrize("tol", [1e-5, 1e-11])
def test_facet_integral_errors_bound_the_true_error(tol):
    """On c04's bodies, cube(2) and cube(3), for phi and phi^2, the error
    reported for each facet is at least its distance to a tight reference."""
    stream = pb.RandomStream(424242)
    bodies = [pb.random_polytope(2, stream.substream(i)) for i in range(6)]
    bodies += [pb.random_polytope(2, stream.substream(10 + i), symmetric=True)
               for i in range(6)]
    bodies += [pb.random_polytope(3, stream.substream(20 + i)) for i in range(4)]
    bodies += [pb.random_polytope(3, stream.substream(30 + i), symmetric=True)
               for i in range(4)]
    for K in bodies + [pb.cube(2), pb.cube(3)]:
        g = pb.gaussian(K.n)
        for fn in (g.eval, lambda p, g=g: g.eval(p) ** 2):
            values, errors, _ = pb.measures.facet_integrals(K, fn, tol)
            truth = _gauss_legendre_facet_integrals(K, fn)
            assert np.all(np.abs(values - truth) <= errors)
            assert np.all(errors <= tol)


@pytest.mark.parametrize("shape", [(0, 2, 2), (0, 3, 2), (0, 3, 4)])
def test_simplex_integrals_of_no_simplices_are_empty(shape):
    """No simplices (a stack of translations that all miss DK) give empty
    values and errors and 0 evaluations, without calling fn."""
    def fn(p):
        raise AssertionError("fn called")

    values, errors, evaluations = pb.measures.simplex_integrals(
        np.zeros(shape), np.zeros(0, dtype=int), fn, 1e-9)
    assert values.shape == errors.shape == (0,) and evaluations == 0


# sha256 of values.tobytes() + errors.tobytes() (first 16 hex digits) and the
# evaluations of facet_integrals on c04's 3-D bodies and cube(3), for
# gamma_3's phi at tol 1e-5, its flux at 1e-9 and phi at 1e-12.  Recorded
# when ``bodies.simplex_measure`` took the Cauchy-Binet minors in place of
# sqrt(det Gram): every value moved by at most 6.2e-15 relative, and every
# evaluation count stayed.
FACET_INTEGRAL_BITS = [
    [("5e93c53012ec8d6e", 2100), ("002b7a000e7c4c68", 3220), ("6bb23e1e5da93b01", 26180)],
    [("e120d5f61115a4b8", 4900), ("cce4912543f6ddbe", 18340), ("52c1c89c71f07dce", 132020)],
    [("2c590e4968db55b8", 3220), ("4448c11a484a9b64", 13300), ("edbb80f6e1317042", 98980)],
    [("84b838a21d8deb7e", 2800), ("80c3002ff16f4162", 7280), ("e38f9013173baa8e", 42000)],
    [("3d6898c4a3289312", 4900), ("adf44974f34609c1", 8260), ("1e9bd36cc81140b0", 51940)],
    [("37538b18444e2b49", 2800), ("c5a0a6dd76e83b65", 12880), ("ea52168724d83f64", 87920)],
    [("1a494db0837f13c6", 5320), ("e14fc7f82aea18db", 17640), ("d154085e53954282", 119560)],
    [("c76efbf3b7751f69", 4200), ("62d8f06647b709b1", 8680), ("bb60375721763ffd", 54600)],
    [("696175672b2a75a6", 2100), ("2f95c989f1bd828e", 8820), ("65f136cf7962cb5d", 49140)],
]


def test_facet_integrals_keep_their_bits():
    stream = pb.RandomStream(424242)
    bodies = [pb.random_polytope(3, stream.substream(20 + i)) for i in range(4)]
    bodies += [pb.random_polytope(3, stream.substream(30 + i), symmetric=True)
               for i in range(4)]
    g = pb.gaussian(3)
    for K, recorded in zip(bodies + [pb.cube(3)], FACET_INTEGRAL_BITS):
        for (fn, tol), (digest, evaluations) in zip(
                ((g.eval, 1e-5), (g.flux, 1e-9), (g.eval, 1e-12)), recorded):
            values, errors, evals = pb.measures.facet_integrals(K, fn, tol)
            got = hashlib.sha256(values.tobytes() + errors.tobytes()).hexdigest()
            assert (got[:16], evals) == (digest, evaluations)


# -- mu(K) by the divergence theorem ------------------------------------------

ERF = math.erf(1.0 / math.sqrt(2.0))


@pytest.mark.parametrize("mu,K,ref", [
    (pb.gaussian(2), pb.cube(2), ERF ** 2),
    (pb.gaussian(3), pb.cube(3), ERF ** 3),
    (pb.radial_power(2, 1.0), pb.cube(2),
     4.0 / 3.0 * (math.sqrt(2.0) + math.asinh(1.0))),
], ids=["gaussian-cube2", "gaussian-cube3", "norm-cube2"])
def test_flux_measure_matches_closed_forms(mu, K, ref):
    """No stream is passed: the radial builtins never sample."""
    res = pb.measure_body(mu, K)
    assert abs(res.value - ref) <= res.error_estimate <= 1e-9
    assert res.evaluations > 0


def _triangle_dblquad(fn, a, b, c):
    """∫ fn over the triangle abc by scipy's dblquad on the unit triangle."""
    from scipy.integrate import dblquad
    a, b, c = (np.asarray(v, dtype=float) for v in (a, b, c))
    jac = abs(np.linalg.det(np.array([b - a, c - a])))

    def g(t, s):
        return float(fn((a + s * (b - a) + t * (c - a))[None, :])[0])

    return jac * dblquad(g, 0.0, 1.0, 0.0, lambda s: 1.0 - s,
                         epsabs=1e-14, epsrel=1e-13)[0]


def _polygon_dblquad(fn, K):
    """∫ fn over a planar polytope, fanned into triangles from one vertex."""
    c = K.vertices.mean(axis=0)
    ang = np.arctan2(*(K.vertices - c).T[::-1])
    v = K.vertices[np.argsort(ang)]
    return sum(_triangle_dblquad(fn, v[0], v[i], v[i + 1])
               for i in range(1, len(v) - 1))


@pytest.mark.parametrize("mu", [pb.gaussian(2), pb.radial_power(2, 1.0),
                                pb.radial_power(2, 0.5)],
                         ids=["gaussian", "norm", "sqrt_norm"])
@pytest.mark.parametrize("points", [
    [[0.5, 0.2], [2.0, 0.5], [1.0, 1.5]],
    [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]],
    [[-1.0, 0.0], [1.0, 0.0], [0.6, 1.0], [-0.4, 0.8]],
], ids=["origin-outside", "origin-at-vertex", "origin-at-edge-midpoint"])
def test_flux_measure_matches_dblquad(mu, points):
    """The origin outside K, at a vertex (two facets with b = 0, where
    |x|^alpha has its kink) and at an edge midpoint, where a rule node
    lands on y = 0."""
    K = pb.build_polytope(points)
    res = pb.measure_body(mu, K)
    assert abs(res.value - _polygon_dblquad(mu.eval, K)) <= res.error_estimate


def test_facets_through_the_origin_are_never_refined():
    """At a tight tol the hypotenuse of the standard triangle refines, but
    each leg (b = 0) is evaluated at its root rule and its two children
    only: 45 nodes a leg."""
    mu = pb.radial_power(2, 1.0)
    seen = []

    def flux(p):
        seen.append(p.copy())
        return mu.flux(p)

    res = pb.measure_body(dataclasses.replace(mu, flux=flux),
                          pb.standard_simplex(2), tol=1e-13)
    nodes = np.concatenate(seen)
    on_legs = np.count_nonzero((nodes[:, 0] == 0.0) | (nodes[:, 1] == 0.0))
    assert on_legs == 2 * (15 + 30)
    assert res.evaluations == len(nodes) > 3 * 45


def _pooled_monte_carlo(mu, K, runs=20, N=200_000):
    """mu(K) from ``runs`` independent box Monte Carlo runs: a flux-free
    copy of mu takes the sampling route.  Returns (mean, 3 sigma)."""
    plain = dataclasses.replace(mu, flux=None)
    parts = [pb.measure_body(plain, K, pb.RandomStream(97, i), N)
             for i in range(runs)]
    assert all(r.evaluations == N for r in parts)
    mean = math.fsum(r.value for r in parts) / runs
    sigma = math.sqrt(math.fsum((r.error_estimate / 3.0) ** 2 for r in parts)) / runs
    return mean, 3.0 * sigma


def test_flux_measure_matches_monte_carlo_on_a_rotated_c04_body():
    """A c04 3-D body under a rotation: the Gaussian measure agrees with
    4M box samples within 3 sigma, and with the unrotated body's value
    within both cubature budgets."""
    K = pb.random_polytope(3, pb.RandomStream(424242).substream(20))
    R = pb.LinearMap.rotation_3d([1.0, 2.0, -0.5], 1.1)
    KR = pb.apply_linear(K, R)
    mu = pb.gaussian(3)
    res = pb.measure_body(mu, KR)
    mean, budget = _pooled_monte_carlo(mu, KR)
    assert abs(res.value - mean) <= budget
    base = pb.measure_body(mu, K)
    assert abs(res.value - base.value) <= res.error_estimate + base.error_estimate


def test_flux_measure_on_large_bodies():
    """Far from unit scale the absolute budget tol / (m |b_i|) falls below
    the cubature's roundoff floor; the relative floor still returns a value
    within its error of the reference.  100 cube(2) against the scaled
    closed form of the norm's integral, 30 cube(3) against 4M box samples
    and against 30^4 times the unit cube's value."""
    mu2 = pb.radial_power(2, 1.0)
    res = pb.measure_body(mu2, pb.build_polytope(100.0 * pb.cube(2).vertices))
    ref = 100.0 ** 3 * 4.0 / 3.0 * (math.sqrt(2.0) + math.asinh(1.0))
    assert abs(res.value - ref) <= res.error_estimate <= 1e-12 * ref

    mu3 = pb.radial_power(3, 1.0)
    K = pb.build_polytope(30.0 * pb.cube(3).vertices)
    res = pb.measure_body(mu3, K)
    mean, budget = _pooled_monte_carlo(mu3, K)
    assert abs(res.value - mean) <= budget
    unit = pb.measure_body(mu3, pb.cube(3))
    assert (abs(res.value - 30.0 ** 4 * unit.value)
            <= res.error_estimate + 30.0 ** 4 * unit.error_estimate)


def test_facet_integrals_relative_floor_meets_unreachable_budgets(square, gauss2):
    """A budget far below the roundoff floor is never met on its own; the
    relative floor stops each simplex within 1e-12 of its value.  The edge
    weight is e^{-1/2} erf(1/sqrt 2) / sqrt(2 pi)."""
    values, errors, _ = pb.measures.facet_integrals(square, gauss2.eval, 1e-30)
    ref = math.exp(-0.5) * ERF / math.sqrt(2.0 * math.pi)
    assert np.all(np.abs(values - ref) <= errors)
    assert np.all(errors <= 1e-12 * values)


@pytest.mark.parametrize("R", [400.0, 1000.0])
def test_facet_weights_on_large_bodies(R):
    """At the default tol the budget of R cube(2)'s edges falls below the
    roundoff floor; each edge weight of |x| is R^2 (sqrt 2 + asinh 1)."""
    K = pb.build_polytope(R * pb.cube(2).vertices)
    w, e = pb.facet_weights(pb.radial_power(2, 1.0), K)
    ref = R ** 2 * (math.sqrt(2.0) + math.asinh(1.0))
    assert np.all(np.abs(w - ref) <= e) and np.all(e <= 1e-12 * ref)


def test_flux_is_builtin_only(gauss2):
    for field in ("flux", "radial_moment"):
        with pytest.raises(pb.ConfigurationError):
            pb.custom_density(2, **{field: getattr(gauss2, field)}, **_constant(1.0))
        assert getattr(pb.compose_linear(gauss2, np.eye(2)), field) is None
        assert getattr(pb.lebesgue(2), field) is None
        assert getattr(pb.exp_norm(pb.cube(2)), field) is None


def test_smooth_is_builtin_only():
    """Only builtins whose phi is smooth on all of R^n are ``smooth``: a
    custom density cannot declare it, and cusped or kinked ones are not."""
    with pytest.raises(pb.ConfigurationError):
        pb.custom_density(2, smooth=True, **_constant(1.0))
    for mu in (pb.lebesgue(2), pb.gaussian(2), pb.gaussian(3), pb.radial_power(2, 0.0),
               pb.radial_power(2, 2.0), pb.radial_power(3, 4.0)):
        assert mu.smooth, mu
    for mu in (pb.radial_power(2, 0.5), pb.radial_power(2, 1.0), pb.radial_power(2, 3.0),
               pb.exp_norm(pb.cube(2)), pb.compose_linear(pb.gaussian(2), np.eye(2)),
               pb.custom_density(2, **_constant(1.0))):
        assert not mu.smooth, mu


# (a, b): pieces at the origin, tiny ones, unit ones and in the Gaussian's tail
RADIAL_PIECES = [(0.0, 0.7), (0.0, 4.0), (0.0, 1e-8), (1e-8, 3e-8), (0.5, 1.5),
                 (1.0, 2.0), (30.0, 31.0), (30.0, 45.0)]


@pytest.mark.parametrize("mu", [pb.gaussian(2), pb.gaussian(3)]
                         + [pb.radial_power(2, alpha) for alpha in (0.0, 0.25, 1.0, 2.0)],
                         ids=lambda mu: f"{mu.label}-n{mu.n}")
def test_radial_moment_matches_quad(mu):
    """∫_a^b r^j psi(r) dr, j = 0 .. 3, against adaptive quadrature of the
    density's own values along an axis."""
    def psi(r):
        return mu.eval(np.eye(mu.n)[:1] * r)[0]

    a, b = np.array(RADIAL_PIECES).T
    for j in range(4):
        got = mu.radial_moment(j, a, b)
        for lo, hi, value in zip(a, b, got):
            ref = integrate.quad(lambda r: r ** j * psi(r), lo, hi,
                                 epsabs=0.0, epsrel=2e-14, limit=200)[0]
            assert value == pytest.approx(ref, rel=1e-13, abs=0.0), (j, lo, hi)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_gaussian_flux_is_the_ball_mass_over_the_sphere(n):
    """G(y) |y|^n n kappa_n is gamma_n of the ball of radius |y|, and G
    tends to (2 pi)^(-n/2) / n at 0."""
    flux = pb.gaussian(n).flux
    r = np.array([0.0, 1e-12, 1e-3, 0.5, 1.0, 3.0, 8.0])
    y = np.zeros((len(r), n))
    y[:, -1] = r
    G = flux(y)
    limit = (2.0 * math.pi) ** (-n / 2.0) / n
    assert G[0] == limit and G[1] == pytest.approx(limit, rel=1e-15)
    area = n * math.pi ** (n / 2.0) / math.gamma(n / 2.0 + 1.0)
    for ri, Gi in zip(r[2:], G[2:]):
        assert Gi * ri ** n * area == pytest.approx(pb.gaussian_ball_mass(n, ri),
                                                    rel=1e-13)
