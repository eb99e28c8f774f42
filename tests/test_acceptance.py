"""Acceptance suite: one test per criterion, one printed verdict line each.

Everything here pins its tolerance explicitly; Monte Carlo checks compare
against three times the combined propagated budget.  Run with ``pytest -s
tests/test_acceptance.py`` to see the per-criterion lines.
"""

from __future__ import annotations

import json
import math
import time

import numpy as np
import pytest

import projbodies as pb
from projbodies import cli
from conftest import gauss_edge_weight

SEED = 424242


def _line(num, name, ok, detail=""):
    verdict = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num:>3} {name:<38} {verdict}  {detail}")
    return ok


@pytest.fixture(scope="module")
def random_bodies():
    """20 random polytopes: 12 planar (6 symmetric), 8 spatial (4 symmetric)."""
    stream = pb.RandomStream(SEED)
    bodies = []
    for i in range(6):
        bodies.append(pb.random_polytope(2, stream.substream(i)))
    for i in range(6):
        bodies.append(pb.random_polytope(2, stream.substream(10 + i),
                                         symmetric=True))
    for i in range(4):
        bodies.append(pb.random_polytope(3, stream.substream(20 + i)))
    for i in range(4):
        bodies.append(pb.random_polytope(3, stream.substream(30 + i),
                                         symmetric=True))
    return bodies


def test_c01_zhang_equality_simplex():
    t0 = time.time()
    ok = True
    details = []
    for n, target in ((2, 1.5), (3, 20 / 27)):
        K = pb.standard_simplex(n)
        grid = pb.sphere_directions(n, 4096)
        pv = pb.zonoid_polar_volume(pb.projection_zonoid(K), grid)
        product = K.volume ** (n - 1) * pv
        details.append(f"n={n}: {product:.6f} vs {target:.6f}")
        ok &= abs(product - target) <= 1e-3 * target
    elapsed = time.time() - t0
    ok &= elapsed < 5.0
    assert _line(1, "zhang equality (simplex)", ok,
                 "; ".join(details) + f"; {elapsed:.2f}s")


def test_c02_petty_equality_ball():
    gon = pb.regular_polygon(256)
    pv = pb.zonoid_polar_volume(pb.projection_zonoid(gon),
                                pb.sphere_directions(2, 4096))
    product2 = gon.volume * pv
    target2 = (math.pi / 2) ** 2
    ok = abs(product2 - target2) <= 0.01 * target2
    rep = pb.verify("zhang_petty", pb.Ball(3, 1.0))
    product3 = rep.witnesses["product"].value
    ok &= abs(product3 - (4 / 3) ** 3) <= 1e-6
    rep2 = pb.verify("zhang_petty", pb.Ball(2, 1.0))
    ok &= abs(rep2.witnesses["product"].value - target2) <= 1e-6
    assert _line(2, "petty equality (ball)", ok,
                 f"256-gon {product2:.5f} vs {target2:.5f}; "
                 f"ball3 {product3:.7f} vs {(4 / 3) ** 3:.7f}")


def test_c03_rogers_shephard_equality():
    ok = True
    for n, target in ((2, 6.0), (3, 20.0)):
        K = pb.standard_simplex(n)
        ratio = pb.difference_body(K).volume / K.volume
        ok &= abs(ratio - target) <= 1e-9
    assert _line(3, "rogers-shephard equality", ok)


def test_c04_brightness_identities(random_bodies):
    t0 = time.time()
    gen = pb.RandomStream(SEED + 1).generator()
    stream = pb.RandomStream(SEED + 2)
    worst_exact = 0.0
    worst_ratio = 0.0
    checks = 0
    for bi, K in enumerate(random_bodies):
        n = K.n
        gauss = pb.gaussian(n)
        thetas = gen.standard_normal((16, n))
        thetas /= np.linalg.norm(thetas, axis=1, keepdims=True)
        zon = pb.projection_zonoid(K, gauss, tol=1e-7)
        off = pb.offset_vector(K, gauss, tol=1e-7)
        zon_off = zon.with_offset(off.value)
        zon_leb = pb.projection_zonoid(K)
        modes = [("plain", None, zon_off, off.error_estimate)]
        if K.is_symmetric():
            modes.append(("polarized", None, zon, 0.0))
        tau = pb.offset_vector(K, gauss, f=gauss,
                               stream=stream.substream(900 + bi), N=100_000)
        zon_f = pb.projection_zonoid(K, gauss, f=gauss, tol=1e-7)
        modes.append(("functional", gauss, zon_f.with_offset(tau.value),
                      tau.error_estimate))
        for di, theta in enumerate(thetas):
            # exact Lebesgue path
            fd = pb.brightness_derivative(pb.CovariogramQuery(K), theta)
            h_leb = float(zon_leb.support(theta[None, :])[0])
            worst_exact = max(worst_exact, abs(fd.value + h_leb))
            # Monte Carlo gaussian paths
            for mode, f, z, off_err in modes:
                q = pb.CovariogramQuery(K, gauss, f, mode=mode,
                                        stream=stream.substream(1000 * bi + di),
                                        N=200_000)
                fd = pb.brightness_derivative(q, theta)
                h_val = float(z.support(theta[None, :])[0])
                h_err = float(z.support_error(theta[None, :])[0])
                resid = abs(fd.value + h_val)
                budget = math.sqrt(fd.error_estimate ** 2 + h_err ** 2
                                   + off_err ** 2)
                worst_ratio = max(worst_ratio, resid / (3 * budget))
                checks += 1
    elapsed = time.time() - t0
    ok = worst_exact <= 1e-6 and worst_ratio <= 1.0 and elapsed < 180
    assert _line(4, "brightness identities", ok,
                 f"exact worst {worst_exact:.2e}; MC worst ratio "
                 f"{worst_ratio:.2f} over {checks} checks; {elapsed:.0f}s")


def test_c05_transform_law():
    grid = pb.sphere_directions(2, 512)
    maps = [pb.LinearMap.rotation_2d(0.7), pb.LinearMap(np.diag([2.0, 0.5])),
            pb.LinearMap(np.array([[1.0, 0.6], [0.0, 1.0]]))]
    leb, gauss = pb.lebesgue(2), pb.gaussian(2)
    worst_leb = worst_gau = 0.0
    for K in (pb.cube(2), pb.standard_simplex(2)):
        for T in maps:
            worst_leb = max(worst_leb,
                            pb.transform_law_residual(K, leb, T, grid))
            worst_gau = max(worst_gau,
                            pb.transform_law_residual(K, gauss, T, grid,
                                                      tol=1e-9))
    grid3 = pb.sphere_directions(3, 256)
    rot3 = pb.LinearMap.rotation_3d([1, 1, 0], 0.9)
    worst_leb = max(worst_leb, pb.transform_law_residual(
        pb.standard_simplex(3), pb.lebesgue(3), rot3, grid3))
    ok = worst_leb <= 1e-9 and worst_gau <= 1e-3
    assert _line(5, "transform law", ok,
                 f"lebesgue {worst_leb:.1e}, gaussian {worst_gau:.1e}")


def test_c06_exp_norm_scaling():
    hexagon = pb.difference_body(pb.standard_simplex(2))
    worst = 0.0
    mass_defect = 0.0
    for K in (pb.cube(2), hexagon):
        mu = pb.exp_norm(K)
        grid = pb.sphere_directions(2, 256)
        base = pb.projection_zonoid(K).support(grid.directions)
        for t in (0.5, 1.0, 2.0, 4.0):
            zon = pb.projection_zonoid(K.scale(t), mu, tol=1e-10)
            ratio = zon.support(grid.directions) / (t * math.exp(-t) * base)
            worst = max(worst, float(np.max(np.abs(ratio - 1.0))))
        total = pb.total_mass(mu, body=K, tol=1e-10)
        mass_defect = max(mass_defect,
                          abs(total.value - 2 * K.volume))
    ok = worst <= 1e-3 and mass_defect <= 1e-6
    assert _line(6, "exp_norm scaling", ok,
                 f"support ratio defect {worst:.1e}, mass defect "
                 f"{mass_defect:.1e}")


def test_c07_inclusion_chains():
    grid = pb.sphere_directions(2, 64)
    square, triangle = pb.cube(2), pb.standard_simplex(2)
    gen = pb.RandomStream(SEED + 3).generator()
    pentagon = None
    while pentagon is None or len(pentagon.vertices) != 5:
        pentagon = pb.build_polytope(gen.standard_normal((5, 2)))
    ok = True
    spread = None
    for K in (square, triangle, pentagon):
        rep = pb.inclusion_chain_report(K, [0, 1, 2], grid, tol=1e-9)
        ok &= rep.passed
        if K is triangle:
            spread = rep.witnesses["equality_spread"].value
            ok &= spread <= 1e-6
    ok &= abs(pb.c_np(2, 1) - 3.0) <= 1e-12
    ok &= abs(pb.c_np(2, 0) - math.exp(1.5)) <= 1e-12
    assert _line(7, "inclusion chains", ok,
                 f"simplex spread {spread:.1e}")


def test_c08_log_concave_zhang_and_surface():
    square, gauss = pb.cube(2), pb.gaussian(2)
    cfg = pb.RunConfig(seed=SEED)
    rep = pb.verify("log_concave_zhang", square, mu=gauss, precision=cfg)
    a = gauss_edge_weight()
    gamma_sq = (2 * pb.gaussian_cdf(1.0) - 1) ** 2
    ratio_oracle = gamma_sq ** 2 * (2 / a ** 2) / 4
    ok = rep.passed and rep.lhs == 0.5
    ok &= abs(rep.rhs - ratio_oracle) <= 0.01 * ratio_oracle
    ok &= abs(rep.witnesses["mu_K"].value - gamma_sq) <= 0.01 * gamma_sq
    srep = pb.verify("surface_lower_bound", square, mu=gauss, precision=cfg)
    ok &= srep.passed and abs(srep.lhs - math.pi ** 3) <= 1e-9
    ok &= abs(srep.rhs - 32.0) <= 0.01 * 32.0
    ok &= abs(srep.witnesses["mu_boundary"].value - 4 * a) <= 0.01 * 4 * a
    ok &= abs(srep.witnesses["polar_volume"].value - 2 / a ** 2) <= 0.01 * 2 / a ** 2
    assert _line(8, "log-concave zhang + surface bound", ok,
                 f"ratio {rep.rhs:.3f} (oracle {ratio_oracle:.3f}); "
                 f"surface {srep.rhs:.3f} >= {srep.lhs:.3f}")


def test_c09_ehrhard_bound():
    ok = abs(pb.ehrhard_bound_value(2, 0.0) - 2 / math.pi) <= 1e-8
    for n in (2, 3):
        for x in (-2.0, -1.0, 0.0, 1.0, 2.0):
            ok &= pb.ehrhard_bound_value(n, x) <= math.factorial(n) + 1e-9
    assert _line(9, "ehrhard bound", ok,
                 f"value(2,0) = {pb.ehrhard_bound_value(2, 0.0):.10f}")


def test_c10_isotropic_suite():
    leb, gauss = pb.lebesgue(2), pb.gaussian(2)
    square, cross = pb.cube(2), pb.cross_polytope(2)
    triangle = pb.standard_simplex(2)
    ok = pb.isotropy_residual(square, leb).residual <= 1e-12
    ok &= pb.isotropy_residual(cross, leb).residual <= 1e-12
    ok &= pb.isotropy_residual(pb.cube(3), pb.lebesgue(3)).residual <= 1e-12
    tri_res = pb.isotropy_residual(triangle, leb).residual
    ok &= abs(tri_res - 0.58579) <= 1e-5
    point, value, converged = pb.minimize_I(square, leb,
                                            stream=pb.RandomStream(SEED))
    ok &= converged and abs(value - 8.0) <= 1e-8
    ok &= np.max(np.abs(point.matrix - np.eye(2))) <= 1e-5
    # Thm-style volume sandwich; the square attains the upper bound 32
    prod_ok = True
    for K, mu in ((square, leb), (cross, leb), (square, gauss)):
        rep = pb.isotropic_volume_sandwich(K, mu)
        prod_ok &= rep.passed
    fine = pb.sphere_directions(2, 32768)
    pv = pb.zonoid_polar_volume(pb.projection_zonoid(square), fine)
    attained = 8.0 ** 2 * pv
    ok &= prod_ok and abs(attained - 32.0) <= 1e-6
    r1 = pb.reverse_isoperimetric(square, leb, pb.log_family(),
                                  cfg=pb.RunConfig(seed=SEED))
    r2 = pb.reverse_isoperimetric(square, gauss, pb.log_family(),
                                  cfg=pb.RunConfig(seed=SEED))
    ok &= r1.passed and abs(r1.lhs - 8.0) <= 1e-9 and abs(r1.rhs - 16.0) <= 1e-9
    a = gauss_edge_weight()
    gamma_sq = (2 * pb.gaussian_cdf(1.0) - 1) ** 2
    ok &= r2.passed
    ok &= abs(r2.lhs - 4 * a) <= 0.01 * 4 * a
    ok &= abs(r2.rhs - 8 * gamma_sq / 2) <= 0.01 * 8 * gamma_sq / 2
    assert _line(10, "isotropic suite", ok,
                 f"triangle residual {tri_res:.5f}; minimize value {value:.9f}; "
                 f"square product {attained:.7f}")


def _disk_mu_lambda(R):
    """(gamma_2)_lambda(R B^2) from the closed-form disk covariogram.

    g(t) = 2R^2 acos(t/2R) - (t/2) sqrt(4R^2 - t^2) is the covariogram of
    R B^2 at distance t; integrating it against the Gaussian in polar
    coordinates gives (1/(pi R^2)) * int_0^{2R} g(t) exp(-t^2/2) t dt.
    """
    from scipy.integrate import quad

    def integrand(t):
        g = (2 * R * R * math.acos(t / (2 * R))
             - 0.5 * t * math.sqrt(4 * R * R - t * t))
        return g * math.exp(-t * t / 2) * t

    val, _ = quad(integrand, 0.0, 2 * R, points=[5.0, 10.0], limit=200,
                  epsabs=1e-13, epsrel=1e-13)
    return val / (math.pi * R * R)


def test_c11a_gaussian_sharpness_threshold():
    """Both sides of weak Zhang for gamma_2 approach 1 at R = 20 (n = 2).

    The Zhang side gamma_2(n Vol(K) Pi°K) must reach 0.99.  The
    translated average (gamma_2)_lambda(R B) is checked against an
    independent quadrature of the disk covariogram, and its deficit
    against the brightness law 1 - mu_lambda ~ sqrt(2/pi)/R: the slope
    of g at 0 is -h_{Pi K} = -2R, so the deficit decays like 1/R and the
    sequence tends to 1 (its 0.99 crossing lies near R = 79.8).
    """
    R = 20.0
    rows = pb.gaussian_sharpness_sweep([R], n=2)
    mu_val = rows[0]["mu_lambda"]
    zh_val = rows[0]["zhang_body_mass"]
    ref = _disk_mu_lambda(R)
    slope = R * (1.0 - mu_val)
    brightness = math.sqrt(2 / math.pi)
    ok = (zh_val >= 0.99 and abs(mu_val - ref) <= 1e-9
          and abs(slope - brightness) <= 5e-4)
    _line("11a", "sharpness limit at R=20", ok,
          f"mu_lambda {mu_val:.10f} vs disk covariogram {ref:.10f}; "
          f"R*deficit {slope:.6f} vs sqrt(2/pi) {brightness:.6f}; "
          f"zhang side {zh_val:.6f}")
    assert zh_val >= 0.99
    assert abs(mu_val - ref) <= 1e-9, (
        f"(gamma_2)_lambda(20 B) = {mu_val!r}, disk covariogram gives {ref!r}")
    assert abs(slope - brightness) <= 5e-4, (
        f"R*(1 - mu_lambda) = {slope:.6f}, brightness law {brightness:.6f}")


def test_c11b_gaussian_sharpness_monotone():
    rows = pb.gaussian_sharpness_sweep([1.0, 2.0, 5.0, 10.0, 20.0], n=2)
    mu_seq = np.array([r["mu_lambda"] for r in rows])
    zh_seq = np.array([r["zhang_body_mass"] for r in rows])
    ok = bool(np.all(np.diff(mu_seq) > 0) and np.all(np.diff(zh_seq) >= 0))
    ok &= zh_seq[-1] >= 0.99
    assert _line("11b", "sharpness monotonicity", ok,
                 f"mu_lambda {mu_seq.round(4).tolist()}")


def test_c11c_pe_sweep():
    rows = pb.pe_sweep(pb.cube(2), [8.0, 12.0, 16.0], pb.RunConfig(seed=SEED))
    tail = [r["pe_direct"] for r in rows]
    ok = tail[0] < tail[1] < tail[2]
    last = rows[-1]
    ok &= abs(last["mass_ratio"] - last["mass_ratio_limit"]) \
        <= 0.02 * last["mass_ratio_limit"]
    assert _line("11c", "pe sweep tail", ok,
                 f"tail {[f'{t:.3g}' for t in tail]}; mass ratio "
                 f"{last['mass_ratio']:.4f} vs {last['mass_ratio_limit']:.4f}")


def test_c12_determinism():
    cfg = pb.RunConfig(seed=SEED)
    square, gauss = pb.cube(2), pb.gaussian(2)
    blobs = []
    for _ in range(2):
        reports = [
            pb.verify("log_concave_zhang", square, mu=gauss, precision=cfg),
            pb.verify("polarized_zhang", square, mu=gauss, s=0.5,
                      precision=cfg),
            pb.verify("zhang_petty", pb.standard_simplex(2), precision=cfg),
        ]
        blobs.append(json.dumps([r.to_json_dict() for r in reports]))
    ok = blobs[0] == blobs[1]
    import contextlib, io
    outs = []
    for _ in range(2):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            cli.main(["verify", "surface_lower_bound", "--body", "cube:2",
                      "--measure", "gaussian", "--seed", "5"])
        outs.append(buf.getvalue())
    ok &= outs[0] == outs[1]
    assert _line(12, "determinism", ok)
