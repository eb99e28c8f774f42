from __future__ import annotations

import math

import numpy as np
import pytest

import projbodies as pb
from projbodies import projection
from conftest import gauss_edge_weight

CFG = pb.RunConfig(seed=11)


def test_zhang_petty_simplex(triangle):
    rep = pb.verify("zhang_petty", triangle, precision=CFG)
    assert rep.passed
    product = rep.witnesses["product"].value
    assert product == pytest.approx(1.5, rel=1e-3)
    assert rep.witnesses["petty_bound"].value == pytest.approx((math.pi / 2) ** 2)


def test_zhang_petty_simplex3_exact(simplex3):
    # Zhang's equality case: Vol(S)^2 Vol(Pi° S) = 80/3 / 36 = 20/27
    rep = pb.verify("zhang_petty", simplex3, precision=CFG)
    assert rep.passed and rep.verdict == "pass"
    assert abs(rep.witnesses["product"].value - 20 / 27) <= 1e-12


def test_zhang_petty_ball_analytic():
    rep = pb.verify("zhang_petty", pb.Ball(3, 1.3), precision=CFG)
    assert rep.passed
    assert rep.witnesses["product"].value == pytest.approx((4 / 3) ** 3,
                                                           abs=1e-6)


def test_rogers_shephard(triangle, simplex3, square):
    rep = pb.verify("rogers_shephard", triangle, precision=CFG)
    assert rep.passed
    assert rep.witnesses["ratio"].value == pytest.approx(6.0, abs=1e-9)
    rep = pb.verify("rogers_shephard", simplex3, precision=CFG)
    assert rep.witnesses["ratio"].value == pytest.approx(20.0, abs=1e-9)
    rep = pb.verify("rogers_shephard", square, precision=CFG)
    assert rep.witnesses["ratio"].value == pytest.approx(4.0, abs=1e-9)


def test_rst_radially_decreasing(triangle, gauss2, leb2):
    rep = pb.verify("rst_radially_decreasing", triangle, nu=gauss2,
                    precision=CFG)
    assert rep.passed
    # lebesgue nu on a simplex attains equality
    rep = pb.verify("rst_radially_decreasing", triangle, nu=leb2,
                    precision=CFG)
    assert rep.passed and abs(rep.margin) <= rep.tolerance
    rp = pb.radial_power(2, 1.0)
    with pytest.raises(pb.ConfigurationError):
        pb.verify("rst_radially_decreasing", triangle, nu=rp, precision=CFG)


def test_weak_zhang(triangle, gauss2):
    rep = pb.verify("weak_zhang", triangle, mu=gauss2, precision=CFG)
    assert rep.passed and rep.margin > 0


def test_zhang_radial_nondecreasing(triangle, leb2):
    rep = pb.verify("zhang_radial_nondecreasing", triangle, nu=leb2,
                    precision=CFG)
    assert rep.passed and abs(rep.margin) <= max(rep.tolerance, 1e-4)
    rp = pb.radial_power(2, 1.0)
    rep = pb.verify("zhang_radial_nondecreasing", triangle, nu=rp,
                    precision=CFG)
    assert rep.passed
    with pytest.raises(pb.ConfigurationError):
        pb.verify("zhang_radial_nondecreasing", triangle, nu=pb.gaussian(2),
                  precision=CFG)


def test_surface_lower_bound(square, gauss2):
    rep = pb.verify("surface_lower_bound", square, mu=gauss2, precision=CFG)
    assert rep.passed
    assert rep.lhs == pytest.approx(math.pi ** 3)
    assert rep.rhs == pytest.approx(32.0, rel=1e-2)


def test_exp_norm_gradient_identity(square, gauss2):
    rep = pb.verify("exp_norm_gradient_identity", square, mu=gauss2,
                    precision=CFG)
    assert rep.passed
    mu = pb.exp_norm(square)
    rep = pb.verify("exp_norm_gradient_identity", square, mu=mu,
                    precision=CFG)
    assert rep.passed


def test_set_inclusion_big(triangle, square, gauss2, leb2):
    rep = pb.verify("set_inclusion_big", triangle, mu=leb2, precision=CFG)
    assert rep.passed
    rep = pb.verify("set_inclusion_big", square, mu=gauss2,
                    family=pb.power_family(0.5), precision=CFG)
    assert rep.passed
    with pytest.raises(pb.ConfigurationError):
        pb.verify("set_inclusion_big", triangle, mu=gauss2,
                  family=pb.power_family(0.5), precision=CFG)


@pytest.fixture
def cubatures(monkeypatch):
    """The facet_weights calls made through the projection module."""
    calls = []
    weights = projection.facet_weights

    def counting(*args, **kwargs):
        calls.append(args)
        return weights(*args, **kwargs)

    monkeypatch.setattr(projection, "facet_weights", counting)
    return calls


def test_set_inclusion_big_symmetric_route_skips_offset(square, gauss2,
                                                       cubatures):
    # eta = 0 by symmetry there: only projection_zonoid needs the cubature
    rep = pb.verify("set_inclusion_big", square, mu=gauss2,
                    family=pb.power_family(0.5))
    assert rep.passed
    assert len(cubatures) == 1


def test_eta_is_read_from_the_zonoid(square, gauss2, cubatures):
    # one facet cubature gives both Pi_mu K and eta = 1/2 sum w_i u_i
    assert pb.verify("log_concave_zhang", square, mu=gauss2, precision=CFG).passed
    assert len(cubatures) == 1
    pb.halfspace_integral_identity(square, gauss2, [1, 0])
    assert len(cubatures) == 2
    zon, off = pb.shifted_zonoid(square, gauss2, tol=1e-9)
    ref = pb.offset_vector(square, gauss2, tol=1e-9)
    assert off.value.tobytes() == ref.value.tobytes()
    assert off.error_estimate == ref.error_estimate
    assert zon.offset.tobytes() == ref.value.tobytes()


def test_q_concave_zhang(square, gauss2):
    rep = pb.verify("q_concave_zhang", square, mu=gauss2,
                    family=pb.log_family(), precision=CFG)
    assert rep.passed and rep.verdict == "pass"
    ehr = pb.verify("q_concave_zhang", square, mu=gauss2,
                    family=pb.gaussian_phi_inverse_family(), precision=CFG)
    assert ehr.passed
    # the Ehrhard-family bound is sharper than the log bound
    assert ehr.rhs < rep.rhs
    with pytest.raises(pb.ConfigurationError):
        pb.verify("q_concave_zhang", square, mu=gauss2,
                  family=pb.power_family(0.9), precision=CFG)


def test_q_concave_zhang_functional(square, gauss2):
    rep = pb.verify("q_concave_zhang", square, mu=gauss2, f=gauss2,
                    family=pb.log_family(), precision=CFG)
    assert rep.verdict in ("pass", "hypothesis_violation")
    if rep.verdict == "pass":
        assert rep.passed


def test_log_concave_zhang(square, gauss2):
    rep = pb.verify("log_concave_zhang", square, mu=gauss2, precision=CFG)
    assert rep.passed
    assert rep.lhs == pytest.approx(0.5)
    a = gauss_edge_weight()
    truth = (2 * pb.gaussian_cdf(1.0) - 1) ** 4 * (2 / a ** 2) / 4
    assert rep.rhs == pytest.approx(truth, rel=1e-2)
    assert truth == pytest.approx(3.98, abs=5e-3)


def test_log_concave_zhang_3d(cube3):
    g3 = pb.gaussian(3)
    rep = pb.verify("log_concave_zhang", cube3, mu=g3,
                    precision=pb.RunConfig(seed=11, grid=4096, tol=1e-6))
    assert rep.passed
    assert rep.lhs == pytest.approx(1 / 6)
    # closed form: gamma(cube)^3 * Vol(polar of a * cube) / Vol(cube)
    gamma_c = (2 * pb.gaussian_cdf(1.0) - 1) ** 3
    a = math.exp(-0.5) / math.sqrt(2 * math.pi) \
        * (2 * pb.gaussian_cdf(1.0) - 1) ** 2  # per-face weight
    polar_vol = (4 / 3) / a ** 3  # polar of a*[-1,1]^3 is (1/a) cross-polytope
    assert rep.rhs == pytest.approx(gamma_c ** 3 * polar_vol / 8, rel=2e-2)


def test_ehrhard_gaussian(square, gauss2):
    rep = pb.verify("ehrhard_gaussian", square, mu=gauss2, precision=CFG)
    assert rep.passed
    assert rep.rhs <= 2.0 + 1e-9  # bound below n!
    assert rep.witnesses["bound_below_factorial"].value >= 0


def test_two_measure_zhang_equality(triangle, leb2):
    rep = pb.verify("two_measure_zhang", triangle, mu=leb2, nu=leb2,
                    family=pb.power_family(0.5), precision=CFG)
    assert rep.passed and abs(rep.margin) <= max(rep.tolerance, 1e-5)


def test_two_measure_zhang_functional(triangle, leb2, gauss2):
    rep = pb.verify("two_measure_zhang", triangle, mu=leb2, nu=leb2,
                    f=gauss2, family=pb.power_family(0.5), precision=CFG)
    assert rep.passed


def test_s_concave_zhang(triangle, leb2):
    rep = pb.verify("s_concave_zhang", triangle, mu=leb2, nu=leb2, s=0.5,
                    precision=CFG)
    assert rep.passed and abs(rep.margin) <= max(rep.tolerance, 1e-5)
    with pytest.raises(pb.ConfigurationError):
        pb.verify("s_concave_zhang", triangle, mu=leb2, nu=leb2, s=0.9,
                  precision=CFG)


def test_s_concave_constant_consistency():
    """s = 1/n: s^n binom(n + 1/s, n) = binom(2n, n)/n^n exactly."""
    for n in (2, 3, 4):
        lhs = (1 / n) ** n * math.comb(n + n, n)
        rhs = math.comb(2 * n, n) / n ** n
        assert lhs == pytest.approx(rhs, rel=1e-14)


def test_polarized_zhang(square, gauss2, triangle):
    rep = pb.verify("polarized_zhang", square, mu=gauss2, s=0.5,
                    precision=CFG)
    assert rep.passed
    assert rep.lhs == pytest.approx(6.0)
    a = gauss_edge_weight()
    truth = (2 * pb.gaussian_cdf(1.0) - 1) ** 4 * 2 / a ** 2
    assert rep.rhs == pytest.approx(truth, rel=1e-2)
    with pytest.raises(pb.ConfigurationError):
        pb.verify("polarized_zhang", triangle, mu=gauss2, s=0.5,
                  precision=CFG)


def test_polarized_zhang_general_nu(square, gauss2):
    rp = pb.radial_power(2, 1.0)
    rep = pb.verify("polarized_zhang", square, mu=gauss2, nu=rp, s=0.5,
                    precision=CFG)
    assert rep.passed


def test_verify_unknown_id(triangle):
    with pytest.raises(pb.ConfigurationError):
        pb.verify("nonsense", triangle)


def test_reports_deterministic(square, gauss2):
    import json
    a = pb.verify("log_concave_zhang", square, mu=gauss2, precision=CFG)
    b = pb.verify("log_concave_zhang", square, mu=gauss2, precision=CFG)
    assert json.dumps(a.to_json_dict()) == json.dumps(b.to_json_dict())


def test_pass_verdicts_stable_across_seeds(square, gauss2):
    for seed in (1, 2, 3):
        rep = pb.verify("log_concave_zhang", square, mu=gauss2,
                        precision=pb.RunConfig(seed=seed))
        assert rep.passed


def test_berwald_examples():
    # q(t) = t^n: beta = 1/binom(2n, n)
    rep = pb.berwald_1d_check(lambda t: t ** 2, lambda r: 1.0, 2, 1.0,
                              [0.5, 1.0, 2.0])
    assert rep.passed
    assert rep.witnesses["beta"].value == pytest.approx(1 / 6, abs=1e-10)
    # closed form: q(t)=t, phi(r)=r, n=2, xi=1, y=1: 1/9 >= 1/12
    rep = pb.berwald_1d_check(lambda t: t, lambda r: r, 2, 1.0, [1.0])
    assert rep.passed
    assert rep.witnesses["beta"].value == pytest.approx(1 / 3, abs=1e-10)
    with pytest.raises(pb.ConfigurationError):
        pb.berwald_1d_check(lambda t: t, lambda r: -r, 2, 1.0, [1.0])


def test_berwald_equality_family():
    """Constant phi with q(t) = t^2 gives the tight beta."""
    rep = pb.berwald_1d_check(lambda t: t ** 2, lambda r: 3.0, 2, 2.0,
                              [0.25, 0.75, 1.5])
    assert rep.passed
    assert abs(rep.margin) <= 1e-9 + rep.tolerance


def test_pe_sweep(square):
    rows = pb.pe_sweep(square, [1.0, 8.0, 12.0, 16.0], pb.RunConfig(seed=5))
    for row in rows:
        assert row["pe_direct"] == pytest.approx(row["pe_scaling"], rel=1e-3)
    tail = [row["pe_direct"] for row in rows[-3:]]
    assert tail[0] < tail[1] < tail[2]
    last = rows[-1]
    assert last["mass_ratio"] == pytest.approx(last["mass_ratio_limit"],
                                               rel=2e-2)


def test_gaussian_sharpness_sweep():
    rows = pb.gaussian_sharpness_sweep([1.0, 2.0, 5.0, 10.0, 20.0], n=2)
    mu_seq = [row["mu_lambda"] for row in rows]
    zh_seq = [row["zhang_body_mass"] for row in rows]
    assert all(np.diff(mu_seq) > 0) and all(np.diff(zh_seq) >= 0)
    assert zh_seq[-1] >= 0.99
    assert rows[0]["zhang_body_mass"] == pytest.approx(
        1 - math.exp(-math.pi ** 2 / 2), abs=1e-9)
    assert mu_seq[-1] <= 1.0 and mu_seq[-1] >= 0.95


def test_ehrhard_bound_value():
    assert pb.ehrhard_bound_value(2, 0.0) == pytest.approx(2 / math.pi,
                                                           abs=1e-8)
    for n in (2, 3):
        for x in (-2.0, -1.0, 0.0, 1.0, 2.0):
            assert pb.ehrhard_bound_value(n, x) <= math.factorial(n) + 1e-9
