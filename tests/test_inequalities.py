from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest
from scipy import integrate

import projbodies as pb
from projbodies import projection
from projbodies.inequalities import _measure_support_set
from projbodies.report import first_order_error
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


@pytest.mark.parametrize("mu", ["gaussian", "exp_norm"])
def test_exp_norm_gradient_identity_3d(cube3, mu):
    """n = 3 integrates the angular part over sampled directions."""
    mu = pb.gaussian(3) if mu == "gaussian" else pb.exp_norm(cube3)
    rep = pb.verify("exp_norm_gradient_identity", cube3, mu=mu, precision=CFG)
    assert rep.passed
    assert rep.witnesses["gradient_integral"].error > 0


def test_set_inclusion_big(triangle, square, gauss2, leb2):
    rep = pb.verify("set_inclusion_big", triangle, mu=leb2, precision=CFG)
    assert rep.passed
    rep = pb.verify("set_inclusion_big", square, mu=gauss2,
                    family=pb.power_family(0.5), precision=CFG)
    assert rep.passed
    with pytest.raises(pb.ConfigurationError):
        pb.verify("set_inclusion_big", triangle, mu=gauss2,
                  family=pb.power_family(0.5), precision=CFG)


@pytest.mark.parametrize("seed", [1, 11])
def test_set_inclusion_big_exact_links_carry_a_roundoff_budget(triangle, square, gauss2,
                                                              leb2, seed):
    """The Lebesgue triangle and the gamma_2 square meet at equality along
    some direction (margin 0).  Their exact links Vol*rho_Pi_polar and
    rho_DK carry 4 ulp of each radius, and every radius of those links is
    at least 2 Vol K / S (S the perimeter: h_{Pi K} <= S / 2 and
    Vol Pi° K ⊆ DK), so the tolerance is at least 3 times that floor; with
    zero budgets it was 0 and one ulp of rounding flipped the verdict."""
    cfg = pb.RunConfig(seed=seed)
    for K, mu, family in ((triangle, leb2, None), (square, gauss2, pb.power_family(0.5))):
        rep = pb.verify("set_inclusion_big", K, mu=mu, family=family, precision=cfg)
        floor = 4.0 * np.finfo(float).eps * 2.0 * K.volume / K.areas.sum()
        assert rep.passed and abs(rep.margin) <= rep.tolerance
        assert rep.witnesses["worst_margin"].error >= floor
        assert rep.tolerance >= 3.0 * floor


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


def _bumps(sigma, c):
    """Two Gaussian bumps of width sigma at (±c, 0), declared log-concave.
    Random probes cannot refute that flag, but the sum is not log-concave."""
    centres = np.array([[c, 0.0], [-c, 0.0]])

    def bumps(p):
        return [np.exp(-((p - m) ** 2).sum(axis=1) / (2.0 * sigma ** 2)) for m in centres]

    return pb.custom_density(
        2, lambda p: sum(bumps(p)),
        lambda p: sum(-(p - m) / sigma ** 2 * b[:, None] for m, b in zip(centres, bumps(p))),
        label="bumps", even=True, concavity=frozenset({"log_concave"}))


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_q_concave_zhang_catches_a_false_log_concave_flag(square, seed):
    """The midpoint test of log g_mu along random rays finds the bumps'
    covariogram not log-concave: a positive margin, reported as a
    hypothesis violation rather than a pass or fail."""
    rep = pb.verify("q_concave_zhang", square, mu=_bumps(0.25, 0.75),
                    family=pb.log_family(), precision=pb.RunConfig(seed=seed))
    assert rep.verdict == "hypothesis_violation"
    assert rep.witnesses["concavity_margin"].value > 0.0


def test_polar_volume_beyond_double_precision_raises(square):
    """Narrower bumps nearer two edges leave the zonoid's support values
    from about 1e-22 to 0.08: its polar's points u / h(u) span more than
    double precision, and qhull's failure becomes a ``PrecisionError``."""
    with pytest.raises(pb.PrecisionError, match="span more than double precision"):
        pb.verify("q_concave_zhang", square, mu=_bumps(0.1, 0.85),
                  family=pb.log_family(), precision=CFG)


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


def test_ehrhard_tolerance_is_first_order(square, gauss2):
    """The tolerance is 3 RSS of the sides' first-order errors in gamma(K)
    and Vol(Pi_mu°): the lhs Vol/(g^n pv) carries n lhs e_g / g + lhs
    e_pv / pv; the rhs B(x), x = Phi^{-1}(g), carries |B'(x)| e_g / phi(x),
    where B'/B = -n x - (n + 1) phi/Phi + I'/I and I(x) = ∫_0^inf z^n
    e^{-(z - x)^2/2} dz."""
    rep = pb.verify("ehrhard_gaussian", square, mu=gauss2, precision=CFG)
    w, n = rep.witnesses, 2
    g, e_g = w["gamma_K"].value, w["gamma_K"].error
    pv, e_pv = w["polar_volume"].value, w["polar_volume"].error
    x = w["x"].value

    def moment(k):
        return integrate.quad(lambda z: z ** n * (z - x) ** k * math.exp(-0.5 * (z - x) ** 2),
                              0.0, np.inf, epsabs=0.0, epsrel=1e-13)[0]

    phi = math.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi)
    dB = rep.rhs * (-n * x - (n + 1) * phi / pb.gaussian_cdf(x) + moment(1) / moment(0))
    lhs_term = n * rep.lhs / g * e_g + rep.lhs / pv * e_pv
    rhs_term = abs(dB) / phi * e_g
    assert rep.tolerance == pytest.approx(3.0 * math.hypot(lhs_term, rhs_term), rel=1e-6)


def test_ehrhard_on_a_far_square_asks_for_a_tighter_tol():
    """On cube(2).scale(8) each Gaussian edge weight is about 5e-15, and at
    the default tol its cubature error exceeds it: a PrecisionError, not a
    domain error about the origin.  R = 3, 5 and 6 pass."""
    with pytest.raises(pb.PrecisionError, match=r"facet \d+ weight .* has error .*tighten tol"):
        pb.verify("ehrhard_gaussian", pb.cube(2).scale(8), mu=pb.gaussian(2))
    for R in (3, 5, 6):
        assert pb.verify("ehrhard_gaussian", pb.cube(2).scale(R),
                         mu=pb.gaussian(2)).passed


def test_first_order_error_scales_the_difference_to_the_input_error():
    assert first_order_error(lambda a: a ** 2, 3.0, 1e-3) == pytest.approx(6e-3, rel=1e-12)
    # the step floor 1e-9 |a| = 3e-9 is scaled back to the input's error
    assert first_order_error(lambda a: a ** 2, 3.0, 1e-14) == pytest.approx(6e-14, rel=1e-6)
    assert first_order_error(math.log, 2.0, 0.0) == 0.0


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


# -- deterministic mu(K) and support-set measures ------------------------------

def test_log_concave_zhang_measures_mu_K_without_sampling(monkeypatch):
    """gamma_2(K) on the square comes from the facet cubature: no
    ``monte_carlo`` call, and erf(1/sqrt 2)^2 within its budget."""
    calls, estimate = [], pb.numerics.monte_carlo

    def counting(*args, **kwargs):
        calls.append(args)
        return estimate(*args, **kwargs)

    # measure_body samples through numerics.monte_carlo_in
    monkeypatch.setattr(pb.numerics, "monte_carlo", counting)
    rep = pb.verify("log_concave_zhang", pb.cube(2), mu=pb.gaussian(2),
                    precision=CFG)
    assert rep.passed and calls == []
    mu_K = rep.witnesses["mu_K"]
    assert abs(mu_K.value - math.erf(1.0 / math.sqrt(2.0)) ** 2) <= mu_K.error


@pytest.mark.parametrize("id", ["s_concave_zhang", "polarized_zhang",
                                "two_measure_zhang"])
def test_one_report_measures_mu_K_at_its_tol(monkeypatch, id):
    """Every mu(K) in a report, the translated average's normalizer
    included, is measured at the report's tol."""
    tols = []

    def recording(*args, **kwargs):
        tols.append(kwargs.get("tol", args[4] if len(args) > 4 else None))
        return pb.measures.measure_body(*args, **kwargs)

    monkeypatch.setattr(pb.inequalities, "measure_body", recording)
    monkeypatch.setattr(pb.covariogram, "measure_body", recording)
    cfg = pb.RunConfig(seed=11, samples=20_000, tol=1e-7)
    mu = pb.gaussian(2) if id == "polarized_zhang" else pb.lebesgue(2)
    pb.verify(id, pb.cube(2), mu=mu, nu=pb.radial_power(2, 1.0), s=0.5,
              family=pb.power_family(0.5), precision=cfg)
    assert len(tols) >= 2 and set(tols) == {cfg.tol}


def _gauss_zonoid_triangle():
    K = pb.build_polytope([[-0.4, -0.3], [1.0, -0.2], [0.1, 0.9]])
    return pb.shifted_zonoid(K, pb.gaussian(2), tol=1e-9)[0]


@pytest.mark.parametrize("nu", [pb.gaussian(2), pb.radial_power(2, 1.0),
                                dataclasses.replace(pb.radial_power(2, 1.0), flux=None)],
                         ids=["gaussian", "norm", "flux_free"])
@pytest.mark.parametrize("widen", [1.0, 1e8], ids=["own", "widened"])
def test_support_set_measure_inside_its_bracket(nu, widen):
    """nu of the scaled polar of a shifted Gaussian zonoid lies between its
    values at the weights w + e and max(w - e, 0), and within its error of
    both; ``widen`` scales the weight errors to make the bracket visible.
    A flux-free copy of the norm takes Monte Carlo on the same stream."""
    _check_support_set_bracket(nu, widen, 0.2)


@pytest.mark.parametrize("widen", [1.0, 1e8], ids=["own", "widened"])
def test_support_set_measure_of_a_large_polar(widen):
    """The same at scale 20, where the polar is about 150 wide and the norm
    measure's facet budgets fall below the cubature's roundoff floor."""
    _check_support_set_bracket(pb.radial_power(2, 1.0), widen, 20.0)


def _check_support_set_bracket(nu, widen, scale):
    Z = _gauss_zonoid_triangle()
    Z = pb.Zonoid(Z.n, Z.generators, Z.weights, Z.offset, widen * Z.weight_errors)
    res = _measure_support_set(nu, Z, scale, CFG, pb.RandomStream(1))
    lo, hi = (pb.measure_body(nu, pb.build_polytope(scale * Z.polar_points(w)),
                              pb.RandomStream(1), CFG.samples, CFG.tol).value
              for w in (Z.weights + Z.weight_errors,
                        np.maximum(Z.weights - Z.weight_errors, 0.0)))
    assert lo <= res.value <= hi
    assert max(hi - res.value, res.value - lo) <= res.error_estimate
    if widen > 1.0:
        assert hi - lo > 1e-3 * res.value


@pytest.mark.parametrize("nu", [pb.gaussian(2), pb.radial_power(2, 1.0)],
                         ids=["gaussian", "norm"])
def test_support_set_measure_matches_monte_carlo(nu):
    """The cubature value agrees with 2M box samples of the old route (a
    flux-free copy of nu) within 3 sigma."""
    Z = _gauss_zonoid_triangle()
    res = _measure_support_set(nu, Z, 0.2, CFG, pb.RandomStream(1))
    plain = dataclasses.replace(nu, flux=None)
    parts = [_measure_support_set(plain, Z, 0.2, CFG, pb.RandomStream(98, i))
             for i in range(10)]
    assert all(r.evaluations == 3 * CFG.samples for r in parts)
    mean = math.fsum(r.value for r in parts) / len(parts)
    sigma = math.sqrt(math.fsum((r.error_estimate / 3.0) ** 2
                                for r in parts)) / len(parts)
    assert abs(res.value - mean) <= 3.0 * sigma


def test_support_set_measure_lebesgue_is_the_polar_hull_volume():
    """The Lebesgue route is scale^n times the hull volume of the polar
    points and its weight bracket, bit for bit."""
    from scipy.spatial import ConvexHull
    Z = _gauss_zonoid_triangle()
    res = _measure_support_set(pb.lebesgue(2), Z, 0.2, CFG, pb.RandomStream(1))
    w, e = Z.weights, Z.weight_errors
    pv, lo, hi = (ConvexHull(Z.polar_points(x)).volume
                  for x in (w, w + e, np.maximum(w - e, 0.0)))
    assert res.value == 0.2 ** 2 * pv
    assert res.error_estimate == 0.2 ** 2 * max(hi - pv, pv - lo)
    assert res.evaluations == 0


# -- deterministic translated averages -------------------------------------------

# (id, inputs, the witnesses that are translated averages)
TRANSLATED_AVERAGE_REPORTS = [
    ("rst_radially_decreasing", {"nu": pb.gaussian(2)}, ["nu_lambda"]),
    ("weak_zhang", {"mu": pb.gaussian(2)}, ["mu_lambda"]),
    ("zhang_radial_nondecreasing", {"nu": pb.radial_power(2, 1.0)},
     ["nu_lambda_K", "nu_lambda_negK"]),
    ("two_measure_zhang", {"mu": pb.lebesgue(2), "nu": pb.radial_power(2, 1.0),
                           "family": pb.power_family(0.5)}, ["nu_mu"]),
    ("s_concave_zhang", {"mu": pb.lebesgue(2), "nu": pb.radial_power(2, 1.0),
                         "s": 0.5}, ["nu_mu"]),
]


def test_translated_averages_take_the_report_tol(monkeypatch, triangle):
    """Each translated average in a report is computed at the report's tol."""
    tols = []

    def recording(*args, **kwargs):
        tols.append(kwargs["tol"])
        return pb.covariogram.translated_average(*args, **kwargs)

    monkeypatch.setattr(pb.inequalities, "translated_average", recording)
    cfg = pb.RunConfig(seed=11, samples=20_000, tol=1e-7)
    for id_, kw, _ in TRANSLATED_AVERAGE_REPORTS:
        pb.verify(id_, triangle, precision=cfg, **kw)
    assert tols == [cfg.tol] * 6


@pytest.mark.parametrize("id_, kw, averages", TRANSLATED_AVERAGE_REPORTS,
                         ids=[case[0] for case in TRANSLATED_AVERAGE_REPORTS])
def test_translated_average_reports_reach_eight_digits(monkeypatch, triangle,
                                                       id_, kw, averages):
    """On the triangle the five reports draw no uniform pairs, their
    tolerances are within 1e-8 of their sides, and every translated-average
    witness is good to 1e-9."""
    monkeypatch.setattr(pb.covariogram, "sample_uniform", None)
    rep = pb.verify(id_, triangle, precision=CFG, **kw)
    assert rep.passed
    assert rep.tolerance <= 1e-8 * max(abs(rep.lhs), abs(rep.rhs))
    for name in averages:
        assert rep.witnesses[name].error <= 1e-9 * rep.witnesses[name].value


def test_function_weight_must_be_a_density(square, gauss2):
    """f is a Density: a plain callable is a configuration error naming f,
    not an AttributeError deep in the covariogram."""
    with pytest.raises(pb.ConfigurationError, match="f must be a Density"):
        pb.verify("q_concave_zhang", square, mu=gauss2,
                  f=lambda p: np.ones(len(p)), family=pb.log_family())
    with pytest.raises(pb.ConfigurationError, match="f must be a Density"):
        pb.CovariogramQuery(square, gauss2, f=lambda p: np.ones(len(p)),
                            mode="functional")
