"""The inequality verification suite.

Every named inequality is evaluated as an lhs/rhs pair with a propagated
error budget (``report.first_order_error`` carries an input's error into a
side) and reported through ``report.finish_report``, which sets the
tolerance and the verdict.  Hypotheses that are assumptions of a theorem
(density flags, concavity of a composed covariogram) are guarded:
``require`` raises a configuration error naming a missing one, and a failed
numeric concavity check yields a hypothesis-violation verdict rather than a
failed inequality.  ``isotropic`` shares ``require`` and ``surface_product``.

mu(K), nu(DK) and the support-set measures nu((Z - c)° scaled) are
deterministic for Lebesgue and for the radial builtins on polytopes
(``measures.measure_body``), and so are the translated averages of the
radial builtins on polygons (``covariogram.translated_average``) and the
concavity checks of plain covariograms under Lebesgue, or under the radial
builtins on polygons, and of functional ones on polygons whose mu and f
are both ``smooth`` builtins (``covariogram.mu_covariogram``);
other densities, other translated averages and the other concavity checks
are Monte Carlo.
Every report passes its ``RunConfig.tol`` to each of these.
"""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np
from scipy import special

from . import bodies
from .bodies import Ball, Polytope
from .covariogram import (CovariogramQuery, l1_norm, mu_covariogram,
                          translated_average)
from .measures import (ConcavityFamily, Density, boundary_measure,
                       exp_norm, exp_norm_mass_of_scaled, gaussian_ball_mass,
                       lebesgue, measure_body, power_family)
from .numerics import (ConfigurationError, DomainError, QuadratureResult,
                       RandomStream, SphereSampler, ball_volume, gaussian_cdf,
                       gaussian_quantile, integrate_1d, monte_carlo)
from .projection import Zonoid, projection_zonoid, shifted_zonoid
from .report import (Report, RunConfig, Witness, direction_grid,
                     finish_report, first_order_error, worst_link)


def _binom(a: float, n: int) -> float:
    """Generalized binomial coefficient Gamma(a+1) / (n! Gamma(a-n+1))."""
    return float(special.gamma(a + 1.0) / (special.gamma(n + 1.0)
                                           * special.gamma(a - n + 1.0)))


def power_product(m: float, m_err: float, n: int, pv: float,
                  pv_err: float) -> Witness:
    """m^n pv, with its first-order error from the errors of m and pv."""
    return Witness(m ** n * pv, n * m ** (n - 1) * m_err * pv + m ** n * pv_err)


def _measure_support_set(nu: Density, Z: Zonoid, scale: float,
                         cfg: RunConfig, stream: RandomStream) -> QuadratureResult:
    """nu-measure of {x : h_{Z - c}(x) <= scale}, the scaled polar body.

    Lebesgue is the exact polar volume.  Every other nu is ``measure_body``
    on the polar polytope (the divergence-theorem cubature for a density
    with a ``flux``, Monte Carlo from ``stream`` otherwise), at the weights
    and at the ends of their error bracket; the error is the bracket's plus
    the largest error of the three measures.
    """
    if nu.is_lebesgue:
        pv, err = Z.polar_volume()
        return QuadratureResult(scale ** Z.n * pv, scale ** Z.n * err, 0)
    parts = []

    def measure(points):
        parts.append(measure_body(nu, bodies.build_polytope(scale * points),
                                  stream, cfg.samples, cfg.tol))
        return parts[-1].value

    value, err = Z.polar_bracket(measure)
    return QuadratureResult(value, err + max(r.error_estimate for r in parts),
                            sum(r.evaluations for r in parts))


# -- decay integrals of the concavity families --------------------------------

def _finv_extended(fam: ConcavityFamily, y: float) -> float:
    """F^{-1}(y), extended by 0 below the infimum of F's range."""
    if y <= fam.F_at_zero:
        return 0.0
    return float(fam.Finv(y))


def int_decay(fam: ConcavityFamily, a: float, n: int,
              tol: float = 1e-10) -> QuadratureResult:
    """∫_0^inf F^{-1}(F(a) - t) t^{n-1} dt (log case: a * Gamma(n))."""
    Fa = fam.F(a)

    def f(t):
        return _finv_extended(fam, Fa - t) * t ** (n - 1)

    return integrate_1d(f, 0.0, np.inf, tol)


def int_unit(fam: ConcavityFamily, a: float, n: int,
             tol: float = 1e-10) -> QuadratureResult:
    """∫_0^1 F^{-1}(F(a) t) (1-t)^{n-1} dt."""
    Fa = fam.F(a)

    def f(t):
        return _finv_extended(fam, Fa * t) * (1.0 - t) ** (n - 1)

    return integrate_1d(f, 0.0, 1.0, tol)


def ehrhard_bound_value(n: int, x: float, tol: float = 1e-10) -> float:
    """The Ehrhard-side bound e^{-n x^2/2} (2 pi Phi(x)^2)^{-(n+1)/2}
    ∫_0^inf z^n e^{-(z-x)^2/2} dz; always at most n!."""
    if n < 2:
        raise DomainError("need n >= 2")

    def f(z):
        return z ** n * math.exp(-0.5 * (z - x) ** 2)

    integral = integrate_1d(f, 0.0, np.inf, tol).value
    phi_x = float(gaussian_cdf(x))
    return math.exp(-0.5 * n * x * x) / (2.0 * np.pi * phi_x ** 2) ** ((n + 1) / 2.0) * integral


# -- hypothesis checks ---------------------------------------------------------

def _concavity_check(fam: ConcavityFamily, K: Polytope, mu: Density, f,
                     cfg: RunConfig, stream: RandomStream,
                     triples: int = 50) -> tuple[bool, float]:
    """Midpoint test of concavity of F o g along random rays.

    Returns (ok, worst normalized violation).  A violation beyond the
    combined error budget fails the hypothesis.  The rays are drawn first;
    a deterministic covariogram then takes all their translations in one
    call, and a sampled one takes each ray's three, which share one draw of
    box points from the ray's own substream.
    """
    gen = stream.generator()
    DK = bodies.difference_body(K)
    rays = []
    for _ in range(triples):
        theta = gen.standard_normal(K.n)
        theta /= np.linalg.norm(theta)
        rho = bodies.radial_many(DK, theta[None, :])[0]
        r1, r2 = np.sort(gen.random(2)) * 0.9 * rho
        rays.append(np.outer([r1, 0.5 * (r1 + r2), r2], theta))

    def query(substream=None):
        return CovariogramQuery(K, mu, f, mode="functional" if f is not None else "plain",
                                stream=substream, N=max(20_000, cfg.samples // 8),
                                tol=cfg.tol)

    if query().sampled:
        per_ray = [mu_covariogram(query(stream.substream(100 + i)), xs)
                   for i, xs in enumerate(rays)]
    else:
        flat = mu_covariogram(query(), np.concatenate(rays))
        per_ray = [flat[i:i + 3] for i in range(0, len(flat), 3)]
    worst = -np.inf
    ok = True
    for results in per_ray:
        vals = [res.value for res in results]
        errs = [res.error_estimate for res in results]
        if min(vals) <= 0:
            continue  # outside effective support at this precision
        Fv = [fam.F(v) for v in vals]
        dF = [abs(fam.Fprime(v)) * e for v, e in zip(vals, errs)]
        gap = Fv[1] - 0.5 * (Fv[0] + Fv[2])
        budget = dF[1] + 0.5 * (dF[0] + dF[2])
        violation = -gap - budget
        worst = max(worst, violation)
        if violation > 0:
            ok = False
    return ok, worst


# -- the dispatcher ------------------------------------------------------------

def verify(id: str, K, mu: Density | None = None, nu: Density | None = None,
           f: Density | None = None, family: ConcavityFamily | None = None,
           s: float | None = None, precision: RunConfig | None = None) -> Report:
    """Evaluate one named inequality on the given inputs and report.

    Raises ConfigurationError when f is not a ``Density``, or when a
    required argument or density flag is missing (naming the violated
    hypothesis); numeric hypothesis failures come back as reports with
    verdict "hypothesis_violation".
    """
    cfg = precision or RunConfig()
    if f is not None and not isinstance(f, Density):
        raise ConfigurationError(f"f must be a Density, not {type(f).__name__}")
    try:
        fn = _DISPATCH[id]
    except KeyError:
        raise ConfigurationError(f"unknown inequality id {id!r}") from None
    return fn(K, mu, nu, f, family, s, cfg)


def require(cond: bool, hypothesis: str):
    """The hypothesis guard: a ConfigurationError naming it unless ``cond``."""
    if not cond:
        raise ConfigurationError(f"hypothesis violated: {hypothesis}")


def _verify_zhang_petty(K, mu, nu, f, family, s, cfg) -> Report:
    n = K.n
    zhang = _binom(2 * n, n) / n ** n
    petty = (ball_volume(n) / ball_volume(n - 1)) ** n
    if isinstance(K, Ball):
        # analytic path: Pi(RB) = kappa_{n-1} R^{n-1} B
        pv = ball_volume(n) / (ball_volume(n - 1) * K.radius ** (n - 1)) ** n
        pv_err = 0.0
    else:
        pv, pv_err = projection_zonoid(K).polar_volume()
    product = K.volume ** (n - 1) * pv
    # both routes are exact up to roundoff
    errors = [max(K.volume ** (n - 1) * pv_err, 1e-12 * product)]
    witnesses = {"product": Witness(product, errors[0]), "vol": Witness(K.volume),
                 "polar_volume": Witness(pv, pv_err),
                 "zhang_bound": Witness(zhang), "petty_bound": Witness(petty)}
    if product - zhang <= petty - product:
        return finish_report("zhang_petty", zhang, product, errors, witnesses, cfg)
    return finish_report("zhang_petty", product, petty, errors, witnesses, cfg)


def _verify_rogers_shephard(K, mu, nu, f, family, s, cfg) -> Report:
    n = K.n
    DK = bodies.difference_body(K)
    ratio = DK.volume / K.volume
    lo, hi = 2.0 ** n, _binom(2 * n, n)
    witnesses = {"ratio": Witness(ratio, 1e-12 * ratio),
                 "lower_bound": Witness(lo), "upper_bound": Witness(hi)}
    errors = [1e-12 * ratio]
    if ratio - lo <= hi - ratio:
        return finish_report("rogers_shephard", lo, ratio, errors, witnesses, cfg)
    return finish_report("rogers_shephard", ratio, hi, errors, witnesses, cfg)


def _verify_rst(K, mu, nu, f, family, s, cfg) -> Report:
    require(nu is not None and nu.radially_decreasing,
            "rst_radially_decreasing needs nu with radially decreasing density")
    n = K.n
    DK = bodies.difference_body(K)
    st = cfg.stream()
    lhs = measure_body(nu, DK, st.substream(0), cfg.samples, cfg.tol)
    avg = translated_average("mu_lambda", K, mu=nu, stream=st.substream(1),
                             N=cfg.samples, tol=cfg.tol)
    rhs = _binom(2 * n, n) * avg.value
    witnesses = {"nu_DK": Witness(lhs.value, lhs.error_estimate),
                 "nu_lambda": Witness(avg.value, avg.error_estimate)}
    return finish_report("rst_radially_decreasing", lhs.value, rhs,
                         [lhs.error_estimate, _binom(2 * n, n) * avg.error_estimate],
                         witnesses, cfg)


def _verify_weak_zhang(K, mu, nu, f, family, s, cfg) -> Report:
    require(mu is not None, "weak_zhang needs a measure mu")
    n = K.n
    st = cfg.stream()
    lhs = translated_average("mu_lambda", K, mu=mu, stream=st.substream(0),
                             N=cfg.samples, tol=cfg.tol)
    Z = projection_zonoid(K)
    rhs = _measure_support_set(mu, Z, n * K.volume, cfg, st.substream(1))
    witnesses = {"mu_lambda": Witness(lhs.value, lhs.error_estimate),
                 "mu_of_nV_polar": Witness(rhs.value, rhs.error_estimate)}
    return finish_report("weak_zhang", lhs.value, rhs.value,
                         [lhs.error_estimate, rhs.error_estimate], witnesses, cfg)


def _verify_zhang_rad(K, mu, nu, f, family, s, cfg) -> Report:
    require(nu is not None and nu.radially_nondecreasing,
            "zhang_radial_nondecreasing needs nu in Lambda_rad")
    n = K.n
    st = cfg.stream()
    avg_pos = translated_average("mu_lambda", K, mu=nu, stream=st.substream(0),
                                 N=cfg.samples, tol=cfg.tol)
    avg_neg = translated_average("mu_lambda", K.negate(), mu=nu,
                                 stream=st.substream(1), N=cfg.samples,
                                 tol=cfg.tol)
    lhs = _binom(2 * n, n) * max(avg_pos.value, avg_neg.value)
    lhs_err = _binom(2 * n, n) * max(avg_pos.error_estimate,
                                     avg_neg.error_estimate)
    Z = projection_zonoid(K)
    rhs = _measure_support_set(nu, Z, n * K.volume, cfg, st.substream(2))
    witnesses = {"nu_lambda_K": Witness(avg_pos.value, avg_pos.error_estimate),
                 "nu_lambda_negK": Witness(avg_neg.value, avg_neg.error_estimate),
                 "nu_of_nV_polar": Witness(rhs.value, rhs.error_estimate)}
    return finish_report("zhang_radial_nondecreasing", lhs, rhs.value,
                         [lhs_err, rhs.error_estimate], witnesses, cfg)


def surface_product(id_: str, K: Polytope, mu: Density, tol: float):
    """mu(dK)^n Vol(Pi_mu° K) and its lower bound (n kappa_n /
    kappa_{n-1})^n kappa_n: the witnesses of mu(dK), Vol(Pi_mu° K) and the
    product, then the bound."""
    n = K.n
    bm = boundary_measure(mu, K, tol)
    require(bm.value > 0, f"{id_} needs mu(dK) > 0")
    pv, pv_err = projection_zonoid(K, mu, tol=tol).polar_volume()
    product = power_product(bm.value, bm.error_estimate, n, pv, pv_err)
    lower = (n * ball_volume(n) / ball_volume(n - 1)) ** n * ball_volume(n)
    return Witness(bm.value, bm.error_estimate), Witness(pv, pv_err), product, lower


def _verify_surface_lower_bound(K, mu, nu, f, family, s, cfg) -> Report:
    require(mu is not None, "surface_lower_bound needs a measure mu")
    bm, pv, product, lower = surface_product("surface_lower_bound", K, mu, cfg.tol)
    return finish_report("surface_lower_bound", lower, product.value,
                         [product.error], {"mu_boundary": bm, "polar_volume": pv},
                         cfg)


def _verify_exp_norm_gradient(K, mu, nu, f, family, s, cfg) -> Report:
    """Gamma(n) mu(dK) equals the whole-space gradient integral.

    The radial part of the right-hand side is exact per direction (a Gamma
    integral), leaving an angular integral handled adaptively in the plane
    and for n >= 3 by ``monte_carlo`` over ``cfg.samples`` uniform
    directions (``SphereSampler``).
    """
    require(mu is not None, "exp_norm_gradient_identity needs a measure mu")
    require(np.min(K.offsets) > 1e-9,
            "exp_norm_gradient_identity needs 0 interior to K")
    n = K.n
    bm = boundary_measure(mu, K, cfg.tol)
    lhs = special.gamma(n) * bm.value
    lhs_err = special.gamma(n) * bm.error_estimate
    U = K.normals / K.offsets[:, None]

    def angular(omega):
        scores = omega @ U.T
        j = np.argmax(scores, axis=1)
        norm_val = scores[np.arange(len(omega)), j]
        rho = 1.0 / norm_val
        grad_mag = 1.0 / K.offsets[j]
        return special.gamma(n) * rho ** n * grad_mag * mu.eval(rho[:, None] * omega)

    if n == 2:
        def f1(a):
            return float(angular(np.array([[math.cos(a), math.sin(a)]]))[0])
        res = integrate_1d(f1, 0.0, 2.0 * np.pi, max(cfg.tol, 1e-10))
        rhs, rhs_err = res.value, res.error_estimate
    else:
        res = monte_carlo(SphereSampler(n), angular, cfg.samples,
                          cfg.stream().substream(3))
        rhs, rhs_err = res.value, res.error_estimate
    witnesses = {"mu_boundary": Witness(bm.value, bm.error_estimate),
                 "gradient_integral": Witness(rhs, rhs_err)}
    # identity check: margin is minus the absolute defect
    return finish_report("exp_norm_gradient_identity", abs(lhs - rhs), 0.0,
                         [lhs_err, rhs_err], witnesses, cfg)


def _boundary_density_min(K: Polytope, mu: Density) -> float:
    """min of phi over dK, sampled at the vertices and the facet simplices'
    nodes and centroids.

    Exact for constant and radially decreasing densities, whose minimum on
    dK is at a vertex.
    """
    spx = K.facet_simplices
    pts = np.vstack([K.vertices, spx.reshape(-1, K.n), spx.mean(axis=1)])
    return float(np.min(mu.eval(pts)))


def _verify_set_inclusion_big(K, mu, nu, f, family, s, cfg) -> Report:
    """Four-body radial chain Vol*inf(phi)*Pi_mu° ⊆ Vol*Pi° ⊆ DK ⊆ (F/F')(Pi_mu-eta)°."""
    require(mu is not None, "set_inclusion_big needs a measure mu")
    n = K.n
    if family is None:
        family = power_family(1.0 / n)
    if mu.is_lebesgue:
        require(family.kind == "power" and abs(family.s - 1.0 / n) < 1e-12,
                "Lebesgue chain is certified with the 1/n power family")
    else:
        require(family.kind == "power", "set_inclusion_big needs a power family")
        require(mu.s_concave_symmetric is not None
                and family.s <= mu.s_concave_symmetric + 1e-12,
                "mu must be s-concave on symmetric bodies for this family")
        require(K.is_symmetric() and mu.even,
                "non-Lebesgue chain needs symmetric K and even mu")
    cfg = replace(cfg, grid=min(cfg.grid, 512))   # echo the grid sampled
    grid = direction_grid(n, cfg.grid, cfg)
    zon_mu = projection_zonoid(K, mu, tol=cfg.tol)
    h_mu = zon_mu.support(grid.directions)
    h_mu_err = zon_mu.support_error(grid.directions)
    h_le = projection_zonoid(K).support(grid.directions)
    rho_dk = bodies.radial_many(bodies.difference_body(K), grid.directions)
    muK = measure_body(mu, K, cfg.stream().substream(0), cfg.samples, cfg.tol)
    inf_phi = _boundary_density_min(K, mu)
    ratio = family.F(muK.value) / family.Fprime(muK.value)  # = mu(K)/s for powers
    # Pi_mu K - eta is Pi_mu K: eta = 0 exactly for Lebesgue (facet closure)
    # and by symmetry on the other route.  The two exact links carry a
    # roundoff budget of a few ulp of each radius: links that meet (the
    # square's axes, the Lebesgue triangle) sit within it of each other.
    roundoff = 4.0 * np.finfo(float).eps
    chain = [("Vol*inf(phi)*rho_Pi_mu_polar", K.volume * inf_phi / h_mu,
              K.volume * inf_phi * h_mu_err / h_mu ** 2),
             ("Vol*rho_Pi_polar", K.volume / h_le, roundoff * K.volume / h_le),
             ("rho_DK", rho_dk, roundoff * rho_dk),
             ("(F/F')*rho_shifted_polar", ratio / h_mu,
              muK.error_estimate / family.s / h_mu + ratio * h_mu_err / h_mu ** 2)]
    names, radii, _ = zip(*chain)
    k, i, worst, worst_pair = worst_link(names, radii)
    budget = float(chain[k][2][i] + chain[k + 1][2][i])
    witnesses = {"worst_margin": Witness(worst, budget, note=worst_pair),
                 "mu_K": Witness(muK.value, muK.error_estimate),
                 "inf_phi_boundary": Witness(inf_phi)}
    return finish_report("set_inclusion_big", -worst, 0.0, [budget], witnesses, cfg)


def family_matches(mu: Density, family: ConcavityFamily) -> bool:
    if family.kind == "log":
        return "log_concave" in mu.concavity
    if family.kind == "gaussian_phi_inverse":
        return "ehrhard_gaussian" in mu.concavity
    if family.kind == "power":
        return mu.s_concave is not None and family.s <= mu.s_concave + 1e-12
    return False


def _verify_q_concave(K, mu, nu, f, family, s, cfg) -> Report:
    """Vol(K) (or the f-weighted mass) against the Q-concavity bound."""
    require(mu is not None, "q_concave_zhang needs a measure mu")
    require(family is not None, "q_concave_zhang needs a concavity family Q")
    require(family_matches(mu, family),
            f"mu ({mu.label}) is not certified {family.kind}-concave")
    n = K.n
    st = cfg.stream()
    muK = measure_body(mu, K, st.substream(0), cfg.samples, cfg.tol)
    require(muK.value > 0, "q_concave_zhang needs mu(K) > 0")
    ok, worst = _concavity_check(family, K, mu, f, cfg, st.substream(1))
    if f is None:
        a, a_err = muK.value, muK.error_estimate
        lhs, lhs_err = K.volume, 0.0
    else:
        norm = l1_norm(f, mu, K, st.substream(2), cfg.samples)
        a, a_err = norm.value, norm.error_estimate
        f_mass = l1_norm(f, lebesgue(n), K, st.substream(3), cfg.samples)
        lhs = muK.value * f_mass.value
        lhs_err = (muK.error_estimate * f_mass.value
                   + muK.value * f_mass.error_estimate)
    zon, _ = shifted_zonoid(K, mu, f, st.substream(4), cfg.samples, cfg.tol)
    pv, pv_err = zon.polar_volume()
    qprime = family.Fprime(a)
    require(qprime != 0.0, "q_concave_zhang needs Q'(a) != 0")

    def rhs_of(aa):
        # f = chi_K: Vol(K) <= n pv / (mu(K) Q'(mu K)^n) * decay integral;
        # general f bounds the DK-integral of g_{mu,f}, with no mu(K) factor.
        integral = int_decay(family, aa, n, cfg.tol).value
        if f is None:
            return n * pv * integral / (aa * family.Fprime(aa) ** n)
        return n * pv * integral / family.Fprime(aa) ** n

    rhs = rhs_of(a)
    rhs_err = rhs / pv * pv_err + first_order_error(rhs_of, a, a_err)
    witnesses = {"a": Witness(a, a_err, note="mu(K)" if f is None else "L1(mu,K) norm of f"),
                 "polar_volume": Witness(pv, pv_err),
                 "Qprime": Witness(qprime),
                 "concavity_margin": Witness(worst, 0.0,
                                             note="max midpoint violation of Q∘g")}
    verdict = None if ok else "hypothesis_violation"
    return finish_report("q_concave_zhang", lhs, rhs, [lhs_err, rhs_err],
                         witnesses, cfg, verdict=verdict)


def _verify_log_concave(K, mu, nu, f, family, s, cfg) -> Report:
    require(mu is not None and "log_concave" in mu.concavity,
            "log_concave_zhang needs a log-concave mu")
    n = K.n
    st = cfg.stream()
    muK = measure_body(mu, K, st.substream(0), cfg.samples, cfg.tol)
    zon, off = shifted_zonoid(K, mu, tol=cfg.tol)
    pv, pv_err = zon.polar_volume()
    product = power_product(muK.value, muK.error_estimate, n, pv, pv_err)
    witnesses = {"mu_K": Witness(muK.value, muK.error_estimate),
                 "polar_volume": Witness(pv, pv_err),
                 "eta": Witness(float(np.linalg.norm(off.value)),
                                off.error_estimate)}
    return finish_report("log_concave_zhang", 1.0 / math.factorial(n),
                         product.value / K.volume, [product.error / K.volume],
                         witnesses, cfg)


def _verify_ehrhard(K, mu, nu, f, family, s, cfg) -> Report:
    require(mu is not None and "ehrhard_gaussian" in mu.concavity,
            "ehrhard_gaussian needs the Gaussian measure")
    n = K.n
    st = cfg.stream()
    muK = measure_body(mu, K, st.substream(0), cfg.samples, cfg.tol)
    zon, _ = shifted_zonoid(K, mu, tol=cfg.tol)
    pv, pv_err = zon.polar_volume()

    def lhs_of(g):
        return K.volume / (g ** n * pv)

    def rhs_of(g):
        return ehrhard_bound_value(n, gaussian_quantile(g), cfg.tol)

    lhs, rhs = lhs_of(muK.value), rhs_of(muK.value)
    lhs_err = (first_order_error(lhs_of, muK.value, muK.error_estimate)
               + lhs / pv * pv_err)
    rhs_err = first_order_error(rhs_of, muK.value, muK.error_estimate)
    witnesses = {"gamma_K": Witness(muK.value, muK.error_estimate),
                 "x": Witness(gaussian_quantile(muK.value)),
                 "polar_volume": Witness(pv, pv_err),
                 "n_factorial": Witness(float(math.factorial(n))),
                 "bound_below_factorial": Witness(
                     math.factorial(n) - rhs, 0.0,
                     note="Prop-type comparison margin")}
    return finish_report("ehrhard_gaussian", lhs, rhs, [lhs_err, rhs_err],
                         witnesses, cfg)


def _verify_two_measure(K, mu, nu, f, family, s, cfg) -> Report:
    require(mu is not None, "two_measure_zhang needs mu")
    require(nu is not None and nu.radially_nondecreasing,
            "two_measure_zhang needs nu in Lambda_rad")
    require(family is not None and family.kind == "power",
            "two_measure_zhang needs a nonnegative increasing family (power)")
    require(family_matches(mu, family),
            f"mu ({mu.label}) is not certified {family.kind}-concave")
    n = K.n
    st = cfg.stream()
    muK = measure_body(mu, K, st.substream(0), cfg.samples, cfg.tol)
    if f is None:
        avg = translated_average("nu_mu_body", K, mu=mu, nu=nu,
                                 stream=st.substream(1), N=cfg.samples,
                                 tol=cfg.tol)
        lhs, lhs_err = avg.value, avg.error_estimate
        a, a_err = muK.value, muK.error_estimate
        pre = n / muK.value
    else:
        norm = l1_norm(f, mu, K, st.substream(2), cfg.samples)
        avg = translated_average("nu_mu_functional", K, mu=mu, nu=nu, f=f,
                                 stream=st.substream(1), N=cfg.samples)
        lhs = norm.value * avg.value
        lhs_err = (norm.error_estimate * avg.value
                   + norm.value * avg.error_estimate)
        a, a_err = norm.value, norm.error_estimate
        pre = float(n)
    zon, _ = shifted_zonoid(K, mu, f, st.substream(3), cfg.samples, cfg.tol)
    scale = family.F(a) / family.Fprime(a)
    region = _measure_support_set(nu, zon, scale, cfg, st.substream(4))
    unit = int_unit(family, a, n, cfg.tol)
    rhs = pre * region.value * unit.value
    rhs_err = pre * (region.error_estimate * unit.value
                     + region.value * unit.error_estimate)
    if f is None:
        rhs_err += rhs / muK.value * muK.error_estimate
    witnesses = {"nu_mu": Witness(avg.value, avg.error_estimate),
                 "a": Witness(a, a_err),
                 "region_measure": Witness(region.value, region.error_estimate),
                 "unit_integral": Witness(unit.value, unit.error_estimate)}
    return finish_report("two_measure_zhang", lhs, rhs, [lhs_err, rhs_err],
                         witnesses, cfg)


def _s_concave_region_bound(id_, K, mu, nu, s, zon, cfg,
                            binom_witness: bool) -> Report:
    """binom(n + 1/s, n) nu_mu(K) <= nu of the support set of ``zon`` at
    mu(K)/s, the two-measure bound of an s-concave mu; the errors are
    those of nu_mu(K), of the region and of mu(K) carried into it."""
    n = K.n
    st = cfg.stream()
    muK = measure_body(mu, K, st.substream(0), cfg.samples, cfg.tol)
    avg = translated_average("nu_mu_body", K, mu=mu, nu=nu,
                             stream=st.substream(1), N=cfg.samples,
                             tol=cfg.tol)
    coeff = _binom(n + 1.0 / s, n)
    region = _measure_support_set(nu, zon, muK.value / s, cfg, st.substream(2))
    witnesses = {"nu_mu": Witness(avg.value, avg.error_estimate),
                 "mu_K": Witness(muK.value, muK.error_estimate)}
    if binom_witness:
        witnesses["binom"] = Witness(coeff)
    witnesses["region_measure"] = Witness(region.value, region.error_estimate)
    return finish_report(id_, coeff * avg.value, region.value,
                         [coeff * avg.error_estimate, region.error_estimate,
                          region.value / max(muK.value, 1e-300) * muK.error_estimate],
                         witnesses, cfg)


def _verify_s_concave(K, mu, nu, f, family, s, cfg) -> Report:
    require(mu is not None, "s_concave_zhang needs mu")
    require(s is not None and s > 0, "s_concave_zhang needs s > 0")
    require(mu.s_concave is not None and s <= mu.s_concave + 1e-12,
            f"mu ({mu.label}) is not certified s-concave at s = {s}")
    require(nu is not None and nu.radially_nondecreasing,
            "s_concave_zhang needs nu in Lambda_rad")
    zon, _ = shifted_zonoid(K, mu, tol=cfg.tol)
    return _s_concave_region_bound("s_concave_zhang", K, mu, nu, s, zon, cfg,
                                   binom_witness=True)


def _verify_polarized(K, mu, nu, f, family, s, cfg) -> Report:
    require(mu is not None, "polarized_zhang needs mu")
    require(K.is_symmetric(), "polarized_zhang needs a symmetric body")
    require(mu.even, "polarized_zhang needs an even measure")
    s_max = mu.s_concave_symmetric if mu.s_concave_symmetric is not None else mu.s_concave
    require(s is not None and s > 0, "polarized_zhang needs s > 0")
    require(s_max is not None and s <= s_max + 1e-12,
            f"mu ({mu.label}) is not s-concave on symmetric bodies at s = {s}")
    zon = projection_zonoid(K, mu, tol=cfg.tol)  # no offset: eta = 0 by symmetry
    if nu is not None and not nu.is_lebesgue:
        require(nu.radially_nondecreasing, "polarized_zhang needs nu in Lambda_rad")
        return _s_concave_region_bound("polarized_zhang", K, mu, nu, s, zon, cfg,
                                       binom_witness=False)
    # reduced closed form: s^n binom(n + 1/s, n) Vol(K) <= mu(K)^n Vol(Pi_mu°)
    n = K.n
    coeff = _binom(n + 1.0 / s, n)
    muK = measure_body(mu, K, cfg.stream().substream(0), cfg.samples, cfg.tol)
    pv, pv_err = zon.polar_volume()
    product = power_product(muK.value, muK.error_estimate, n, pv, pv_err)
    witnesses = {"mu_K": Witness(muK.value, muK.error_estimate),
                 "polar_volume": Witness(pv, pv_err),
                 "binom": Witness(coeff)}
    return finish_report("polarized_zhang", s ** n * coeff * K.volume,
                         product.value, [product.error], witnesses, cfg)


_DISPATCH = {
    "zhang_petty": _verify_zhang_petty,
    "rogers_shephard": _verify_rogers_shephard,
    "rst_radially_decreasing": _verify_rst,
    "weak_zhang": _verify_weak_zhang,
    "zhang_radial_nondecreasing": _verify_zhang_rad,
    "surface_lower_bound": _verify_surface_lower_bound,
    "exp_norm_gradient_identity": _verify_exp_norm_gradient,
    "set_inclusion_big": _verify_set_inclusion_big,
    "q_concave_zhang": _verify_q_concave,
    "log_concave_zhang": _verify_log_concave,
    "ehrhard_gaussian": _verify_ehrhard,
    "two_measure_zhang": _verify_two_measure,
    "s_concave_zhang": _verify_s_concave,
    "polarized_zhang": _verify_polarized,
}

INEQUALITY_IDS = tuple(sorted(_DISPATCH))


# -- auxiliary checks and sweeps ----------------------------------------------

def berwald_1d_check(q, phi, n: int, xi: float, y_grid,
                     cfg: RunConfig | None = None) -> Report:
    """One-dimensional Berwald-type comparison at every y in y_grid.

    Checks beta ∫_0^y phi r^{n-1} dr >= ∫_0^y q(xi (1 - r/y)) phi r^{n-1} dr
    with beta = n ∫_0^1 q(xi t) (1-t)^{n-1} dt, for phi nondecreasing.  The
    integrals are taken at ``cfg.tol`` (default 1e-10).
    """
    cfg = cfg or RunConfig(tol=1e-10)
    require(xi > 0, "berwald_1d_check needs xi > 0")
    y_grid = np.asarray(y_grid, dtype=float)
    probe = np.linspace(1e-9, float(y_grid.max()), 64)
    require(bool(np.all(np.diff([phi(r) for r in probe]) >= -1e-12)),
            "berwald_1d_check needs phi nondecreasing")
    beta = n * integrate_1d(lambda t: q(xi * t) * (1 - t) ** (n - 1), 0.0, 1.0,
                            cfg.tol).value
    worst = np.inf
    worst_y = None
    errs = 0.0
    for y in y_grid:
        lhs = integrate_1d(lambda r: phi(r) * r ** (n - 1), 0.0, y, cfg.tol)
        rhs = integrate_1d(lambda r: q(xi * (1 - r / y)) * phi(r) * r ** (n - 1),
                           0.0, y, cfg.tol)
        margin = beta * lhs.value - rhs.value
        errs = max(errs, beta * lhs.error_estimate + rhs.error_estimate)
        if margin < worst:
            worst, worst_y = margin, float(y)
    witnesses = {"beta": Witness(beta), "worst_y": Witness(worst_y)}
    return finish_report("berwald_1d_check", -worst, 0.0, [errs], witnesses, cfg)


def pe_sweep(K: Polytope, t_list, cfg: RunConfig | None = None) -> list[dict]:
    """Pe(exp_norm(K), tK) along t, by the direct and the scaling-law route.

    The facet integrals of exp(-||x||_K) over the facets of tK are constant
    on each facet, which gives Pi_mu(tK) = t^{n-1} e^{-t} Pi(K) and hence
    Pe(mu, tK) = t^{-n^2} e^{nt} Vol(Pi° K) mu^n(tK) / Vol(K); the direct
    route evaluates the definition from its own facet cubature.
    """
    cfg = cfg or RunConfig()
    require(K.is_symmetric(), "pe_sweep needs a symmetric body")
    require(np.min(K.offsets) > 1e-9, "pe_sweep needs 0 interior")
    n = K.n
    mu = exp_norm(K)
    pv_base, _ = projection_zonoid(K).polar_volume()
    out = []
    for t in t_list:
        tK = K.scale(float(t))
        mass = exp_norm_mass_of_scaled(K, float(t))
        zon = projection_zonoid(tK, mu, tol=cfg.tol)
        pv_t, _ = zon.polar_volume()
        direct = mass ** n * pv_t / tK.volume
        scaling = (float(t) ** (-n * n) * math.exp(n * float(t))
                   * pv_base * mass ** n / K.volume)
        out.append({"t": float(t), "pe_direct": direct, "pe_scaling": scaling,
                    "pe_error": abs(direct - scaling),
                    "mass": mass,
                    "mass_ratio": mass ** n / K.volume,
                    "mass_ratio_limit": math.factorial(n) ** n
                    * K.volume ** (n - 1)})
    return out


def gaussian_sharpness_sweep(R_list, n: int = 2,
                             cfg: RunConfig | None = None) -> list[dict]:
    """(gamma_n)_lambda(R B) and gamma_n of the Zhang body, along R.

    The translated average of the Gaussian over R*B reduces to a radial
    integral of noncentral chi-square tail masses (exact per radius), so
    the sequence is deterministic and monotone.

    Both columns tend to 1 as R grows, but at different rates.  The
    brightness identity (the slope of r -> g_{RB}(r theta) at 0 is
    -h_{Pi(RB)}(theta) = -omega_{n-1} R^{n-1}) gives the leading-order law

        mu_lambda = 1 - (omega_{n-1} / omega_n) E|G_n| / R + O(R^-3),

    which for n = 2 reads 1 - sqrt(2/pi)/R ~ 1 - 0.798/R: 0.9601 at
    R = 20, first reaching 0.99 near R = 79.8.  The Zhang-body mass
    gamma_n(c_n R B) tends to 1 like a Gaussian tail.
    """
    cfg = cfg or RunConfig()
    require(n in (2, 3), "gaussian_sharpness_sweep supports n in {2, 3}")
    c_n = n * ball_volume(n) / ball_volume(n - 1)
    out = []
    for R in R_list:
        R = float(R)

        def f(r):
            return n * r ** (n - 1) * special.chndtr(R * R, n, (R * r) ** 2)

        avg = integrate_1d(f, 0.0, 1.0, max(cfg.tol, 1e-10))
        zhang_mass = gaussian_ball_mass(n, c_n * R)
        out.append({"R": R, "mu_lambda": avg.value,
                    "mu_lambda_error": avg.error_estimate,
                    "zhang_body_mass": zhang_mass})
    return out
