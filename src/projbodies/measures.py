"""Density catalog, measure evaluation on bodies and boundaries.

A ``Density`` is an evaluatable Radon-Nikodym derivative phi >= 0 with an
almost-everywhere gradient, symmetry/monotonicity flags and a concavity
classification.  Flags are semantic inputs (no automatic concavity
detection): the builtins' flags are theorems, and a custom density's are
checked against 1000 random probes at construction time.

Boundary integrals resolve per facet: mu(dK) is the facet-integral form of
the weighted surface-area measure, computed by adaptive simplex subdivision
with the Grundmann-Moller cubature rule of degree 9.  For polytopes with phi
continuous near dK this coincides with the liminf definition of the
boundary measure.  The simplices of all facets are refined together in
batches: each batch makes one density call on all of its children's nodes,
and batches are bounded in size so that memory stays flat however tight
the tolerance.  Child
measures are Gram determinants taken for the whole batch at once, and
accepted values are summed in the order of a one-simplex-at-a-time
recursion, so results do not depend on the batching.  The reported
evaluation count is the number of points passed to the integrand.

Interior measures mu(K) are exact for Lebesgue.  For the radial builtins
(``gaussian``, ``radial_power``) on a polytope they come from the same
cubature by the divergence theorem: the density's ``flux`` G makes G(y) y a
field of divergence phi, so mu(K) = sum_i b_i ∫_{F_i} G dA over the facets
with offsets b_i.  Every other density, and every ``Ball``, is Monte Carlo
over the body's box.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import numpy as np
from scipy import special

from . import bodies
from .bodies import Polytope
from .numerics import (BoxSampler, ConfigurationError, DomainError,
                       EvaluationError, QuadratureFailure, QuadratureResult,
                       RandomStream, SphereGrid, gaussian_cdf, gaussian_pdf,
                       gaussian_quantile, integrate_1d, monte_carlo,
                       sphere_surface, squared_norms)

DEFAULT_MC_SAMPLES = 200_000


@dataclass(frozen=True)
class Density:
    """Weight function of a measure with locally integrable density.

    ``eval`` and ``grad`` are vectorized over (m, n) point arrays.  The
    ``concavity`` set may contain "log_concave" and "ehrhard_gaussian";
    ``s_concave`` (and ``s_concave_symmetric`` for concavity that only holds
    on symmetric convex bodies) carry the power-concavity exponent.
    ``kind`` names the builtin family ("lebesgue", "gaussian", "exp_norm",
    "radial_power") and is "custom" otherwise; exact paths dispatch on it,
    never on the free-form ``label``.  ``flux``, set only by the radial
    builtins, is G(y) = |y|^-n Psi(|y|) with Psi(r) = ∫_0^r psi(s) s^(n-1) ds
    for phi(x) = psi(|x|): the field G(y) y has divergence phi, which
    ``measure_body`` integrates over the boundary of a polytope.
    """

    n: int
    eval: Callable[[np.ndarray], np.ndarray]
    grad: Callable[[np.ndarray], np.ndarray]
    even: bool = False
    radially_nondecreasing: bool = False
    radially_decreasing: bool = False
    concavity: frozenset = frozenset()
    s_concave: float | None = None
    s_concave_symmetric: float | None = None
    label: str = "custom"
    kind: str = "custom"
    flux: Callable[[np.ndarray], np.ndarray] | None = None

    def __repr__(self):
        return f"Density({self.label}, n={self.n})"

    @property
    def is_lebesgue(self) -> bool:
        return self.kind == "lebesgue"


def _certify_flags(d: Density, probes: int = 1000) -> Density:
    """Reject construction when a declared flag fails on random probes."""
    gen = np.random.Generator(np.random.PCG64(np.random.SeedSequence(2718)))
    x = gen.standard_normal((probes, d.n)) * 2.0
    fx = np.asarray(d.eval(x), dtype=float)
    if np.any(fx < 0) or not np.all(np.isfinite(fx)):
        raise ConfigurationError(f"{d.label}: density must be finite and >= 0")
    if d.even:
        if np.max(np.abs(np.asarray(d.eval(-x)) - fx)) > 1e-12 * (1 + fx.max()):
            raise ConfigurationError(f"{d.label}: evenness flag violated")
    t = gen.random((probes, 1))
    if d.radially_nondecreasing:
        if np.any(np.asarray(d.eval(t * x)) > fx + 1e-12):
            raise ConfigurationError(
                f"{d.label}: radially_nondecreasing flag violated")
    if d.radially_decreasing:
        if np.any(np.asarray(d.eval(t * x)) < fx - 1e-12):
            raise ConfigurationError(
                f"{d.label}: radially_decreasing flag violated")
    return d


def lebesgue(n: int) -> Density:
    return Density(
        n=n,
        eval=lambda p: np.ones(np.atleast_2d(p).shape[0]),
        grad=lambda p: np.zeros_like(np.atleast_2d(p), dtype=float),
        even=True, radially_nondecreasing=True, radially_decreasing=True,
        concavity=frozenset({"log_concave"}), s_concave=1.0 / n,
        s_concave_symmetric=1.0 / n, label="lebesgue", kind="lebesgue")


def gaussian(n: int) -> Density:
    """Standard Gaussian gamma_n; log-concave, Ehrhard-concave, and
    1/n-concave on symmetric convex bodies."""
    norm = (2.0 * np.pi) ** (-n / 2.0)

    def ev(p):
        return norm * np.exp(-0.5 * squared_norms(p))

    def gr(p):
        p = np.atleast_2d(p)
        e = -ev(p)
        out = np.empty_like(p, dtype=float)
        for j in range(p.shape[1]):   # by columns: rows are only n long
            out[:, j] = p[:, j] * e
        return out

    area = sphere_surface(n)

    def flux(p):
        # Psi(r) = P(n/2, r^2/2) / (n kappa_n); below r^2 = 1e-20 the
        # limit G(0) = (2 pi)^(-n/2) / n is exact to double precision
        r2 = squared_norms(p)
        out = np.full(len(r2), norm / n)
        far = r2 > 1e-20
        out[far] = (special.gammainc(n / 2.0, r2[far] / 2.0)
                    / (area * r2[far] ** (n / 2.0)))
        return out

    return Density(
        n=n, eval=ev, grad=gr, even=True, radially_decreasing=True,
        concavity=frozenset({"log_concave", "ehrhard_gaussian"}),
        s_concave_symmetric=1.0 / n, label="gaussian", kind="gaussian",
        flux=flux)


def exp_norm(L: Polytope) -> Density:
    """phi(x) = exp(-||x||_L) for a symmetric polytope L with 0 interior."""
    if not L.is_symmetric():
        raise ConfigurationError("exp_norm needs a symmetric body")
    if np.min(L.offsets) <= 1e-9:
        raise ConfigurationError("exp_norm needs the origin strictly interior")
    U = L.normals / L.offsets[:, None]  # ||x||_L = max_i <U_i, x>

    def norm_L(p):
        return np.max(U @ np.atleast_2d(p).T, axis=0)

    def ev(p):
        return np.exp(-norm_L(p))

    def gr(p):
        p = np.atleast_2d(p)
        scores = p @ U.T
        j = np.argmax(scores, axis=1)
        return -np.exp(-scores[np.arange(len(p)), j])[:, None] * U[j]

    return Density(
        n=L.n, eval=ev, grad=gr, even=True, radially_decreasing=True,
        concavity=frozenset({"log_concave"}), label="exp_norm",
        kind="exp_norm")


def radial_power(n: int, alpha: float) -> Density:
    """phi(x) = |x|^alpha, alpha >= 0: the radially non-decreasing exemplar.

    Undefined gradient at 0; bodies whose boundary passes through the origin
    are rejected by the facet cubature.
    """
    if alpha < 0:
        raise ConfigurationError("radial_power needs alpha >= 0")

    def ev(p):
        return np.sqrt(squared_norms(p)) ** alpha

    def gr(p):
        p = np.atleast_2d(p)
        r = np.sqrt(squared_norms(p))
        r = np.where(r == 0.0, np.inf, r)
        scale = alpha * r ** (alpha - 2.0)
        out = np.empty_like(p, dtype=float)
        for j in range(p.shape[1]):   # by columns: rows are only n long
            out[:, j] = scale * p[:, j]
        return out

    def flux(p):
        return np.sqrt(squared_norms(p)) ** alpha / (n + alpha)

    return Density(
        n=n, eval=ev, grad=gr, even=True, radially_nondecreasing=True,
        label=f"radial_power({alpha})", kind="radial_power", flux=flux)


def custom_density(n, eval, grad, label="custom", **flags) -> Density:
    """User-supplied density; flags are declared, then probe-certified.

    Its kind is always "custom" and it has no flux: a label never selects
    an exact path.
    """
    for field in ("kind", "flux"):
        if field in flags:
            raise ConfigurationError(f"custom densities cannot declare a {field}")
    return _certify_flags(Density(n=n, eval=eval, grad=grad, label=label, **flags))


def compose_linear(mu: Density, T) -> Density:
    """Density of mu^T, namely phi(T x); gradient T^t grad(phi)(T x)."""
    M = T.matrix if hasattr(T, "matrix") else np.asarray(T, dtype=float)

    def ev(p):
        return mu.eval(np.atleast_2d(p) @ M.T)

    def gr(p):
        return mu.grad(np.atleast_2d(p) @ M.T) @ M

    return Density(n=mu.n, eval=ev, grad=gr, even=mu.even,
                   radially_nondecreasing=False, radially_decreasing=False,
                   concavity=mu.concavity, s_concave=mu.s_concave,
                   s_concave_symmetric=None, label=f"{mu.label}∘T")


# -- measures of bodies -------------------------------------------------------

def measure_body(mu: Density, K, stream: RandomStream | None = None,
                 N: int = DEFAULT_MC_SAMPLES, tol: float = 1e-9) -> QuadratureResult:
    """mu(K): exact for Lebesgue, otherwise Monte Carlo over K's box, except
    for a density with a ``flux`` on a polytope.

    There the field G(y) y has divergence phi, and on facet F_i it has
    normal component G(y) b_i, b_i = <y, u_i> the facet's offset.  So
    mu(K) = sum_i b_i ∫_{F_i} G dA by the divergence theorem, with the facet
    integrals from ``facet_integrals`` and the error sum_i |b_i| e_i.  Facet
    i gets the budget tol / (m |b_i|), so the errors sum to about tol, and
    a facet through the origin (b_i = 0) gets an infinite one: it adds
    nothing, and a kink of G at 0 (|y|^alpha) never refines it.  On a large
    body |b_i| and the facet integrals grow until that budget falls below
    the cubature's roundoff floor, where its relative floor takes over.
    """
    if mu.is_lebesgue:
        return QuadratureResult(bodies.volume(K), 0.0, 0)
    if mu.flux is not None and isinstance(K, Polytope):
        b = K.offsets
        with np.errstate(divide="ignore"):
            budgets = tol / (len(b) * np.abs(b))
        values, errors, evals = facet_integrals(K, mu.flux, budgets)
        return QuadratureResult(float(b @ values), float(np.abs(b) @ errors), evals)
    lo, hi = K.bounding_box()
    sampler = BoxSampler(lo, hi)
    contains = K.contains

    def integrand(p):
        return mu.eval(p) * contains(p)

    return monte_carlo(sampler, integrand, N, stream)


def gaussian_ball_mass(n: int, radius: float) -> float:
    """gamma_n of a centered ball: P(chi_n <= radius)."""
    return float(special.gammainc(n / 2.0, radius ** 2 / 2.0))


def exp_norm_mass_of_scaled(L: Polytope, t: float) -> float:
    """Mass of exp(-||.||_L) over t*L: n! Vol(L) P(n, t), exactly.

    Fubini along rays: the radial integral of exp(-r/rho) r^{n-1} over
    [0, t*rho] is rho^n times the lower incomplete gamma at t.
    """
    n = L.n
    return math.factorial(n) * L.volume * float(special.gammainc(n, t))


def total_mass(mu: Density, grid: SphereGrid | None = None,
               tol: float = 1e-10, body: Polytope | None = None) -> QuadratureResult:
    """mu(R^n) for densities with finite mass (gaussian, exp_norm).

    For exp_norm the radial integral is exact per direction, leaving an
    angular integral of Gamma(n) rho_L^n: adaptive in the plane, grid
    quadrature for n >= 3 (pass ``body`` = the generating polytope).
    """
    if mu.kind == "gaussian":
        return QuadratureResult(1.0, 0.0, 0)
    if mu.kind != "exp_norm":
        raise DomainError(f"total mass of {mu.label} is not finite/supported")
    if body is None:
        raise ConfigurationError("total_mass(exp_norm) needs the generating body")
    n = body.n
    gam = special.gamma(n)
    if n == 2:
        def f(a):
            return gam * bodies.radial(body, np.array([math.cos(a), math.sin(a)])) ** n
        return integrate_1d(f, 0.0, 2.0 * np.pi, tol)
    if grid is None:
        raise ConfigurationError("total_mass(exp_norm) needs a grid for n >= 3")
    rho = bodies.radial_many(body, grid.directions)
    val = float(np.sum(grid.weights * gam * rho ** n))
    return QuadratureResult(val, abs(val) * 1e-3, grid.count)


# -- facet cubature -----------------------------------------------------------

_MAX_DEPTH = 14
_BATCH = 4096  # simplices refined per density call: bounds memory at tight tol
_GM_S = 4      # Grundmann-Moller rule of degree 2s + 1 = 9
_ROUNDOFF_ULPS = 16  # roundoff floor added to each accepted error, in ulp of |value|
_RTOL = 1e-12        # relative budget floor of every facet simplex


@functools.cache
def _grundmann_moller(d: int) -> tuple[np.ndarray, np.ndarray]:
    """Grundmann-Moller rule of degree 2s + 1 on a d-simplex.

    Barycentric nodes (2 beta + 1) / (d + 2s + 1 - 2i) for every beta in
    N^{d+1} with |beta| = s - i, i = 0..s, and weights
    (-1)^i 2^{-2s} (d + 2s + 1 - 2i)^{2s+1} d! / (i! (d + 2s + 1 - i)!),
    which sum to 1 (Grundmann & Moller, SIAM J. Numer. Anal. 15, 1978).
    The weights alternate in sign.  The rule has C(d + s + 1, d + 1) nodes:
    15, 35 and 70 for d = 1, 2, 3.  Weights are exact rationals rounded once.
    """
    s = _GM_S
    nodes, weights = [], []
    for i in range(s + 1):
        m = d + 2 * s + 1 - 2 * i
        w = (Fraction((-1) ** i * m ** (2 * s + 1) * math.factorial(d),
                      2 ** (2 * s) * math.factorial(i)
                      * math.factorial(d + 2 * s + 1 - i)))
        for beta in itertools.product(range(s - i + 1), repeat=d + 1):
            if sum(beta) == s - i:
                nodes.append([(2 * b + 1) / m for b in beta])
                weights.append(float(w))
    nodes, weights = np.array(nodes), np.array(weights)
    nodes.flags.writeable = weights.flags.writeable = False  # shared by callers
    return nodes, weights


# Children of the midpoint (d = 1, 2) and red (d = 3, 8 tetrahedra)
# refinements; child vertex (i, j) is the midpoint of parent vertices i, j.
_CHILDREN = {d: np.array(kids) for d, kids in {
    1: [[(0, 0), (0, 1)], [(0, 1), (1, 1)]],
    2: [[(0, 0), (0, 1), (2, 0)], [(1, 1), (1, 2), (0, 1)],
        [(2, 2), (2, 0), (1, 2)], [(0, 1), (1, 2), (2, 0)]],
    3: [[(0, 0), (0, 1), (0, 2), (0, 3)], [(1, 1), (0, 1), (1, 2), (1, 3)],
        [(2, 2), (0, 2), (1, 2), (2, 3)], [(3, 3), (0, 3), (1, 3), (2, 3)],
        [(0, 1), (0, 2), (0, 3), (1, 3)], [(0, 1), (0, 2), (1, 2), (1, 3)],
        [(0, 2), (0, 3), (1, 3), (2, 3)], [(0, 2), (1, 2), (1, 3), (2, 3)]],
}.items()}


def facet_integrals(K: Polytope, fn, tol: float | np.ndarray = 1e-9):
    """Integral of ``fn`` over each facet of K: (values, errors, evaluations).

    The rule on each simplex is the degree-9 Grundmann-Moller rule.  Each
    facet's budget ``tol`` (one for all facets, or one per facet) is split
    evenly among its simplices.  A simplex's error is the gap between its
    children's rule sum and its own rule value, plus a roundoff floor of
    ``_ROUNDOFF_ULPS`` ulp of that sum (the rule's weights alternate in
    sign).  It is accepted, with the children's sum as its value, when that
    error is at most its budget or at most ``_RTOL`` times that sum, and is
    otherwise refined with the budget split evenly among its children; a
    simplex still over budget at depth ``_MAX_DEPTH`` raises
    ``QuadratureFailure``.  The roundoff floor shrinks with the budget as a
    simplex refines, so a budget below it (on a large body, say) would never
    be met alone; ``_RTOL``, well above ``_ROUNDOFF_ULPS`` ulp, keeps every
    simplex acceptable, and the error then shows the relative accuracy
    reached instead of ``tol``.  The gap between the two levels is a
    heuristic error estimate, not a bound; tests compare it with tight
    references.  All facets are refined together: a batch of at most
    ``_BATCH`` simplices makes one call of ``fn`` on all of its children's
    nodes, so memory stays flat however tight ``tol`` is.  A child's rule
    value is kept as its coarse value when it is refined in turn, so no rule
    is evaluated twice.  Accepted values are summed depth-first, simplex by
    simplex, so the result does not depend on the batching.  ``evaluations``
    is the number of points passed to ``fn``.
    """
    roots, facet = K.facet_simplices, K.simplex_facet
    d, n = roots.shape[1] - 1, roots.shape[2]
    bary, w = _grundmann_moller(d)
    pairs = _CHILDREN[d]
    c = len(pairs)
    stack, accepted = [], []
    evals = 0

    def rule(simplices):
        """Rule values (without the measure) on (..., d+1, n) simplices."""
        nonlocal evals
        nodes = (bary @ simplices).reshape(-1, n)
        vals = np.asarray(fn(nodes), dtype=float)
        evals += len(nodes)
        bad = ~np.isfinite(vals)
        if bad.any():
            raise EvaluationError("density not finite on a boundary facet",
                                  point=nodes[int(np.argmax(bad))])
        # a product and a sum along each row, not a matrix-vector product,
        # whose rounding depends on how many rows it is given
        return (vals.reshape(simplices.shape[:-2] + (len(w),)) * w).sum(axis=-1)

    def push(depth, spx, *fields):
        for i in range(0, len(spx), _BATCH):
            stack.append((depth, spx[i:i + _BATCH],
                          *(f[i:i + _BATCH] for f in fields)))

    # Per simplex: its root, its path code (child indices in base c, the
    # first step most significant), its budget and its own rule value.
    push(0, roots, np.arange(len(roots)), np.zeros(len(roots), dtype=np.int64),
         (np.broadcast_to(tol, K.facet_count) / np.bincount(facet))[facet],
         rule(roots) * bodies.simplex_measure(roots))
    while stack:
        depth, spx, root, code, budget, coarse = stack.pop()
        kids = 0.5 * (spx[:, pairs[..., 0]] + spx[:, pairs[..., 1]])
        kid_vals = rule(kids) * bodies.simplex_measure(kids)
        fine = kid_vals[:, 0]  # children added in order, not pairwise
        for j in range(1, c):
            fine = fine + kid_vals[:, j]
        local_err = (np.abs(fine - coarse)
                     + _ROUNDOFF_ULPS * np.finfo(float).eps * np.abs(fine))
        done = local_err <= np.maximum(budget, _RTOL * np.abs(fine))
        if depth >= _MAX_DEPTH and not done.all():
            raise QuadratureFailure(
                "facet cubature refinement depth exhausted",
                QuadratureResult(sum(a[2].sum() for a in accepted) + fine.sum(),
                                 sum(a[3].sum() for a in accepted)
                                 + local_err.sum(), evals))
        accepted.append((root[done], code[done], fine[done], local_err[done]))
        todo = ~done
        if todo.any():
            step = np.arange(c) * c ** (_MAX_DEPTH - 1 - depth)
            push(depth + 1, kids[todo].reshape(-1, d + 1, n),
                 np.repeat(root[todo], c), (code[todo, None] + step).ravel(),
                 np.repeat(budget[todo] / c, c), kid_vals[todo].ravel())

    # Sum root by root, each depth-first with the last child first (codes
    # descending), in sequence (cumsum): the order of a one-simplex-at-a-time
    # recursion.
    root, code, fine, err = (np.concatenate(a) for a in zip(*accepted))
    order = np.lexsort((-code, root))
    bounds = np.searchsorted(root[order], np.arange(len(roots) + 1))
    fine, err = fine[order], err[order]
    values = np.zeros(K.facet_count)
    errors = np.zeros(K.facet_count)
    for i, f in enumerate(facet):
        part = slice(bounds[i], bounds[i + 1])
        values[f] += np.cumsum(fine[part])[-1]
        errors[f] += np.cumsum(err[part])[-1]
    return values, errors, evals


def facet_weights(mu: Density, K: Polytope, tol: float = 1e-9):
    """Per-facet weights w_i = integral of phi over facet F_i.

    Exact (the facet areas) for Lebesgue.  Returns (weights, errors).
    """
    if mu.is_lebesgue:
        return K.areas.copy(), np.zeros_like(K.areas)
    if mu.kind == "radial_power" and np.min(K.offsets) <= 1e-12:
        raise DomainError(
            "radial_power is singular at 0, which lies on the boundary")
    values, errors, _ = facet_integrals(K, mu.eval, tol)
    return values, errors


def boundary_measure(mu: Density, K: Polytope, tol: float = 1e-9) -> QuadratureResult:
    """mu(dK) as the sum of facet weights."""
    w, e = facet_weights(mu, K, tol)
    return QuadratureResult(float(w.sum()), float(e.sum()), 0)


# -- concavity families -------------------------------------------------------

@dataclass(frozen=True)
class ConcavityFamily:
    """A strictly increasing F with inverse and derivative.

    Used as the F/Q/R of the concave-measure inequalities: power families
    F(x) = x^s, the logarithm, and the Gaussian Phi-inverse.
    """

    kind: str
    F: Callable[[float], float]
    Finv: Callable[[float], float]
    Fprime: Callable[[float], float]
    domain: tuple[float, float] = (0.0, np.inf)
    s: float | None = None
    F_at_zero: float = 0.0  # limit of F at 0+, used for hypothesis checks


def power_family(s: float) -> ConcavityFamily:
    if s <= 0:
        raise ConfigurationError("power family needs s > 0")
    return ConcavityFamily(
        kind="power", s=s,
        F=lambda x: x ** s,
        Finv=lambda y: y ** (1.0 / s),
        Fprime=lambda x: s * x ** (s - 1.0))


def log_family() -> ConcavityFamily:
    return ConcavityFamily(
        kind="log",
        F=math.log, Finv=math.exp, Fprime=lambda x: 1.0 / x,
        F_at_zero=-np.inf)


def gaussian_phi_inverse_family() -> ConcavityFamily:
    return ConcavityFamily(
        kind="gaussian_phi_inverse",
        F=gaussian_quantile,
        Finv=lambda y: float(gaussian_cdf(y)),
        Fprime=lambda x: float(1.0 / gaussian_pdf(gaussian_quantile(x))),
        domain=(0.0, 1.0), F_at_zero=-np.inf)


def family_eval(fam: ConcavityFamily, which: str, x: float) -> float:
    """Evaluate F, F^{-1} or F' with domain checking."""
    if which in ("F", "Fprime"):
        lo, hi = fam.domain
        if not lo < x < hi:
            raise DomainError(f"{x} outside domain ({lo}, {hi}) of {fam.kind}")
    elif which != "Finv":
        raise ConfigurationError(f"unknown selector {which!r}")
    return float(getattr(fam, which)(x))
