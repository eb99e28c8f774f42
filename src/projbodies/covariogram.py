"""Covariograms: classical, measure-weighted, functional and polarized.

The classical covariogram g_K(x) = Vol(K ∩ (K+x)) is computed exactly from
polytope arithmetic.  Along a ray, r -> g_K(r theta) is a polynomial of
degree <= n between the radii where a face of K meets a face of K + r theta
of complementary dimension; ``ray_pieces`` finds those radii from the face
pairs of ``bodies.face_pairs`` (the face lattice lives in ``bodies``, which
reads the vertices of K ∩ (K+x) off the same pairs) and samples each piece
at n + 1 nodes.  Mean bodies integrate the pieces in closed form,
and the slope of the first one is the exact brightness derivative.

The measure-weighted variants are ``numerics.monte_carlo`` over the
intersection, known in H-representation (membership tests against K's
facets).  Several translations are the columns of one integrand: they share
one draw of box points, one projection onto K's normals and one phi, and
each column gets the bits of a draw of its own.  Only the polarized mode,
whose box grows with |x|, draws afresh for each.  Their brightness
derivatives are ``monte_carlo`` of Richardson-combined difference quotients
4 v(h/2) - v(h) - 3 v(0) on common random points.  In the plain and
polarized modes that quotient is zero outside a sliver of K within one step
h of its shadow boundary, so ``PrismSampler`` draws the points from thin
prisms on K's facets that hold the sliver: their volume is h h_{Pi K}(theta)
by Cauchy's formula, and each draw's depth in its prism is its reach.  The
functional quotient is nonzero on all of K, so it keeps box points, projected
onto K's normals once; each point's largest admissible step along theta,
read off its facet slacks, gives every mask.  The integrand runs the kernels
on blocks of ``numerics.MC_BLOCK`` rows, so their temporaries never span all
N points and their memory does not depend on the body or the seed.

Translated averages integrate a covariogram against a second measure by
sampling pairs of uniform points of K.  ``sample_uniform`` draws them by
box rejection, a block of ``MC_BLOCK`` candidates at a time; it stops
testing once it has enough and skips the generator past the untested rest,
so its points and the draws after it are those of whole-chunk rejection.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from . import bodies
from .bodies import Polytope
from .measures import Density, lebesgue, measure_body, DEFAULT_MC_SAMPLES
from .numerics import (MC_BLOCK, BoxSampler, ConfigurationError, DomainError,
                       PrecisionError, QuadratureFailure, QuadratureResult,
                       RandomStream, mean_with_budget, monte_carlo, row_blocks)


@dataclass
class CovariogramQuery:
    """What to evaluate: the body, the weighting, and the precision knobs."""

    K: Polytope
    mu: Density | None = None
    f: Density | None = None
    mode: str = "plain"
    stream: RandomStream | None = None
    N: int = DEFAULT_MC_SAMPLES
    tol: float | None = None

    def __post_init__(self):
        if self.mu is None:
            self.mu = lebesgue(self.K.n)
        if self.mode not in ("plain", "functional", "polarized"):
            raise ConfigurationError(f"unknown covariogram mode {self.mode!r}")
        if self.mode == "functional" and self.f is None:
            raise ConfigurationError("functional mode requires f")
        if self.mode != "functional" and self.f is not None:
            raise ConfigurationError(f"mode {self.mode!r} does not take an f")


def covariogram_exact(K: Polytope, x) -> float:
    """g_K(x) = Vol(K ∩ (K+x)); exact, supported exactly on DK."""
    return bodies.clip_translate_volume(K, np.asarray(x, dtype=float))


def _nodal_inverse(n: int) -> np.ndarray:
    """Maps values at t = 0, 1/n, ..., 1 to the c_k of sum_k c_k t^k."""
    return np.linalg.inv(np.vander(np.linspace(0.0, 1.0, n + 1), increasing=True))


class RayPiece(NamedTuple):
    """g_K(r theta) on [a, b]: its values at the n + 1 equispaced nodes, the
    c_k of g(a + (b - a) t) = sum_k c_k t^k, and the gap at the check node."""

    a: float
    b: float
    values: np.ndarray
    coefficients: np.ndarray
    residual: float


def _breakpoints(K: Polytope, theta: np.ndarray, rho: float) -> np.ndarray:
    """Sorted radii in (0, rho) where r -> g_K(r theta) may change polynomial.

    A face of K cut out by j facets meets one of K + r theta cut out by
    n + 1 - j facets where the determinant of their rows [u, b] (shifted:
    [u, b + r <u, theta>]), affine in r, vanishes and the meeting point lies
    in both bodies.  Roots closer than 1e-10 rho are merged.
    """
    n, tol = K.n, 1e-9 * max(1.0, K.diameter)
    roots = []
    for j, M in bodies.face_pairs(K, n + 1):
        A, shift = M[..., :n], M[..., :n] @ theta
        shift[:, :j] = 0.0
        d1 = np.linalg.det(np.concatenate([A, shift[..., None]], axis=2))
        with np.errstate(divide="ignore", invalid="ignore"):
            r = -np.linalg.det(M) / d1
            ok = (np.abs(d1) > 1e-12) & (r > 1e-10 * rho) & (r < (1.0 - 1e-10) * rho)
        r, rhs = r[ok], M[ok][..., n] + r[ok, None] * shift[ok]
        x = (np.linalg.pinv(A[ok]) @ rhs[..., None])[..., 0]
        meets = ((K.slack(x, tol).min(axis=0) >= 0.0)
                 & (K.slack(x - r[:, None] * theta, tol).min(axis=0) >= 0.0))
        roots.append(r[meets])
    roots = np.sort(np.concatenate(roots))
    return roots[np.diff(roots, prepend=-np.inf) > 1e-10 * rho]


def ray_pieces(K: Polytope, theta, tol: float = 1e-9):
    """Yield the polynomial pieces of r -> g_K(r theta) on [0, rho_DK(theta)].

    g(0) = Vol K and g(rho_DK) = 0 are known, and neighbours share a node.
    Each piece is checked at t = 1 / (2n) of the way along it: a gap above
    tol * Vol K (a missed breakpoint) raises ``QuadratureFailure``.
    """
    theta = np.asarray(theta, dtype=float) / np.linalg.norm(theta)
    n, vol = K.n, K.volume
    rho = bodies.radial_many(bodies.difference_body(K), theta[None, :])[0]
    edges = np.r_[0.0, _breakpoints(K, theta, rho), rho]
    left, check = vol, 0.5 / n
    for a, b in zip(edges, edges[1:]):
        right = 0.0 if b == rho else covariogram_exact(K, b * theta)
        values = np.r_[left, [covariogram_exact(K, (a + (b - a) * i / n) * theta)
                              for i in range(1, n)], right]
        coefficients = _nodal_inverse(n) @ values
        g = covariogram_exact(K, (a + (b - a) * check) * theta)
        residual = g - np.polyval(coefficients[::-1], check)
        if abs(residual) > tol * vol:
            raise QuadratureFailure(f"covariogram piece [{a:.6g}, {b:.6g}] misses its "
                                    f"check node by {residual:.3e} (tol {tol:.1e})",
                                    QuadratureResult(g, abs(residual), n + 1))
        yield RayPiece(float(a), float(b), values, coefficients, float(residual))
        left = right


def _sampling_box(q: CovariogramQuery, pad: float = 0.0) -> BoxSampler:
    lo, hi = q.K.bounding_box()
    return BoxSampler(lo - pad, hi + pad)


class PrismSampler:
    """Uniform draws from the thin prisms on K's facets that carry the
    brightness sliver, with their total volume as ``measure``.

    With c_i = <u_i, theta>, the plain prisms are S + [0, h) theta over the
    facet simplices S of the facets with c_i < 0, and the polarized ones
    S + [0, h/2) d_i, d_i = -sign(c_i) theta, over those with c_i != 0.
    Each d_i points into K.  A prism has volume |S| |c_i| depth, so by
    Cauchy's formula the prisms hold h h_{Pi K}(theta) in both modes.

    ``sample`` returns (count, n + 2) rows (x, t, s): a point x = y + t d
    with y uniform on simplex s and t uniform in [0, depth).  The simplices
    get multinomial shares of the rows, in order, so the rows come grouped
    by simplex; the array is column-major, so every column is contiguous.

    Only the facets j with a_j = <u_j, d> > 0 can cut a prism, and only
    where their slack at some vertex of S is below h a_j.  ``cuts`` holds,
    per simplex, those u_j / a_j and slack_j(0) / a_j = (b_j + tol) / a_j
    (``Polytope.slack`` at the origin), so that the difference
    slack_j(0) / a_j - <u_j / a_j, x> is the exit distance of x along d
    through facet j; every other facet keeps every point of the prism at
    least h/2 from its exit.
    """

    def __init__(self, K: Polytope, theta: np.ndarray, h: float, polarized: bool):
        c = K.normals @ theta
        keep = (c != 0.0 if polarized else c < 0.0)[K.simplex_facet]
        c = c[K.simplex_facet[keep]]
        self.n, self.h, self.polarized = K.n, h, polarized
        self.depth = h / 2.0 if polarized else h
        self.simplices = K.facet_simplices[keep]
        self.directions = -np.sign(c)[:, None] * theta
        volumes = bodies.simplex_measure(self.simplices) * np.abs(c) * self.depth
        self.measure = float(volumes.sum())
        self.p = volumes / self.measure
        rates = self.directions @ K.normals.T                       # (S, m)
        vertex_slack = K.slack(self.simplices.reshape(-1, K.n))      # (m, S n)
        low = vertex_slack.reshape(K.facet_count, -1, K.n).min(axis=2).T
        origin = K.slack(np.zeros(K.n))[:, 0]
        self.cuts = []
        for a, s in zip(rates, low):
            j = np.flatnonzero((a > 0.0) & (s < h * a))
            self.cuts.append((K.normals[j] / a[j, None], origin[j] / a[j]))

    def sample(self, gen: np.random.Generator, count: int) -> np.ndarray:
        n = self.n
        counts = gen.multinomial(count, self.p)
        out = np.empty((n + 2, count))
        # rows 1 .. n-1 take the barycentric uniforms, row n the depths
        gen.random(out=out[1:n + 1])
        out[n] *= self.depth
        stops = np.cumsum(counts)
        for s, (S, d, start, stop) in enumerate(zip(self.simplices, self.directions,
                                                    stops - counts, stops)):
            rows = out[:, start:stop]
            rows[n + 1] = s
            _barycentric(rows[1:n])
            # x = S_0 + sum_k w_k (S_k - S_0) + t d, one product over rows 1 .. n
            x = np.vstack([S[1:] - S[0], d]).T @ rows[1:n + 1]
            np.add(x, S[0][:, None], out=rows[:n])
        return out.T


def _barycentric(u: np.ndarray) -> np.ndarray:
    """Weights of vertices 1 .. d of uniform points on a d-simplex, from
    (d, k) uniforms, in place: the spacings of the sorted uniforms.  The
    rows are sorted by compare-exchanges of whole rows (none for d = 1)."""
    for i in range(1, len(u)):
        for j in range(i, 0, -1):
            low = np.minimum(u[j - 1], u[j])
            np.maximum(u[j - 1], u[j], out=u[j])
            u[j - 1] = low
    for j in range(len(u) - 1, 0, -1):
        u[j] -= u[j - 1]
    return u


def _prism_quotients(q: CovariogramQuery, sampler: PrismSampler,
                     draws: np.ndarray) -> np.ndarray:
    """Per-draw quotient 4 v(h/2) - v(h) - 3 v(0) of the plain or polarized
    covariogram integrands at prism draws (x, t, s).

    A draw x = y + t d that lies in K leaves it backwards through y, so its
    plain reach is exactly t < h: the quotient is phi(x) (4 [t >= h/2] - 3),
    that is phi(x) or -3 phi(x).  Its exit distance forwards, ``far``, is the
    least over the simplex's cutting facets (infinity if none), and x is in
    K iff far >= 0.  The polarized reach is 2 min(t, far) < h, and a draw
    within h/2 of both exits lies in two prisms, so it counts half.  Draws
    outside K give 0, whatever phi is there; phi is evaluated at every draw.
    """
    n, h = sampler.n, sampler.h
    x, t = draws[:, :n], draws[:, n]
    far = np.full(len(draws), np.inf)
    bounds = np.searchsorted(draws[:, n + 1], np.arange(len(sampler.cuts) + 1))
    for (U, b), start, stop in zip(sampler.cuts, bounds, bounds[1:]):
        if len(b) and stop > start:
            exits = U @ x[start:stop].T
            np.subtract(b[:, None], exits, out=exits)
            far[start:stop] = exits.min(axis=0)
    if sampler.polarized:
        w = np.where(np.minimum(t, far) >= h / 4.0, 1.0, -3.0)
        w[far < h / 2.0] *= 0.5
    else:
        w = np.where(t >= h / 2.0, 1.0, -3.0)
    out = q.mu.eval(x) * w
    out[far < 0.0] = 0.0
    return out


def _brightness_quotients(q: CovariogramQuery, points: np.ndarray,
                          theta: np.ndarray, h: float) -> np.ndarray:
    """Per-point quotient 4 v(h/2) - v(h) - 3 v(0) of the functional
    covariogram integrands v at steps {0, h/2, h} on shared box points.

    The points are projected onto K's normals once, as facet-major slacks
    b_i + tol - <u_i, x>.  The base mask (x in K) comes from them, and so
    does each point's reach s*: with c_i = <u_i, theta>, x - s theta stays
    in K while s <= min over c_i < 0 of slack_i / -c_i.  The masks at h/2
    and h are s* >= step.  f(x - s theta) differs from f(x), so every point
    of K is evaluated; the common random points make the variance of the
    quotient proportional to the sliver, not the body.
    """
    K, mu = q.K, q.mu
    slack = K.slack(points)
    c = K.normals @ theta
    inside = np.flatnonzero(np.all(slack >= 0.0, axis=0))
    reach = np.full(len(points), np.inf)
    # rows are scaled in place, so no second (m, N) array is ever held
    for i in np.flatnonzero(c < 0.0):
        slack[i] /= -c[i]
        np.minimum(reach, slack[i], out=reach)
    del slack
    reach = np.take(reach, inside)

    x = np.take(points, inside, axis=0)
    phi = mu.eval(x)
    values = [q.f.eval(x) * phi]
    for step in (h / 2, h):
        shifted = x.copy()
        for j, t in enumerate(step * theta):   # x - step theta, by columns
            shifted[:, j] -= t
        values.append(q.f.eval(shifted) * phi * (reach >= step))
    v0, v1, v2 = values
    out = np.zeros(len(points))
    out[inside] = 4.0 * v1 - v2 - 3.0 * v0
    return out


def _pointwise_values(q: CovariogramQuery, points: np.ndarray, xs):
    """Yield the integrand of the queried covariogram at the sample points,
    for each translation in ``xs`` in turn, from one projection onto K's
    normals and one phi.

    With c_i = <u_i, x>: p, p - x are in K iff every slack_i >= max(-c_i, 0);
    p ± x/2 iff slack_i >= |c_i| / 2 (polarized).  Roundoff may flip a point
    within an ulp of a shifted facet.
    """
    K = q.K
    slack = K.slack(points)
    phi = q.mu.eval(points)
    for x in xs:
        c = K.normals @ x
        need = np.abs(c) / 2.0 if q.mode == "polarized" else np.maximum(-c, 0.0)
        inside = np.all(slack >= need[:, None], axis=0)
        if q.mode == "functional":
            yield q.f.eval(points - x) * phi * inside
        else:
            yield phi * inside


def mu_covariogram(q: CovariogramQuery, x):
    """g_{mu,K}(x), r_{mu,K}(x) or g_{mu,f}(K, x), per ``q.mode``.

    ``x`` is one translation (n,), which gives one ``QuadratureResult``, or a
    stack (k, n) of them, which gives a list.  At x = 0 the value is mu(K)
    (plain/polarized) or the L^1(mu, K) norm of f (functional).  The
    Lebesgue plain/polarized path is exact.  Otherwise the translations are
    the columns of one ``monte_carlo`` call from ``q.stream`` over K's box,
    except in polarized mode, whose box is padded by |x| / 2 and so drawn
    afresh for each x.  Each translation gets the bits a draw of its own
    would give.
    """
    xs = np.asarray(x, dtype=float)
    single = xs.ndim == 1
    xs = np.atleast_2d(xs)
    if q.mu.is_lebesgue and q.mode in ("plain", "polarized"):
        # r_{lambda,K} = g_K by translation invariance
        results = [QuadratureResult(covariogram_exact(q.K, x), 0.0, 0) for x in xs]
        return results[0] if single else results
    if q.mode == "polarized":
        draws = [(_sampling_box(q, float(np.linalg.norm(x)) / 2.0), x[None])
                 for x in xs]
    else:
        draws = [(_sampling_box(q), xs)]
    results = []
    for box, group in draws:
        def columns(points, group=group):
            # stacked column-major, so each column is reduced in place
            return np.array(list(_pointwise_values(q, points, group))).T

        res = monte_carlo(box, columns, q.N, q.stream)
        results += [QuadratureResult(float(v), float(e), res.evaluations)
                    for v, e in zip(res.value, res.error_estimate)]
    return results[0] if single else results


def brightness_derivative(q: CovariogramQuery, theta, h: float | None = None
                          ) -> QuadratureResult:
    """One-sided radial derivative of the covariogram at 0.

    The exact Lebesgue path reads it off the first piece of ``ray_pieces``:
    the linear coefficient c_1 / b, with an error propagated from the
    piece's check residual plus a roundoff floor of 64 ulp of Vol K.  The
    Monte Carlo path is ``monte_carlo`` of the Richardson-combined
    difference quotients at steps {h, h/2}, divided by h (h defaults to
    1e-3 of the body diameter), on common random points; its budget is
    three standard errors of that quotient.  The plain and polarized modes
    draw the points from the facet prisms of ``PrismSampler``, where the
    quotient lives; the functional mode draws them from K's box padded by h.
    The quotients are per row, so building them a block of rows at a
    time gives the bits of one kernel call over all N rows (tests pin this
    in two and three dimensions).
    """
    theta = np.asarray(theta, dtype=float)
    theta = theta / np.linalg.norm(theta)
    if h is None:
        h = 1e-3 * q.K.diameter
    rho = bodies.radial_many(bodies.difference_body(q.K), theta[None, :])[0]
    if not 0.0 < h <= rho / 4.0 + 1e-12:
        raise DomainError(f"step {h} outside (0, rho_DK/4 = {rho / 4.0:.3g}]")

    if q.mu.is_lebesgue and q.mode in ("plain", "polarized"):
        first = next(ray_pieces(q.K, theta, 1e-9 if q.tol is None else q.tol))
        noise = abs(first.residual) + 64.0 * np.finfo(float).eps * q.K.volume
        value, evals = first.coefficients[1] / first.b, q.K.n + 1
        err = np.abs(_nodal_inverse(q.K.n)[1]).sum() * noise / first.b
    else:
        if q.mode == "functional":
            sampler = _sampling_box(q, pad=h)

            def kernel(points):
                return _brightness_quotients(q, points, theta, h)
        else:
            sampler = PrismSampler(q.K, theta, h, q.mode == "polarized")

            def kernel(draws):
                return _prism_quotients(q, sampler, draws)

        def quotients(points):
            r = np.empty(len(points))
            for block in row_blocks(len(points)):
                r[block] = kernel(points[block])
            r /= h
            return r

        res = monte_carlo(sampler, quotients, q.N, q.stream)
        value, err, evals = res.value, res.error_estimate, 3 * q.N
    if q.tol is not None and err > q.tol:
        raise PrecisionError(
            f"brightness error budget {err:.3e} exceeds tol {q.tol:.3e}; "
            f"increase N (currently {q.N})")
    return QuadratureResult(float(value), float(err), evals)


# -- translated averages ------------------------------------------------------

def sample_uniform(body, gen: np.random.Generator, count: int) -> np.ndarray:
    """Uniform points in a convex body by bounding-box rejection.

    Candidates come in chunks of about 1.3 times the expected need.  Each
    chunk is drawn, tested with ``body.contains`` and kept a block of
    ``numerics.MC_BLOCK`` rows at a time, the accepted rows going straight
    into the output.  ``Generator.random`` fills row-major, one PCG64 step
    per float, so a chunk drawn block by block has the bits of one draw.
    Once ``count`` points are kept, the untested rest of the chunk is
    skipped with ``bit_generator.advance``: the generator ends where a
    whole-chunk draw would leave it, and the draws after this call do not
    depend on the blocking (``advance`` also drops a buffered 32-bit
    half-draw, which no float draw leaves).
    """
    lo, hi = body.bounding_box()
    box = BoxSampler(lo, hi)
    vol = bodies.volume(body)
    n = len(lo)
    out = np.empty((count, n))
    have = 0
    chunk = int(min(4_000_000, max(1024, count * box.measure / vol * 1.3)))
    while have < count:
        for start in range(0, chunk, MC_BLOCK):
            rows = min(MC_BLOCK, chunk - start)
            cand = box.sample(gen, rows)
            keep = np.flatnonzero(body.contains(cand))[:count - have]
            np.take(cand, keep, axis=0, out=out[have:have + len(keep)])
            have += len(keep)
            if have == count:
                gen.bit_generator.advance((chunk - start - rows) * n)
                break
    return out


def _as_eval(f) -> Callable[[np.ndarray], np.ndarray]:
    return f.eval if isinstance(f, Density) else f


def translated_average(kind: str, K, mu: Density | None = None,
                       nu: Density | None = None, f=None,
                       stream: RandomStream | None = None,
                       N: int = DEFAULT_MC_SAMPLES,
                       tol: float = 1e-9) -> QuadratureResult:
    """Covariogram integrated against a second measure, normalized.

    Kinds (all reduce by Fubini to double integrals over K x K, which is
    what gets sampled):

    * ``mu_lambda``:  (1/Vol K) ∫_DK g_K dmu       = Vol(K) E[phi_mu(y - w)]
    * ``nu_mu_body``: (1/mu K)  ∫_DK g_{mu,K} dnu  = V^2 E[phi_mu(y) phi_nu(y-w)] / mu(K)
    * ``nu_mu_functional``: same with f(w) inserted, normalized by the
      L^1(mu, K) norm of f.

    y Stands for the K-sample acted on by mu, w for the translate sample.
    mu(K) comes from ``measure_body`` at ``tol``.  The integrand is evaluated on
    ``MC_BLOCK`` rows at a time, so its temporaries stay block-sized.
    """
    if stream is None:
        raise ConfigurationError("translated_average needs a RandomStream")
    vol = bodies.volume(K)
    if vol <= 0:
        raise DomainError("zero-volume normalizer")
    gen = stream.generator()
    ys = sample_uniform(K, gen, N)
    ws = sample_uniform(K, gen, N)

    def blocked(pair_values):
        # one (N,) array, filled a block of rows at a time: elementwise, so
        # the bits are those of the whole-array expression
        out = np.empty(N)
        for rows in row_blocks(N):
            out[rows] = pair_values(ys[rows], ws[rows])
        return out

    if kind == "mu_lambda":
        if mu is None:
            raise ConfigurationError("mu_lambda needs mu")
        mean, err = mean_with_budget(blocked(lambda y, w: mu.eval(y - w) * vol))
        return QuadratureResult(mean, err, N)

    if kind == "nu_mu_body":
        if mu is None or nu is None:
            raise ConfigurationError("nu_mu_body needs mu and nu")
        num_vals = blocked(lambda y, w: mu.eval(y) * nu.eval(y - w) * vol * vol)
        den = measure_body(mu, K, stream.substream(1), N, tol)
    elif kind == "nu_mu_functional":
        if mu is None or nu is None or f is None:
            raise ConfigurationError("nu_mu_functional needs mu, nu and f")
        fe = _as_eval(f)
        num_vals = blocked(lambda y, w: mu.eval(y) * fe(w) * nu.eval(y - w)
                           * vol * vol)
        den = l1_norm(f, mu, K, stream.substream(1), N)
    else:
        raise ConfigurationError(f"unknown translated-average kind {kind!r}")

    if den.value <= 0:
        raise DomainError(f"zero normalizer for kind {kind!r}")
    num, num_err = mean_with_budget(num_vals)
    value = num / den.value
    err = num_err / den.value + abs(num) * den.error_estimate / den.value ** 2
    return QuadratureResult(value, err, 2 * N)


def l1_norm(f, mu: Density, K, stream: RandomStream,
            N: int = DEFAULT_MC_SAMPLES) -> QuadratureResult:
    """L^1(mu, K) norm of f by Monte Carlo over K's bounding box."""
    lo, hi = K.bounding_box()
    box = BoxSampler(lo, hi)
    fe = _as_eval(f)

    def integrand(p):
        return np.abs(fe(p)) * mu.eval(p) * K.contains(p)

    return monte_carlo(box, integrand, N, stream)
