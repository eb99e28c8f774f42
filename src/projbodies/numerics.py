"""Deterministic random streams, sphere grids, quadrature and Gaussian helpers.

Everything downstream (Monte Carlo measure evaluation, polar volumes, the
inequality reports) builds on the four primitives here:

* ``RandomStream`` -- a splittable, reproducible source of randomness.  Two
  runs with the same ``(seed, stream_index)`` produce bit-identical output;
  distinct stream indices give statistically independent generators.
* ``SphereGrid`` -- directions and positive quadrature weights on S^{n-1},
  with the weights summing to the sphere's surface measure n*kappa_n.
* ``QuadratureResult`` -- a value together with an error estimate that every
  caller treats as an upper bound when it builds tolerance budgets.
* ``monte_carlo`` -- the one Monte Carlo estimator, and ``monte_carlo_in``,
  the same over a body's box with the integrand evaluated only in the body.
  mu(K) and polar-set measures of densities without a ``flux``, L^1 norms,
  mu-covariograms, their brightness derivatives, the interior offset
  integrals, the pair averages of ``translated_average`` and the direction
  average of the exp_norm gradient identity all draw through them, under
  one set of guards (a stream, N >= 1000, finite values).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy import special


class ConfigurationError(ValueError):
    """Invalid or inconsistent arguments (wrong mode, missing flag, ...)."""


class DomainError(ValueError):
    """An argument lies outside the mathematical domain of the operation."""


class EvaluationError(ValueError):
    """An integrand or density returned a non-finite value."""

    def __init__(self, message: str, point=None):
        super().__init__(message)
        self.point = point


class QuadratureFailure(RuntimeError):
    """Quadrature, or a covariogram piece's check, missed its tolerance."""

    def __init__(self, message: str, best: "QuadratureResult"):
        super().__init__(message)
        self.best = best


class PrecisionError(RuntimeError):
    """A Monte Carlo error budget exceeds what the caller asked for."""


@dataclass(frozen=True)
class RandomStream:
    """Seed plus sub-stream index for reproducible, splittable randomness."""

    seed: int
    stream_index: int = 0

    def generator(self) -> np.random.Generator:
        ss = np.random.SeedSequence(self.seed, spawn_key=(self.stream_index,))
        return np.random.Generator(np.random.PCG64(ss))

    def substream(self, i: int) -> "RandomStream":
        # Injective for the shallow fan-outs used here (i < 1000003).
        return RandomStream(self.seed, self.stream_index * 1000003 + i + 1)


@dataclass(frozen=True)
class QuadratureResult:
    """A value and its error budget; (k,) arrays for k Monte Carlo columns."""

    value: float
    error_estimate: float
    evaluations: int

    def __float__(self) -> float:
        return self.value


@dataclass(frozen=True)
class SphereGrid:
    """Directions on S^{n-1} with weights summing to n*kappa_n."""

    n: int
    directions: np.ndarray  # (count, n), unit rows
    weights: np.ndarray     # (count,), positive

    @property
    def count(self) -> int:
        return len(self.weights)

    def validate(self) -> None:
        norms = np.linalg.norm(self.directions, axis=1)
        if np.max(np.abs(norms - 1.0)) > 1e-12:
            raise ConfigurationError("sphere grid directions must be unit vectors")
        total = sphere_surface(self.n)
        if abs(self.weights.sum() - total) > 1e-10 * total:
            raise ConfigurationError("sphere grid weights must sum to n*kappa_n")


def ball_volume(n: int, radius: float = 1.0) -> float:
    """kappa_n R^n, the volume of the Euclidean ball."""
    return np.pi ** (n / 2) / special.gamma(n / 2 + 1) * radius ** n


def squared_norms(points: np.ndarray) -> np.ndarray:
    """|x|^2 of each row, summed column by column.

    Rows are short (the dimension), so a sum over axis 1 would reduce
    along tiny rows; adding whole columns in order gives the same bits
    for dimensions below 8 and runs along length-N arrays.
    """
    points = np.atleast_2d(points)
    out = points[:, 0] * points[:, 0]
    for j in range(1, points.shape[1]):
        out += points[:, j] * points[:, j]
    return out


def sphere_surface(n: int) -> float:
    """Surface measure of S^{n-1}, equal to n*kappa_n."""
    return n * ball_volume(n)


def sphere_directions(n: int, count: int, mode: str = "auto",
                      stream: RandomStream | None = None) -> SphereGrid:
    """Build a quadrature grid of directions on S^{n-1}.

    Modes: ``equal_angle_2d`` (n=2 only), ``fibonacci_3d`` (n=3 only) and
    ``uniform_random`` (any n, requires a stream).  ``auto`` picks the
    deterministic mode for n in {2, 3} and the random one otherwise.
    """
    if n not in (2, 3, 4):
        raise ConfigurationError(f"dimension {n} unsupported (need 2..4)")
    if count < 2 * n:
        raise ConfigurationError(f"count {count} too small (need >= {2 * n})")
    if mode == "auto":
        mode = {2: "equal_angle_2d", 3: "fibonacci_3d"}.get(n, "uniform_random")

    if mode == "equal_angle_2d":
        if n != 2:
            raise ConfigurationError("equal_angle_2d requires n = 2")
        ang = 2.0 * np.pi * np.arange(count) / count
        dirs = np.stack([np.cos(ang), np.sin(ang)], axis=1)
        weights = np.full(count, 2.0 * np.pi / count)
    elif mode == "fibonacci_3d":
        if n != 3:
            raise ConfigurationError("fibonacci_3d requires n = 3")
        i = np.arange(count)
        golden = (1.0 + np.sqrt(5.0)) / 2.0
        z = 1.0 - (2.0 * i + 1.0) / count
        theta = 2.0 * np.pi * i / golden
        r = np.sqrt(np.maximum(0.0, 1.0 - z * z))
        dirs = np.stack([r * np.cos(theta), r * np.sin(theta), z], axis=1)
        weights = np.full(count, 4.0 * np.pi / count)
    elif mode == "uniform_random":
        if stream is None:
            raise ConfigurationError("uniform_random mode requires a RandomStream")
        dirs = _unit_normals(stream.generator(), count, n)
        weights = np.full(count, sphere_surface(n) / count)
    else:
        raise ConfigurationError(f"unknown sphere grid mode {mode!r}")

    grid = SphereGrid(n, dirs, weights)
    grid.validate()
    return grid


def _unit_normals(gen: np.random.Generator, count: int, n: int) -> np.ndarray:
    """(count, n) uniform directions on S^{n-1}: normalised Gaussian rows."""
    raw = gen.standard_normal((count, n))
    return raw / np.linalg.norm(raw, axis=1, keepdims=True)


def gaussian_cdf(x):
    """Standard normal CDF Phi(x)."""
    return special.ndtr(x)


def gaussian_pdf(x):
    return np.exp(-np.asarray(x) ** 2 / 2.0) / np.sqrt(2.0 * np.pi)


def gaussian_quantile(p: float) -> float:
    """Inverse of ``gaussian_cdf``; one Newton polish on top of ndtri.

    Accuracy target: |quantile(cdf(x)) - x| <= 1e-8 for |x| <= 6.
    """
    if not 0.0 < p < 1.0:
        raise DomainError(f"quantile requires p in (0,1), got {p}")
    x = special.ndtri(p)
    pdf = gaussian_pdf(x)
    if pdf > 0.0:
        x = x - (special.ndtr(x) - p) / pdf
    return float(x)


def integrate_1d(f: Callable[[float], float], a: float, b: float,
                 tol: float = 1e-10) -> QuadratureResult:
    """Adaptive Gauss-Kronrod quadrature of ``f`` on (a, b), b possibly ``np.inf``
    (QUADPACK maps (a, inf) onto a finite interval itself).  Raises
    ``QuadratureFailure`` when the error exceeds tol absolutely and relatively.

    ``scipy.integrate``, which imports ``scipy.optimize``, is imported here
    on first use, so that importing the package does not pay for it."""
    from scipy import integrate

    val, err, info = integrate.quad(f, a, b, epsabs=tol, epsrel=1e-12,
                                    limit=200, full_output=True)[:3]
    result = QuadratureResult(val, err, int(info["neval"]))
    if err > tol and err > tol * max(1.0, abs(val)):
        raise QuadratureFailure(
            f"quadrature error {err:.3e} above tolerance {tol:.3e}", result)
    return result


class BoxSampler:
    """Uniform sampler over an axis-aligned box, with its Lebesgue measure.

    ``sample`` maps the uniforms into the box in place, one column at a
    time (u_j *= w_j, then u_j += low_j).  That rounds each element exactly
    as ``lows + u * (highs - lows)`` does, without broadcasting length-n
    rows N times.  The points stay C-ordered (N, n): a column-major array
    would change the bits of the axis-0 means and deviations taken over it.
    """

    def __init__(self, lows, highs):
        self.lows = np.asarray(lows, dtype=float)
        self.highs = np.asarray(highs, dtype=float)
        if self.lows.shape != self.highs.shape or np.any(self.highs < self.lows):
            raise ConfigurationError("invalid box bounds")
        self.measure = float(np.prod(self.highs - self.lows))

    def sample(self, gen: np.random.Generator, count: int) -> np.ndarray:
        u = gen.random((count, len(self.lows)))
        for j, (low, width) in enumerate(zip(self.lows, self.highs - self.lows)):
            u[:, j] *= width
            u[:, j] += low
        return u


class SphereSampler:
    """Uniform directions on S^{n-1}, with its surface measure n kappa_n:
    the draws of ``sphere_directions``' ``uniform_random`` mode."""

    def __init__(self, n: int):
        self.n, self.measure = n, sphere_surface(n)

    def sample(self, gen: np.random.Generator, count: int) -> np.ndarray:
        return _unit_normals(gen, count, self.n)


# Rows of sample points per integrand call in ``monte_carlo``.  Their
# (m, rows) facet slacks and the subsets they gather are built a block at a
# time, so their temporaries stay block-sized and the peak memory of a call
# does not swing with the body's facet count or the seed.
MC_BLOCK = 1 << 16


def row_blocks(count: int) -> list[slice]:
    """Consecutive slices of at most MC_BLOCK rows that cover ``count`` rows."""
    return [slice(start, start + MC_BLOCK) for start in range(0, count, MC_BLOCK)]


def mean_with_budget(values: np.ndarray):
    """Mean over axis 0 and the Monte Carlo budget 3 (s / sqrt N) of it.

    Each column of (N, k) values is reduced as one contiguous run by numpy's
    1-D ``mean`` and ``std(ddof=1)``, which sum pairwise, so every column
    has the bits of a 1-D run of its own.  Column-major values are read in
    place; a row-major column is copied first.  1-D values give floats,
    (N, k) values (k,) arrays.
    """
    N = len(values)
    cols = np.reshape(values, (N, -1)).T
    mean, sd = np.empty(len(cols)), np.empty(len(cols))
    for j, col in enumerate(cols):
        col = np.ascontiguousarray(col)
        mean[j], sd[j] = col.mean(), col.std(ddof=1)
    budget = 3.0 * (sd / np.sqrt(N))
    if np.ndim(values) == 1:
        return float(mean[0]), float(budget[0])
    return mean, budget


def check_monte_carlo(N: int, stream: RandomStream | None):
    """The stream and sample-count guard of every Monte Carlo estimate."""
    if stream is None:
        raise ConfigurationError("Monte Carlo needs a RandomStream")
    if N < 1000:
        raise ConfigurationError(f"need N >= 1000 Monte Carlo samples, got {N}")


def check_finite(values: np.ndarray, points: np.ndarray):
    """Raise ``EvaluationError`` at the first row holding a non-finite value;
    its ``point`` is that row of ``points``."""
    bad = ~np.isfinite(values)
    if np.any(bad):
        row = int(np.argmax(np.reshape(bad, (len(bad), -1)).any(axis=1)))
        raise EvaluationError("integrand returned a non-finite value",
                              point=points[row])


def monte_carlo(sampler, integrand, N: int, stream: RandomStream) -> QuadratureResult:
    """Plain Monte Carlo of ``integrand`` over the sampler's region (a box,
    prisms, the sphere or pairs of points): the mean of its values at N
    uniform draws, times the region's ``measure``, with three standard
    errors (a 99.7% budget) as ``error_estimate``.

    The sampler returns N rows of any trailing shape (points, prism
    coordinates or (y, w) pairs).  This is the one estimator and the one
    place rows are blocked: the vectorized integrand is called on slices of
    ``MC_BLOCK`` rows and returns (rows,) values, or (rows, k) columns that
    share the draw, which fill one (N,) or column-major (N, k) array.  Each
    column gets the bits of a 1-D run of its own; value and error are then
    (k,) arrays.  ``check_monte_carlo`` checks the stream and the sample
    count, ``check_finite`` every value.
    """
    check_monte_carlo(N, stream)
    points = sampler.sample(stream.generator(), N)
    values = None
    for block in row_blocks(N):
        v = np.asarray(integrand(points[block]), dtype=float)
        if values is None:
            values = np.empty((N,) + v.shape[1:], order="F")
        values[block] = v
    check_finite(values, points)
    mean, budget = mean_with_budget(values)
    return QuadratureResult(mean * sampler.measure, budget * sampler.measure, N)


def monte_carlo_in(body, fn, N: int, stream: RandomStream) -> QuadratureResult:
    """``monte_carlo`` over ``body``'s bounding box of ``fn`` times the
    body's indicator (a ``Polytope`` or a ``Ball``).  ``fn`` sees only the
    body's points of each block and returns their values or columns: an
    elementwise ``fn`` gets the bits of ``fn(p) * body.contains(p)``.
    """
    def integrand(p):
        inside = body.contains(p)
        v = np.asarray(fn(p[inside]), dtype=float)
        values = np.zeros((len(p),) + v.shape[1:])
        values[inside] = v
        return values

    return monte_carlo(BoxSampler(*body.bounding_box()), integrand, N, stream)
