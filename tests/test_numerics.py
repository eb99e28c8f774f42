from __future__ import annotations

import math

import numpy as np
import pytest

import projbodies as pb
from projbodies.numerics import MC_BLOCK, BoxSampler, mean_with_budget, row_blocks


def test_sphere_grid_2d_axes():
    grid = pb.sphere_directions(2, 4, "equal_angle_2d")
    expected = np.array([[1, 0], [0, 1], [-1, 0], [0, -1]], dtype=float)
    assert np.allclose(grid.directions, expected, atol=1e-15)
    assert np.allclose(grid.weights, np.pi / 2)


def test_sphere_grid_2d_weights_uniform():
    grid = pb.sphere_directions(2, 360, "equal_angle_2d")
    assert np.allclose(grid.weights, 2 * np.pi / 360)
    assert abs(grid.weights.sum() - 2 * np.pi) < 1e-10


def test_sphere_grid_3d_normalization():
    grid = pb.sphere_directions(3, 1000, "fibonacci_3d")
    assert abs(grid.weights.sum() - 4 * np.pi) < 1e-10
    assert np.max(np.abs(np.linalg.norm(grid.directions, axis=1) - 1)) < 1e-12


def test_sphere_grid_mode_guards(stream):
    with pytest.raises(pb.ConfigurationError):
        pb.sphere_directions(3, 100, "equal_angle_2d")
    with pytest.raises(pb.ConfigurationError):
        pb.sphere_directions(2, 100, "fibonacci_3d")
    with pytest.raises(pb.ConfigurationError):
        pb.sphere_directions(2, 2, "equal_angle_2d")  # count < 2n
    grid = pb.sphere_directions(4, 64, "uniform_random", stream)
    assert abs(grid.weights.sum() - pb.sphere_surface(4)) < 1e-10


def test_random_stream_reproducible():
    a = pb.RandomStream(123, 4).generator().random(16)
    b = pb.RandomStream(123, 4).generator().random(16)
    assert np.array_equal(a, b)
    c = pb.RandomStream(123, 5).generator().random(16)
    assert not np.array_equal(a, c)


def _phi_series(x: float) -> float:
    """Taylor-series oracle for the normal CDF (|x| small enough)."""
    total = 0.0
    term = x
    k = 0
    while abs(term) > 1e-18:
        total += term / (2 * k + 1)
        k += 1
        term *= -x * x / (2 * k)
    return 0.5 + total / math.sqrt(2 * math.pi)


def test_gaussian_cdf_against_series_oracle():
    assert pb.gaussian_cdf(0.0) == 0.5
    assert abs(pb.gaussian_cdf(1.0) - _phi_series(1.0)) < 1e-12
    assert abs(pb.gaussian_cdf(1.0) - 0.841345) < 1e-6
    xs = np.linspace(-3, 3, 13)
    assert np.all(np.diff(pb.gaussian_cdf(xs)) > 0)


def test_gaussian_quantile_roundtrip():
    assert abs(pb.gaussian_quantile(0.5)) < 1e-15
    for x in np.linspace(-6, 6, 25):
        assert abs(pb.gaussian_quantile(float(pb.gaussian_cdf(x))) - x) < 1e-8
    with pytest.raises(pb.DomainError):
        pb.gaussian_quantile(0.0)
    with pytest.raises(pb.DomainError):
        pb.gaussian_quantile(1.0)


def test_integrate_1d_basic():
    res = pb.integrate_1d(lambda t: t, 0.0, 1.0, 1e-12)
    assert abs(res.value - 0.5) <= max(res.error_estimate, 1e-12)
    res = pb.integrate_1d(lambda t: math.exp(-t) * t, 0.0, np.inf, 1e-10)
    assert abs(res.value - 1.0) < 1e-9
    res = pb.integrate_1d(lambda z: z * z * math.exp(-z * z / 2), 0.0, np.inf,
                          1e-10)
    assert abs(res.value - math.sqrt(math.pi / 2)) < 1e-9


def test_integrate_1d_error_honesty_calibration():
    """20 closed-form integrals: the true error must sit under the estimate."""
    euler = 0.5772156649015329
    cases = [
        (lambda t: t ** 3, 0.0, 2.0, 4.0),
        (lambda t: math.sin(t), 0.0, math.pi, 2.0),
        (lambda t: math.cos(t) ** 2, 0.0, 2 * math.pi, math.pi),
        (lambda t: 1.0 / (1 + t * t), 0.0, 1.0, math.pi / 4),
        (lambda t: math.exp(t), 0.0, 1.0, math.e - 1.0),
        (lambda t: math.sqrt(t), 0.0, 1.0, 2.0 / 3),
        (lambda t: math.log(1 + t), 0.0, 1.0, 2 * math.log(2) - 1),
        (lambda t: t * math.exp(-t * t), 0.0, np.inf, 0.5),
        (lambda t: math.exp(-t), 0.0, np.inf, 1.0),
        (lambda t: t ** 4 * math.exp(-t), 0.0, np.inf, 24.0),
        (lambda t: math.exp(-t * t / 2), 0.0, np.inf, math.sqrt(math.pi / 2)),
        (lambda t: 1.0 / (1 + t) ** 3, 0.0, np.inf, 0.5),
        (lambda t: math.sin(3 * t) ** 2, 0.0, math.pi, math.pi / 2),
        (lambda t: abs(t - 0.5), 0.0, 1.0, 0.25),
        (lambda t: t ** 9, 0.0, 1.0, 0.1),
        (lambda t: math.cosh(t), 0.0, 1.0, math.sinh(1.0)),
        (lambda t: 1.0 / math.sqrt(1 + t), 0.0, 3.0, 2.0),
        (lambda t: t * math.log(t) if t > 0 else 0.0, 0.0, 1.0, -0.25),
        (lambda t: math.exp(-t) * math.log(t) if t > 0 else 0.0, 0.0, np.inf,
         -euler),
        (lambda t: t * t * math.exp(-3 * t), 0.0, np.inf, 2.0 / 27),
    ]
    failures = 0
    for f, a, b, truth in cases:
        res = pb.integrate_1d(f, a, b, 1e-10)
        if abs(res.value - truth) > max(res.error_estimate, 1e-13):
            failures += 1
    assert failures == 0


def test_monte_carlo_unit_box(stream):
    box = BoxSampler([0, 0], [1, 1])
    res = pb.monte_carlo(box, lambda p: np.ones(len(p)), 10_000, stream)
    assert res.value == pytest.approx(1.0, abs=1e-12)

    box = BoxSampler([-1, -1], [1, 1])
    res = pb.monte_carlo(box, lambda p: (np.sum(p * p, axis=1) <= 1.0) * 1.0,
                         100_000, stream)
    assert abs(res.value - np.pi) <= res.error_estimate  # disk area = pi r^2


def test_monte_carlo_gaussian_square(stream, gauss2):
    box = BoxSampler([-1, -1], [1, 1])
    res = pb.monte_carlo(box, gauss2.eval, 200_000, stream)
    truth = (2 * pb.gaussian_cdf(1.0) - 1) ** 2
    assert abs(truth - 0.46606) < 1e-5
    assert abs(res.value - truth) <= res.error_estimate


def test_monte_carlo_guards(stream):
    box = BoxSampler([0], [1])
    with pytest.raises(pb.ConfigurationError):
        pb.monte_carlo(box, lambda p: np.ones(len(p)), 10, stream)
    with pytest.raises(pb.EvaluationError):
        pb.monte_carlo(box, lambda p: np.full(len(p), np.nan), 1000, stream)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_box_sampler_matches_broadcast_formula(n):
    """The in-place column mapping gives the bits of lows + u * (highs - lows)
    and a C-ordered array; the last axis has zero width when n > 1."""
    lows = np.array([-1.25, 0.5, 3.0, -7.0])[:n]
    highs = np.array([2.5, 0.75, 3.1, -7.0])[:n]
    if n == 1:
        highs = np.array([-0.3])
    N = 10_007
    points = BoxSampler(lows, highs).sample(pb.RandomStream(77, n).generator(), N)
    reference = lows + pb.RandomStream(77, n).generator().random((N, n)) * (highs - lows)
    assert points.shape == (N, n)
    assert points.flags.c_contiguous
    assert points.tobytes() == reference.tobytes()


@pytest.mark.parametrize("count", [1, 1000, MC_BLOCK, MC_BLOCK + 1, 3 * MC_BLOCK + 17])
def test_row_blocks_cover_the_rows_in_order(count):
    blocks = row_blocks(count)
    rows = np.concatenate([np.arange(count)[b] for b in blocks])
    assert rows.tolist() == list(range(count))
    assert all(0 < len(range(count)[b]) <= MC_BLOCK for b in blocks)
    assert len(blocks) == -(-count // MC_BLOCK)


def test_monte_carlo_bit_identical(stream):
    box = BoxSampler([0, 0], [1, 1])
    f = lambda p: np.sum(p, axis=1)
    r1 = pb.monte_carlo(box, f, 5000, stream)
    r2 = pb.monte_carlo(box, f, 5000, stream)
    assert r1.value == r2.value and r1.error_estimate == r2.error_estimate


@pytest.mark.parametrize("N", [1000, 65537, 200_000])
@pytest.mark.parametrize("shape", ["1d", 1, 2, 3, 4, "fortran"])
def test_mean_with_budget_has_the_bits_of_numpy_reductions(shape, N):
    """Each column gets the bits of numpy's 1-D mean and deviation of that
    column alone, on values whose order of summation shows in the result."""
    gen = np.random.default_rng(N)
    n = {"1d": 1, "fortran": 3}.get(shape, shape)
    values = gen.standard_normal((N, n)) * np.exp(3.0 * gen.standard_normal((N, 1)))
    values[gen.random(N) < 0.5] = 0.0
    if shape == "1d":
        values = values[:, 0].copy()
    elif shape == "fortran":
        values = np.asfortranarray(values)
    mean, budget = mean_with_budget(values)
    assert np.shape(mean) == np.shape(budget) == values.shape[1:]
    if shape == "1d":
        assert type(mean) is float and type(budget) is float
    columns = [values] if shape == "1d" else [values[:, j].copy() for j in range(n)]
    assert np.reshape(mean, -1).tobytes() == np.array(
        [col.mean() for col in columns]).tobytes()
    assert np.reshape(budget, -1).tobytes() == np.array(
        [3.0 * (col.std(ddof=1) / np.sqrt(N)) for col in columns]).tobytes()


@pytest.mark.parametrize("order", ["C", "F"])
def test_monte_carlo_columns_have_the_bits_of_separate_runs(stream, order):
    """An (N, k) integrand gives per column the bits of a 1-D run of its own
    on the same stream, whether its columns are stored C or F ordered."""
    box = BoxSampler([-1.0, 0.0, 2.0], [1.5, 0.5, 2.25])
    fields = [lambda p: np.exp(-p[:, 0] ** 2) * p[:, 1],
              lambda p: (p[:, 0] > 0.3) * 1.0,
              lambda p: np.sin(7.0 * p[:, 2]) / (1.0 + p[:, 1])]
    N = 65537 + 11

    def stacked(p):
        return np.array([f(p) for f in fields]).T.copy(order=order)

    res = pb.monte_carlo(box, stacked, N, stream)
    assert res.evaluations == N and res.value.shape == (len(fields),)
    for j, f in enumerate(fields):
        one = pb.monte_carlo(box, f, N, stream)
        assert res.value[j].hex() == one.value.hex()
        assert res.error_estimate[j].hex() == one.error_estimate.hex()
