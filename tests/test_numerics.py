from __future__ import annotations

import math

import numpy as np
import pytest

import projbodies as pb
from projbodies.numerics import (MC_BLOCK, BoxSampler, mean_with_budget, row_blocks,
                                 squared_norms)


def test_sphere_grid_2d_axes():
    grid = pb.sphere_directions(2, 4)
    expected = np.array([[1, 0], [0, 1], [-1, 0], [0, -1]], dtype=float)
    assert np.allclose(grid.directions, expected, atol=1e-15)
    assert np.allclose(grid.weights, np.pi / 2)


def test_sphere_grid_2d_weights_uniform():
    grid = pb.sphere_directions(2, 360)
    assert np.allclose(grid.weights, 2 * np.pi / 360)
    assert abs(grid.weights.sum() - 2 * np.pi) < 1e-10


def test_sphere_grid_3d_normalization():
    grid = pb.sphere_directions(3, 1000)
    assert abs(grid.weights.sum() - 4 * np.pi) < 1e-10
    assert np.max(np.abs(np.linalg.norm(grid.directions, axis=1) - 1)) < 1e-12


def test_sphere_grid_mode_guards(stream):
    with pytest.raises(pb.ConfigurationError):
        pb.sphere_directions(2, 2)  # count < 2n
    with pytest.raises(pb.ConfigurationError):
        pb.sphere_directions(4, 64)  # no deterministic 4-D grid
    grid = pb.sphere_directions(4, 64, stream)
    assert abs(grid.weights.sum() - pb.sphere_surface(4)) < 1e-10


@pytest.mark.parametrize("n", [3, 4])
def test_sphere_sampler_draws_the_uniform_random_grid(stream, n):
    """``SphereSampler`` draws the directions of the random grid, bit for
    bit, and carries the sphere's surface as its measure."""
    sampler = pb.SphereSampler(n)
    directions = sampler.sample(stream.generator(), 5000)
    grid = pb.sphere_directions(n, 5000, stream)
    assert directions.tobytes() == grid.directions.tobytes()
    assert sampler.measure == pb.sphere_surface(n)


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


def test_monte_carlo_blocks_rows_of_any_trailing_shape(stream):
    """The integrand sees consecutive slices of at most MC_BLOCK rows of
    the sampler's draws, whatever their trailing shape, and the result has
    the bits of one call over all N rows; a non-finite value raises with
    its whole row as the point."""
    class PairsInBox:
        measure = 2.0

        def sample(self, gen, count):
            return gen.random((count, 2, 3))

    N = 2 * MC_BLOCK + 77
    draws = PairsInBox().sample(stream.generator(), N)
    seen = []

    def integrand(p):
        seen.append(p)
        return np.exp(-squared_norms(p[:, 0] - p[:, 1]))

    res = pb.monte_carlo(PairsInBox(), integrand, N, stream)
    assert [len(p) for p in seen] == [MC_BLOCK, MC_BLOCK, 77]
    assert np.concatenate(seen).tobytes() == draws.tobytes()
    mean, budget = mean_with_budget(np.exp(-squared_norms(draws[:, 0] - draws[:, 1])))
    assert (res.value, res.error_estimate) == (2.0 * mean, 2.0 * budget)

    def nan_at_row(p):
        out = np.ones(len(p))
        out[p[:, 0, 0] == draws[MC_BLOCK + 5, 0, 0]] = np.nan
        return out

    with pytest.raises(pb.EvaluationError) as err:
        pb.monte_carlo(PairsInBox(), nan_at_row, N, stream)
    assert err.value.point.tobytes() == draws[MC_BLOCK + 5].tobytes()


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


# -- monte_carlo_in: box Monte Carlo over a body ------------------------------

@pytest.mark.parametrize("body", ["ball", "polytope"])
def test_monte_carlo_in_matches_the_masked_box_integrand(body):
    """Columns evaluated only at the body's points, a block at a time, give
    the bits of the whole-box integrand fn(p) * contains(p)."""
    K = (pb.Ball(3, 0.7, center=[0.1, -0.2, 0.3]) if body == "ball"
         else pb.random_polytope(3, pb.RandomStream(4040)))
    g = pb.gaussian(3)

    def fn(p):
        return np.c_[g.eval(p), np.sum(p * p, axis=1)]

    N, stream = MC_BLOCK + 1234, pb.RandomStream(4141)
    res = pb.numerics.monte_carlo_in(K, fn, N, stream)
    ref = pb.monte_carlo(BoxSampler(*K.bounding_box()),
                         lambda p: fn(p) * K.contains(p)[:, None], N, stream)
    assert res.value.tobytes() == ref.value.tobytes()
    assert res.error_estimate.tobytes() == ref.error_estimate.tobytes()
    assert res.evaluations == N
    with pytest.raises(pb.ConfigurationError):
        pb.numerics.monte_carlo_in(K, fn, 999, stream)


def _inverse_square(n):
    """A custom density without a flux: 1 / (1 + |x|^2)."""
    def ev(p):
        return 1.0 / (1.0 + squared_norms(p))

    def gr(p):
        p = np.atleast_2d(p)
        return -2.0 * p / ((1.0 + squared_norms(p)) ** 2)[:, None]

    return pb.custom_density(n, eval=ev, grad=gr, even=True)


# hex bits of measure_body (exp_norm of the cross-polytope, then the custom
# density), l1_norm, the eta cross-check and tau, each value then its
# error, on pb.random_polytope(n, RandomStream(2020, 10 n + i)), as the
# whole-box integrands of the earlier code gave them
BOX_INTEGRAND_BITS = {
    (2, 0): ("0x1.eb546a6482b79p-1", "0x1.317a2c6f30f0bp-7", "0x1.724ecaf8d73f0p+0",
             "0x1.a0535cf6e018dp-7", "0x1.038cdfd1e165ep-3", "0x1.753d01218405fp-10",
             "-0x1.18ac3e94de5f6p-6", "-0x1.38faf45c70583p-5", "0x1.11013aa1ff061p-10",
             "0x1.221e4000bfcf1p-7", "0x1.0f1d21cf0bd91p-8", "0x1.2804657b4e6b4p-10"),
    (2, 1): ("0x1.80ab319cb82cbp-1", "0x1.86c6fc38d765cp-7", "0x1.479c9118a0555p+0",
             "0x1.3fddd65cb5f8ap-6", "0x1.25ef1ed3787bcp-4", "0x1.7b8d8d9a08b9fp-10",
             "-0x1.7827a99fad856p-4", "-0x1.8e29da167a8fbp-6", "0x1.df24cb0a0cbeep-10",
             "0x1.666eda801f0c4p-7", "0x1.6e468c95b876fp-9", "0x1.7d9944318ac8ep-11"),
    (2, 2): ("0x1.2ef14344abd9cp+1", "0x1.f1785e333ef26p-6", "0x1.0245bdfff18e9p+2",
             "0x1.715f93958cf12p-5", "0x1.fe613d050d462p-3", "0x1.19b950e270e68p-8",
             "-0x1.cf119327ae1efp-11", "-0x1.fdcd66177ac43p-11", "0x1.4f308d6a2b672p-8",
             "0x1.6a3cfe23a0d33p-11", "-0x1.8aa26ea9a9356p-11", "0x1.5e4ec287c0b6fp-9"),
    (3, 0): ("0x1.d1649c233003ep+0", "0x1.5fac7ef2c8c2ap-5", "0x1.eb53812522ac5p+1",
             "0x1.4b1f1b001d9c9p-4", "0x1.4aab3b7c7b08ep-4", "0x1.2473bca7f01f8p-9",
             "-0x1.d45594234603bp-7", "-0x1.3170b56f03f23p-7", "-0x1.81da4266a561ep-6",
             "0x1.79298942205d4p-9", "0x1.0fdf745a7bf8ep-11", "-0x1.1a8eac84a080ep-11",
             "0x1.83a6f4108d7ccp-10", "0x1.9fab2f0f5f270p-10"),
    (3, 1): ("0x1.d4b5e85d12d21p+0", "0x1.ba827fb2be201p-5", "0x1.ef461020e3b1fp+1",
             "0x1.9c58b4ff5c0fdp-4", "0x1.3d333a6ee4112p-4", "0x1.667441b97cb9ep-9",
             "0x1.4da1773ecada5p-5", "-0x1.c18ac7044e793p-6", "-0x1.697b99f049ecap-7",
             "0x1.cbb164dce9916p-9", "-0x1.96458d43166e4p-9", "0x1.6059175e2f448p-10",
             "0x1.bef284d16910ap-11", "0x1.f4fe94f9be5a6p-10"),
    (3, 2): ("0x1.02b1695e8e4e1p+2", "0x1.c986e71e7158ep-4", "0x1.3e66c089bc7c7p+3",
             "0x1.d7a12c32c53eap-3", "0x1.0d44253ac37acp-3", "0x1.540559e206822p-8",
             "-0x1.4eacf41b01990p-15", "-0x1.bea035dcee8bap-13", "0x1.0fd42fad560edp-9",
             "0x1.48f28663c8f0ap-7", "-0x1.c35c7fb0094cep-11", "-0x1.f85fd0f8cea12p-13",
             "0x1.e636a4ec3fcf8p-14", "0x1.b64dd3dac52aep-9"),
    (4, 0): ("0x1.f136b5c154032p-1", "0x1.64a933f95da37p-5", "0x1.3f320658b6a23p+1",
             "0x1.8b8630d243c10p-4", "0x1.0d851d833b735p-6", "0x1.c8a0272680fb7p-11",
             "-0x1.27a852ac1377fp-7", "-0x1.616a5414261e1p-8", "-0x1.176be3637d53cp-8",
             "0x1.845076be753a4p-7", "0x1.50382554554e0p-10", "0x1.a93fd210b245cp-12",
             "0x1.b1c4bc02b68c4p-11", "0x1.38b6144f529b8p-10", "-0x1.1be7f4206a9f0p-11",
             "0x1.7080cd18eaa21p-11"),
    (4, 1): ("0x1.15657cace412ap-1", "0x1.3e366abec6dd8p-5", "0x1.8edc43e0da75dp+0",
             "0x1.8e6edae6257d3p-4", "0x1.ffa996ff694e7p-8", "0x1.5d0411a2893f1p-11",
             "-0x1.a76a8a5f1791bp-7", "-0x1.c3cac8d085ce6p-12", "0x1.5773185a91d1bp-9",
             "-0x1.e506fa0bc8f11p-11", "0x1.74ec60ba71c57p-10", "0x1.618d4c5b2771ep-10",
             "0x1.e75f3366acd48p-15", "-0x1.12c9be1d4f2cbp-13", "0x1.3409ebe05940dp-11",
             "0x1.093dd55b23bd5p-11"),
    (4, 2): ("0x1.90320b980aef3p+2", "0x1.15ed070b0808dp-2", "0x1.7aedb57636139p+4",
             "0x1.973502433e233p-1", "0x1.0be24eac92b6ap-4", "0x1.17cc52c2b66c2p-8",
             "-0x1.8dd842232dfc6p-8", "0x1.2b468861b872cp-8", "-0x1.db9e59d4a6d98p-11",
             "-0x1.9d0147935007dp-11", "0x1.cec304083ed05p-7", "-0x1.0292ae99d3c7bp-12",
             "-0x1.4d66232bb4e71p-12", "0x1.0a734a2c4460ep-12", "-0x1.100811a316dfdp-11",
             "0x1.a2f533f44bdc8p-9"),
}


@pytest.mark.parametrize("n, i", list(BOX_INTEGRAND_BITS))
def test_box_estimates_over_K_keep_their_bits(n, i):
    K = pb.random_polytope(n, pb.RandomStream(2020, 10 * n + i),
                           symmetric=i == 2)
    s, N = pb.RandomStream(3030, 10 * n + i), 70_000
    en, g = pb.exp_norm(pb.cross_polytope(n)), pb.gaussian(n)
    a = pb.measure_body(en, K, s.substream(0), N)
    b = pb.measure_body(_inverse_square(n), K, s.substream(1), N)
    c = pb.covariogram.l1_norm(en, g, K, s.substream(2), N)
    eta = pb.offset_vector(K, g, stream=s.substream(3), N=N)
    tau = pb.offset_vector(K, g, f=en, stream=s.substream(4), N=N)
    got = np.concatenate([np.ravel(v) for v in (
        a.value, a.error_estimate, b.value, b.error_estimate, c.value,
        c.error_estimate, eta.cross_value, eta.cross_error, tau.value,
        tau.error_estimate)])
    assert [float(v).hex() for v in got] == list(BOX_INTEGRAND_BITS[n, i])


def test_measure_body_and_l1_norm_evaluate_only_at_points_of_K():
    """phi (and f) see only the points of K, one block of box rows at a time."""
    K = pb.random_polytope(3, pb.RandomStream(5050))
    seen = []

    def ev(p):
        seen.append(p.copy())
        return 1.0 / (1.0 + squared_norms(p))

    mu = pb.custom_density(3, eval=ev, grad=lambda p: np.zeros_like(p))
    N, stream = 2 * MC_BLOCK + 99, pb.RandomStream(5151)
    points = BoxSampler(*K.bounding_box()).sample(stream.generator(), N)
    per_block = [points[block][K.contains(points[block])] for block in row_blocks(N)]
    assert len(per_block) == 3
    g = pb.gaussian(3)
    for run in (lambda: pb.measure_body(mu, K, stream, N),
                lambda: pb.covariogram.l1_norm(mu, g, K, stream, N),    # f counted
                lambda: pb.covariogram.l1_norm(g, mu, K, stream, N)):   # mu counted
        seen.clear()   # drop the certification probes
        run()
        assert len(seen) == len(per_block)
        for got, want in zip(seen, per_block):
            assert got.tobytes() == want.tobytes()


def test_integrate_1d_failure_carries_its_best_result():
    """sin(1/x)/x oscillates without bound at 0: quadrature misses 1e-12 and
    raises with its best result attached."""
    with pytest.raises(pb.QuadratureFailure) as info:
        pb.integrate_1d(lambda x: np.sin(1.0 / x) / x, 0.0, 1.0, 1e-12)
    best = info.value.best
    assert isinstance(best, pb.QuadratureResult)
    assert best.error_estimate > 1e-12 and best.evaluations > 0
