from __future__ import annotations

import numpy as np
import pytest

import projbodies as pb


@pytest.fixture(scope="session")
def triangle():
    return pb.build_polytope([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])


@pytest.fixture(scope="session")
def square():
    return pb.cube(2)


@pytest.fixture(scope="session")
def cross2():
    return pb.cross_polytope(2)


@pytest.fixture(scope="session")
def simplex3():
    return pb.standard_simplex(3)


@pytest.fixture(scope="session")
def cube3():
    return pb.cube(3)


@pytest.fixture(scope="session")
def leb2():
    return pb.lebesgue(2)


@pytest.fixture(scope="session")
def gauss2():
    return pb.gaussian(2)


@pytest.fixture
def stream():
    return pb.RandomStream(20240817)


@pytest.fixture(scope="session")
def grid64():
    return pb.sphere_directions(2, 64)


@pytest.fixture(scope="session")
def grid4096():
    return pb.sphere_directions(2, 4096)


# closed-form anchors used across modules
PHI_1 = 0.8413447460685429          # standard normal CDF at 1
GAMMA2_SQUARE = (2 * PHI_1 - 1) ** 2
EDGE_WEIGHT = 0.1651908710340167    # gaussian mass of one edge of [-1,1]^2


def gauss_edge_weight():
    """Independent 1-D quadrature oracle for the edge weight."""
    from scipy.integrate import quad
    val, _ = quad(lambda y: np.exp(-(1 + y * y) / 2) / (2 * np.pi), -1, 1)
    return val


def nan_density(n):
    """A density that is NaN everywhere, built directly: custom densities
    are probe-certified and would be rejected."""
    return pb.Density(n=n, eval=lambda p: np.full(len(p), np.nan),
                      grad=lambda p: np.full(np.shape(p), np.nan), even=True)


def flux_free(density):
    """A custom copy of a builtin density: the same eval and grad, so the
    same Monte Carlo bits, but no flux, so every covariogram query and
    brightness derivative under it samples."""
    return pb.custom_density(density.n, density.eval, density.grad,
                             label=f"{density.label} (sampled)", even=density.even,
                             radially_decreasing=density.radially_decreasing)
