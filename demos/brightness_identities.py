"""How fast does a body lose overlap with its own translate?

The covariogram g(x) = mu(K ∩ (K + x)) starts at mu(K) and decays as the
translate slides away.  Its one-sided slope at the origin in direction
theta is exactly minus the support function of the (shifted) weighted
projection body: the body's "brightness" in that direction.  This script
computes both sides for the unit square under the Gaussian measure and for
a random triangle under Lebesgue, then walks the full decay profile.  Every
number here is deterministic: on a polygon the Gaussian covariogram is a
cubature of its flux over the edges of K ∩ (K + x), and its slope at 0 is
that of a Chebyshev interpolant on the first ray piece, where g is
analytic; under Lebesgue that piece is a polynomial whose slope is exact.
"""

import numpy as np

import projbodies as pb

square = pb.cube(2)
gauss = pb.gaussian(2)

print("== Gaussian-weighted brightness of the square (Chebyshev slope) ==")
zon = pb.projection_zonoid(square, gauss)
off = pb.offset_vector(square, gauss)  # zero: even measure, symmetric body
print(f"eta = {off.value}  (projective: {off.is_projective})")
for angle in np.linspace(0, np.pi / 4, 4):
    theta = np.array([np.cos(angle), np.sin(angle)])
    fd = pb.brightness_derivative(pb.CovariogramQuery(square, gauss), theta)
    h = float(zon.support(theta[None, :])[0])
    print(f"theta at {np.degrees(angle):5.1f} deg:  dg/dr = {fd.value:+.9f} "
          f"+- {fd.error_estimate:.1e}   -h_Pi = {-h:+.9f}")

print("\n== Exact Lebesgue slope on a random triangle ==")
tri = pb.random_polytope(2, pb.RandomStream(3), count=3)
zon = pb.projection_zonoid(tri)
theta = np.array([1.0, 0.0])
fd = pb.brightness_derivative(pb.CovariogramQuery(tri), theta)
print(f"dg/dr = {fd.value:+.12f}")
print(f"-h_Pi = {-float(zon.support(theta[None, :])[0]):+.12f}")

print("\n== Covariogram decay profile along e1 (square, Gaussian flux cubature) ==")
rho = pb.radial(pb.difference_body(square), theta)
q = pb.CovariogramQuery(square, gauss)
for r in np.linspace(0, rho, 9):
    res = pb.mu_covariogram(q, r * theta)
    bar = "#" * int(50 * res.value / 0.47)
    print(f"r = {r:4.2f}  g = {res.value:.4f}  {bar}")
