"""The affine-invariant product Vol^{n-1}(K) Vol(Pi° K) across shapes.

Simplices sit at the lower (Zhang) end, ellipsoids at the upper (Petty)
end, and every other convex body lands strictly in between.  The product
is invariant under volume-preserving linear maps, which the last block
demonstrates numerically.
"""

import numpy as np

import projbodies as pb


def product(K):
    pv, _ = pb.projection_zonoid(K).polar_volume()  # exact hull volume
    return K.volume * pv  # n = 2: Vol^{n-1} = Vol


lo = 6 / 4                  # binom(4, 2) / 2^2
hi = (np.pi / 2) ** 2
print(f"bounds: {lo:.6f} (simplex) ... {hi:.6f} (disk)\n")

bodies = [
    ("triangle", pb.standard_simplex(2)),
    ("square", pb.cube(2)),
    ("cross-polytope", pb.cross_polytope(2)),
    ("regular pentagon", pb.regular_polygon(5)),
    ("regular hexagon", pb.regular_polygon(6)),
    ("regular 16-gon", pb.regular_polygon(16)),
    ("256-gon (disk)", pb.regular_polygon(256)),
]
for name, K in bodies:
    val = product(K)
    frac = (val - lo) / (hi - lo)
    print(f"{name:18s} {val:.6f}   [{'#' * int(40 * frac):<40s}]")

print("\nrandom bodies stay inside the sandwich:")
for i in range(5):
    K = pb.random_polytope(2, pb.RandomStream(100 + i))
    val = product(K)
    print(f"  random hull {i}: {val:.6f}  in bounds: {lo <= val <= hi}")

print("\naffine invariance (volume-preserving maps of the triangle):")
tri = pb.standard_simplex(2)
for M in (np.diag([4.0, 0.25]), np.array([[1.0, 0.9], [0.0, 1.0]])):
    img = pb.apply_linear(tri, pb.LinearMap(M))
    print(f"  det {np.linalg.det(M):+.2f} map: product = {product(img):.6f}")
