"""A tour of the Gaussian-weighted machinery on the unit square.

Facet weights, the measure-dependent projection body and its polar volume,
the inequality reports that tie them together, and the reverse
isoperimetric bound that needs the isotropic position.
"""

import json

import projbodies as pb

square = pb.cube(2)
gauss = pb.gaussian(2)
cfg = pb.RunConfig(seed=7)

w, err = pb.facet_weights(gauss, square, tol=1e-10)
print("Gaussian facet weights of [-1,1]^2:", [f"{v:.6f}" for v in w])

zon = pb.projection_zonoid(square, gauss)
pv, _ = zon.polar_volume()  # exact: the polar of a zonotope is a polytope
bm = pb.boundary_measure(gauss, square)
print(f"gamma(boundary) = {bm.value:.6f}")
print(f"Vol(polar of Gaussian projection body) = {pv:.4f}")
print(f"surface product gamma(dK)^2 * Vol = {bm.value ** 2 * pv:.4f} "
      f"(isotropic upper bound 32)\n")

for id_ in ("log_concave_zhang", "ehrhard_gaussian", "polarized_zhang",
            "surface_lower_bound"):
    kwargs = {"s": 0.5} if id_ == "polarized_zhang" else {}
    rep = pb.verify(id_, square, mu=gauss, precision=cfg, **kwargs)
    print(f"{id_:22s} lhs = {rep.lhs:10.5f}  rhs = {rep.rhs:10.5f}  "
          f"margin = {rep.margin:+9.5f}  [{rep.verdict}]")

print("\nfull report for the log-concave bound:")
rep = pb.verify("log_concave_zhang", square, mu=gauss, precision=cfg)
print(json.dumps(rep.to_json_dict(), indent=2))

print("\nreverse isoperimetric bound (log-concave shortcut):")
rev = pb.reverse_isoperimetric(square, gauss, pb.log_family(), cfg=cfg)
print(f"gamma(dK) = {rev.lhs:.5f} <= 4 n gamma(K) Vol^(-1/2) = {rev.rhs:.5f}")
