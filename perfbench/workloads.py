"""The four workloads of the projbodies benchmark.

Each workload builds its inputs from a seed (``build``), settles lazy
first-call costs (``warm``), lists the operations of one pass (``ops``) and
checks the outputs of a pass (``check``) against references computed apart
from the program, or against properties the method must have.  The program
receives only the generated bodies, densities, grids and streams.

Module-level code here imports nothing from projbodies, so that the set-up
time measured by ``run.py`` includes importing the program.
"""

from __future__ import annotations

import contextlib
import io
import math
from dataclasses import dataclass, field

import numpy as np
from scipy import integrate

# Seed of the acceptance suite (tests/test_acceptance.py): its c04 3-D
# bodies and its c07 pentagon are inputs of two workloads.
ACCEPTANCE_SEED = 424242


class OperationFailed(Exception):
    """An operation delivered no usable result (a non-pass verdict)."""


@dataclass
class Outcome:
    """What the checks of one pass found."""

    failures: list = field(default_factory=list)   # messages
    budgets: list = field(default_factory=list)    # (value, error budget)
    refs: list = field(default_factory=list)       # (value, reference)

    def expect(self, ok: bool, message: str):
        if not ok:
            self.failures.append(message)


def passed(report):
    """Return a verification report, or fail the operation on another verdict."""
    if report.verdict != "pass":
        raise OperationFailed(
            f"{report.id}: verdict {report.verdict}, margin {report.margin:.3e}, "
            f"tolerance {report.tolerance:.3e}")
    return report


def random_rotation(rng: np.random.Generator, n: int) -> np.ndarray:
    """Uniform rotation in SO(n): QR of a Gaussian matrix, signs fixed."""
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    q = q * np.sign(np.diag(r))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q


def unit_rows(rng: np.random.Generator, count: int, n: int) -> np.ndarray:
    x = rng.standard_normal((count, n))
    return x / np.linalg.norm(x, axis=1, keepdims=True)


def polytopes_of(inputs: dict) -> list:
    out = []
    for value in inputs.values():
        for item in value if isinstance(value, (list, tuple)) else [value]:
            if hasattr(item, "facet_simplices"):
                out.append(item)
    return out


# -- independent references ----------------------------------------------------

def gauss_pdf_1d(x: float) -> float:
    return math.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi)


def gauss_interval_mass(a: float) -> float:
    """gamma_1([-a, a]) = 2 Phi(a) - 1."""
    return math.erf(a / math.sqrt(2.0))


def cube3_facet_weight() -> float:
    """Gaussian weight of one facet of [-1,1]^3: phi(1) (2 Phi(1) - 1)^2."""
    return gauss_pdf_1d(1.0) * gauss_interval_mass(1.0) ** 2


def square_edge_weight() -> float:
    """Gaussian weight of one edge of [-1,1]^2, by 1-D quadrature."""
    val, _ = integrate.quad(
        lambda y: math.exp(-0.5 * (1.0 + y * y)) / (2.0 * math.pi), -1.0, 1.0,
        epsabs=1e-15, epsrel=1e-13)
    return val


def cube_radius(n: int, theta: np.ndarray, p: float) -> float:
    """rho_{R_p [-1,1]^n}(theta) from the covariogram prod(2 - |x_i|).

    M_p = (p / 2^n) int_0^{rho_DK} g(r theta) r^{p-1} dr with
    rho_DK = 2 / max|theta_i|; g is a polynomial in r on that interval.
    """
    a = np.abs(np.asarray(theta, dtype=float))
    reach = 2.0 / float(a.max())
    val, _ = integrate.quad(lambda r: float(np.prod(2.0 - r * a)) * r ** (p - 1.0),
                            0.0, reach, epsabs=1e-15, epsrel=1e-13, limit=200)
    return (p / 2.0 ** n * val) ** (1.0 / p)


def polygon_projection_support(vertices: np.ndarray, theta: np.ndarray) -> float:
    """h_{Pi K}(theta) of a convex polygon from its vertices alone.

    Sorting the vertices by angle gives the edges e_k; each contributes
    |<theta, u_k>| |e_k| / 2 = |det(theta, e_k)| / 2.
    """
    c = vertices.mean(axis=0)
    order = np.argsort(np.arctan2(vertices[:, 1] - c[1], vertices[:, 0] - c[0]))
    v = vertices[order]
    e = np.roll(v, -1, axis=0) - v
    return 0.5 * float(np.sum(np.abs(theta[0] * e[:, 1] - theta[1] * e[:, 0])))


def grid_budget(Z, grid, pv: float, pv_half: float) -> float:
    """Grid-refinement error bar of a polar volume plus its weight sensitivity."""
    h = Z.support(grid.directions)
    herr = Z.support_error(grid.directions)
    return abs(pv - pv_half) + float(np.sum(grid.weights * h ** (-grid.n - 1) * herr))


# -- gauss_zonoids_3d --------------------------------------------------------------

class GaussZonoids3D:
    """Gaussian projection bodies of c04's 3-D polytopes and of cube(3).

    The eight c04 bodies (four symmetric) are turned by rotations drawn from
    the seed.  The Gaussian is rotation invariant, so the facet-cubature work
    does not depend on the seed, while every input coordinate does.
    """

    name = "gauss_zonoids_3d"
    tol = 1e-5
    grid_count = 4096

    def build(self, pb, seed: int) -> dict:
        rng = np.random.default_rng([seed, 3])
        stream = pb.RandomStream(ACCEPTANCE_SEED)
        originals = [pb.random_polytope(3, stream.substream(20 + i)) for i in range(4)]
        originals += [pb.random_polytope(3, stream.substream(30 + i), symmetric=True)
                      for i in range(4)]
        rotations = [random_rotation(rng, 3) for _ in originals]
        rotated = [pb.apply_linear(K, pb.LinearMap(R))
                   for K, R in zip(originals, rotations)]
        return {"originals": originals, "rotations": rotations,
                "bodies": rotated + [pb.cube(3)], "gauss": pb.gaussian(3),
                "grid": pb.sphere_directions(3, self.grid_count),
                "half": pb.sphere_directions(3, self.grid_count // 2)}

    def warm(self, pb, inp):
        K = inp["bodies"][-1]
        Z = pb.projection_zonoid(K, inp["gauss"], tol=1e-2)
        pb.zonoid_polar_volume(Z, inp["half"])

    def ops(self, pb, inp) -> list:
        g, tol, grid, half = inp["gauss"], self.tol, inp["grid"], inp["half"]
        out = []
        for j, K in enumerate(inp["bodies"]):
            out += [
                (f"zonoid[{j}]", lambda r, K=K: pb.projection_zonoid(K, g, tol=tol)),
                (f"offset[{j}]", lambda r, K=K: pb.offset_vector(K, g, tol=tol)),
                (f"fzonoid[{j}]",
                 lambda r, K=K: pb.projection_zonoid(K, g, f=g, tol=tol)),
                (f"polar[{j}]", lambda r, j=j: (
                    pb.zonoid_polar_volume(r[f"zonoid[{j}]"], grid),
                    pb.zonoid_polar_volume(r[f"zonoid[{j}]"], half))),
            ]
        return out

    def check(self, pb, inp, res: dict) -> Outcome:
        out = Outcome()
        grid = inp["grid"]
        bodies = inp["bodies"]
        for j, K in enumerate(bodies):
            Z, fZ = res.get(f"zonoid[{j}]"), res.get(f"fzonoid[{j}]")
            if Z is not None:
                out.budgets.append((Z.total_weight, float(Z.weight_errors.sum())))
            if fZ is not None:
                out.budgets.append((fZ.total_weight, float(fZ.weight_errors.sum())))
            off = res.get(f"offset[{j}]")
            if off is not None and j < 4:   # asymmetric bodies: eta != 0
                out.budgets.append((float(np.linalg.norm(off.value)),
                                    off.error_estimate))
            if Z is not None and f"polar[{j}]" in res:
                pv, pv_half = res[f"polar[{j}]"]
                out.budgets.append((pv, grid_budget(Z, grid, pv, pv_half)))

        # cube(3): closed-form facet weights and polar volume
        j = len(bodies) - 1
        w_ref = cube3_facet_weight()
        Z = res.get(f"zonoid[{j}]")
        if Z is not None:
            for w, e in zip(Z.weights, Z.weight_errors):
                out.expect(abs(w - w_ref) <= e,
                           f"cube(3) facet weight {w!r} vs {w_ref!r} (budget {e:.2e})")
                out.refs.append((float(w), w_ref))
            if f"polar[{j}]" in res:
                pv, pv_half = res[f"polar[{j}]"]
                pv_ref = 4.0 / (3.0 * w_ref ** 3)
                budget = grid_budget(Z, grid, pv, pv_half)
                out.expect(abs(pv - pv_ref) <= budget,
                           f"cube(3) polar volume {pv!r} vs {pv_ref!r} (budget {budget:.2e})")
                out.refs.append((pv, pv_ref))

        # rotation invariance: facet weights of K and of R K, matched by normal
        for j, (K0, R) in enumerate(zip(inp["originals"], inp["rotations"])):
            Z = res.get(f"zonoid[{j}]")
            if Z is None:
                continue
            w0, e0 = pb.facet_weights(inp["gauss"], K0, self.tol)
            out.failures += match_rotated_weights(
                K0.normals @ R.T, w0, e0, Z.generators, Z.weights, Z.weight_errors,
                label=f"body {j}")
        return out


def match_rotated_weights(normals0, w0, e0, normals, w, e, label="") -> list:
    """Compare facet weights of two bodies whose facets match by normal."""
    if len(normals0) != len(normals):
        return [f"{label}: {len(normals)} facets vs {len(normals0)} before rotation"]
    cos = normals @ normals0.T
    match = np.argmax(cos, axis=1)
    if len(set(match.tolist())) != len(match) or \
            np.min(cos[np.arange(len(match)), match]) < 1.0 - 1e-9:
        return [f"{label}: facet normals do not match after rotation"]
    failures = []
    for i, k in enumerate(match):
        if abs(w[i] - w0[k]) > e[i] + e0[k]:
            failures.append(f"{label}: facet weight {w[i]!r} vs {w0[k]!r} "
                            f"before rotation (budgets {e[i]:.2e} + {e0[k]:.2e})")
    return failures


# -- mc_brightness_2d ---------------------------------------------------------------

class MCBrightness2D:
    """Brightness identities of c04's twelve planar polytopes (six symmetric).

    Each body and its first two c04 directions are turned by an angle drawn
    from the seed; the Monte Carlo streams come from RandomStream(seed + 2),
    as c04's come from its own seed + 2.  Turning fixed bodies, rather than
    drawing new ones, keeps the work and the relative budgets of a pass the
    same for every seed: the cost of Polytope.contains grows with the facet
    count, and the brightness budgets with the body's shape.
    """

    name = "mc_brightness_2d"
    directions = 2
    samples = 200_000
    tau_samples = 100_000
    tol = 1e-7

    def build(self, pb, seed: int) -> dict:
        stream = pb.RandomStream(ACCEPTANCE_SEED)
        c04 = [pb.random_polytope(2, stream.substream(i)) for i in range(6)]
        c04 += [pb.random_polytope(2, stream.substream(10 + i), symmetric=True)
                for i in range(6)]
        gen = pb.RandomStream(ACCEPTANCE_SEED + 1).generator()
        rng = np.random.default_rng([seed, 2])
        bodies, thetas = [], []
        for K in c04:
            theta = gen.standard_normal((16, 2))[:self.directions]
            theta /= np.linalg.norm(theta, axis=1, keepdims=True)
            rot = pb.LinearMap.rotation_2d(rng.uniform(0.0, 2.0 * np.pi))
            bodies.append(pb.apply_linear(K, rot))
            thetas.append(theta @ rot.matrix.T)
        return {"bodies": bodies, "symmetric": [K.is_symmetric() for K in bodies],
                "thetas": np.array(thetas), "gauss": pb.gaussian(2),
                "mc": pb.RandomStream(seed + 2)}

    def warm(self, pb, inp):
        K, g = inp["bodies"][0], inp["gauss"]
        q = pb.CovariogramQuery(K, g, mode="plain", stream=inp["mc"], N=1000)
        pb.brightness_derivative(q, inp["thetas"][0, 0])

    def modes(self, inp, b):
        g = inp["gauss"]
        out = [("plain", None)]
        if inp["symmetric"][b]:
            out.append(("polarized", None))
        return out + [("functional", g)]

    def ops(self, pb, inp) -> list:
        g, mc, tol = inp["gauss"], inp["mc"], self.tol
        out = []
        for b, K in enumerate(inp["bodies"]):
            out += [
                (f"zonoid[{b}]", lambda r, K=K: pb.projection_zonoid(K, g, tol=tol)),
                (f"offset[{b}]", lambda r, K=K: pb.offset_vector(K, g, tol=tol)),
                (f"fzonoid[{b}]",
                 lambda r, K=K: pb.projection_zonoid(K, g, f=g, tol=tol)),
                (f"tau[{b}]", lambda r, K=K, b=b: pb.offset_vector(
                    K, g, f=g, stream=mc.substream(900 + b), N=self.tau_samples)),
            ]
            for d, theta in enumerate(inp["thetas"][b]):
                out.append((f"exact[{b},{d}]", lambda r, K=K, theta=theta:
                             pb.brightness_derivative(pb.CovariogramQuery(K), theta)))
                for mode, f in self.modes(inp, b):
                    out.append((f"{mode}[{b},{d}]",
                                lambda r, K=K, theta=theta, mode=mode, f=f, b=b, d=d:
                                pb.brightness_derivative(pb.CovariogramQuery(
                                    K, g, f, mode=mode,
                                    stream=mc.substream(1000 * b + d),
                                    N=self.samples), theta)))
        return out

    def check(self, pb, inp, res: dict) -> Outcome:
        out = Outcome()
        for b, K in enumerate(inp["bodies"]):
            shifted = {}
            if f"zonoid[{b}]" in res and f"offset[{b}]" in res:
                off = res[f"offset[{b}]"]
                shifted["plain"] = (res[f"zonoid[{b}]"].with_offset(off.value),
                                    off.error_estimate)
                shifted["polarized"] = (res[f"zonoid[{b}]"], 0.0)
            if f"fzonoid[{b}]" in res and f"tau[{b}]" in res:
                tau = res[f"tau[{b}]"]
                shifted["functional"] = (res[f"fzonoid[{b}]"].with_offset(tau.value),
                                         tau.error_estimate)
            for d, theta in enumerate(inp["thetas"][b]):
                fd = res.get(f"exact[{b},{d}]")
                if fd is not None:
                    h_ref = polygon_projection_support(K.vertices, theta)
                    out.expect(abs(fd.value + h_ref) <= 1e-6,
                               f"body {b} dir {d}: exact derivative {fd.value!r} "
                               f"vs -h_PiK {-h_ref!r}")
                    out.refs.append((-float(fd.value), h_ref))
                    out.budgets.append((h_ref, float(fd.error_estimate)))
                for mode, _ in self.modes(inp, b):
                    fd = res.get(f"{mode}[{b},{d}]")
                    if fd is None or mode not in shifted:
                        continue
                    z, off_err = shifted[mode]
                    h = float(z.support(theta[None, :])[0])
                    h_err = float(z.support_error(theta[None, :])[0])
                    budget = math.sqrt(fd.error_estimate ** 2 + h_err ** 2 + off_err ** 2)
                    out.expect(abs(fd.value + h) <= 3.0 * budget,
                               f"body {b} dir {d} {mode}: |d + h| = "
                               f"{abs(fd.value + h):.3e} > 3 x budget {budget:.3e}")
                    # relative to the h it estimates: |d| itself carries the noise
                    out.budgets.append((h, float(fd.error_estimate)))
        return out


# -- mean_body_chain ------------------------------------------------------------------

def c07_pentagon(pb):
    """The pentagon of the acceptance check c07, drawn as c07 draws it."""
    gen = pb.RandomStream(ACCEPTANCE_SEED + 3).generator()
    pentagon = None
    while pentagon is None or len(pentagon.vertices) != 5:
        pentagon = pb.build_polytope(gen.standard_normal((5, 2)))
    return pentagon


class MeanBodyChain:
    """Inclusion chains of the square, the triangle and c07's pentagon.

    The chain directions are an equal-angle grid turned by an angle drawn
    from the seed.  The cube radii use fixed directions moved by a symmetry
    of the cube drawn from the seed (a signed permutation of the axes), so
    the covariogram work along them is the same for every seed.  The chain
    uses 16 directions where c07 uses 64, so that a run of 20 s holds
    several passes on a slow host.
    """

    name = "mean_body_chain"
    p_list = (0.0, 1.0, 2.0)
    chain_directions = 16
    square_directions = 8
    cube3_directions = 1
    tol = 1e-9

    def build(self, pb, seed: int) -> dict:
        rng = np.random.default_rng([seed, 4])
        m = self.chain_directions
        ang = rng.uniform(0.0, 2.0 * np.pi / m) + 2.0 * np.pi * np.arange(m) / m
        chain_grid = pb.SphereGrid(2, np.stack([np.cos(ang), np.sin(ang)], axis=1),
                                   np.full(m, 2.0 * np.pi / m))
        chain_grid.validate()

        def grid(n, count):
            base = unit_rows(np.random.default_rng([ACCEPTANCE_SEED, n]), count, n)
            dirs = base[:, rng.permutation(n)] * rng.choice([-1.0, 1.0], n)
            return pb.SphereGrid(n, dirs, np.full(count, pb.sphere_surface(n) / count))

        return {"chain_bodies": [pb.cube(2), pb.standard_simplex(2), c07_pentagon(pb)],
                "chain_grid": chain_grid, "cube2": pb.cube(2), "cube3": pb.cube(3),
                "grid2": grid(2, self.square_directions),
                "grid3": grid(3, self.cube3_directions)}

    def warm(self, pb, inp):
        for K in inp["chain_bodies"] + [inp["cube2"], inp["cube3"]]:
            pb.covariogram_exact(K, 0.5 * pb.difference_body(K).vertices[0])

    def ops(self, pb, inp) -> list:
        grid, tol = inp["chain_grid"], self.tol
        out = [(f"chain[{i}]", lambda r, K=K: passed(
                    pb.inclusion_chain_report(K, list(self.p_list), grid, tol=tol)))
               for i, K in enumerate(inp["chain_bodies"])]
        for key in ("cube2", "cube3"):
            for p in (1.0, 2.0):
                out.append((f"{key}[{p:g}]", lambda r, key=key, p=p:
                            pb.radial_mean_body(inp[key], p, inp["grid" + key[-1]],
                                                tol=tol)))
        return out

    def check(self, pb, inp, res: dict) -> Outcome:
        out = Outcome()
        grid = inp["chain_grid"]
        for i, K in enumerate(inp["chain_bodies"]):
            rep = res.get(f"chain[{i}]")
            if rep is None:
                continue
            # the chain's only reported budget is its tolerance, relative to
            # the mean radius of DK
            scale = float(np.mean(pb.radial_many(pb.difference_body(K),
                                                 grid.directions)))
            out.budgets.append((scale, rep.tolerance))
            if i == 1:
                spread = rep.witnesses["equality_spread"].value
                out.expect(spread <= 1e-6, f"triangle equality spread {spread:.2e}")
        for key in ("cube2", "cube3"):
            n = int(key[-1])
            for p in (1.0, 2.0):
                mb = res.get(f"{key}[{p:g}]")
                if mb is None:
                    continue
                for theta, r in zip(mb.star.grid.directions, mb.star.radii):
                    ref = cube_radius(n, theta, p)
                    out.expect(abs(r - ref) <= self.tol * ref,
                               f"{key} R_{p:g} radius {r!r} vs quad {ref!r}")
                    out.refs.append((float(r), ref))
        return out


# -- verify_reports -------------------------------------------------------------------

README_COMMANDS = (
    "verify zhang_petty --body simplex:2 --format json",
    "verify log_concave_zhang --body cube:2 --measure gaussian --seed {seed}",
    "projbody polar-volume --body simplex:2 --grid 4096",
    "covariogram profile --body simplex:2 --theta 1,0 --format csv",
    "isotropic reverse-iso --body cube:2 --measure gaussian --family log --seed {seed}",
    "sweep pe --body cube:2 --t-list 1,4,8,16 --format csv",
)


def run_cli(cli, argv: list) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


class VerifyReports:
    """All 14 verify ids on planar inputs, and the README's CLI commands."""

    name = "verify_reports"

    def build(self, pb, seed: int) -> dict:
        square = pb.cube(2)
        return {"square": square, "triangle": pb.standard_simplex(2),
                "simplex3": pb.standard_simplex(3),
                "gauss": pb.gaussian(2), "leb": pb.lebesgue(2),
                "rp": pb.radial_power(2, 1.0), "exp_norm": pb.exp_norm(square),
                "cfg": pb.RunConfig(seed=seed),
                "stream": pb.RandomStream(seed + 1),
                "argv": [c.format(seed=seed).split() for c in README_COMMANDS]}

    def cases(self, pb, inp) -> list:
        sq, tri = inp["square"], inp["triangle"]
        g, leb, rp = inp["gauss"], inp["leb"], inp["rp"]
        return [
            ("zhang_petty", tri, {}),
            ("zhang_petty", inp["simplex3"], {}),
            ("rogers_shephard", tri, {}),
            ("rst_radially_decreasing", tri, {"nu": g}),
            ("weak_zhang", tri, {"mu": g}),
            ("zhang_radial_nondecreasing", tri, {"nu": rp}),
            ("surface_lower_bound", sq, {"mu": g}),
            ("exp_norm_gradient_identity", sq, {"mu": inp["exp_norm"]}),
            ("set_inclusion_big", sq, {"mu": g, "family": pb.power_family(0.5)}),
            ("q_concave_zhang", sq, {"mu": g, "family": pb.log_family()}),
            ("log_concave_zhang", sq, {"mu": g}),
            ("ehrhard_gaussian", sq, {"mu": g}),
            ("two_measure_zhang", tri, {"mu": leb, "nu": rp,
                                        "family": pb.power_family(0.5)}),
            ("s_concave_zhang", tri, {"mu": leb, "nu": rp, "s": 0.5}),
            ("polarized_zhang", sq, {"mu": g, "s": 0.5}),
            ("polarized_zhang", sq, {"mu": g, "nu": rp, "s": 0.5}),
        ]

    def warm(self, pb, inp):
        pb.verify("rogers_shephard", inp["triangle"], precision=inp["cfg"])

    def ops(self, pb, inp) -> list:
        from projbodies import cli
        cfg = inp["cfg"]
        out = [(f"verify[{i}]", lambda r, id_=id_, K=K, kw=kw:
                passed(pb.verify(id_, K, precision=cfg, **kw)))
               for i, (id_, K, kw) in enumerate(self.cases(pb, inp))]
        out += [(f"cli[{i}]", lambda r, argv=argv: cli_ok(run_cli(cli, argv), argv))
                for i, argv in enumerate(inp["argv"])]
        out.append(("minimize_I", lambda r: pb.minimize_I(
            inp["square"], inp["leb"], stream=inp["stream"])))
        return out

    def check(self, pb, inp, res: dict) -> Outcome:
        from projbodies import cli
        out = Outcome()
        cases = self.cases(pb, inp)
        for i, (id_, K, _) in enumerate(cases):
            rep = res.get(f"verify[{i}]")
            if rep is not None and rep.rhs != 0.0:
                # identity reports put a defect in lhs and 0 in rhs
                out.budgets.append((max(abs(rep.lhs), abs(rep.rhs)), rep.tolerance))
        a = square_edge_weight()
        gamma_square = gauss_interval_mass(1.0) ** 2
        for i, (id_, K, _) in enumerate(cases):
            rep = res.get(f"verify[{i}]")
            if rep is None:
                continue
            w = rep.witnesses
            if id_ == "zhang_petty":
                ref = {2: 1.5, 3: 20.0 / 27.0}[K.n]
                out.expect(abs(w["product"].value - ref) <= rep.tolerance,
                           f"zhang_petty n={K.n}: product {w['product'].value!r} vs {ref!r}")
                out.refs.append((w["product"].value, ref))
            elif id_ == "rogers_shephard":
                out.expect(abs(w["ratio"].value - 6.0) <= 6e-9,
                           f"rogers_shephard ratio {w['ratio'].value!r} vs 6")
                out.refs.append((w["ratio"].value, 6.0))
            elif id_ in ("log_concave_zhang", "surface_lower_bound"):
                pv = w["polar_volume"]
                out.expect(abs(pv.value - 2.0 / a ** 2) <= pv.error,
                           f"{id_}: polar volume {pv.value!r} vs 2/a^2 = {2.0 / a ** 2!r}")
                out.refs.append((pv.value, 2.0 / a ** 2))
                if id_ == "log_concave_zhang":
                    mk = w["mu_K"]   # Monte Carlo: checked, not in ref_digits
                    out.expect(abs(mk.value - gamma_square) <= 3.0 * mk.error,
                               f"gamma_2(K) {mk.value!r} vs {gamma_square!r}")
                else:
                    mb = w["mu_boundary"]
                    out.expect(abs(mb.value - 4.0 * a) <= mb.error,
                               f"mu(dK) {mb.value!r} vs 4a = {4.0 * a!r}")
                    out.refs.append((mb.value, 4.0 * a))
        for i, argv in enumerate(inp["argv"]):
            first = res.get(f"cli[{i}]")
            if first is not None:
                again = run_cli(cli, argv)
                out.expect(again == first, f"cli {' '.join(argv)}: stdout differs on rerun")
        return out


def cli_ok(result: tuple[int, str], argv) -> tuple[int, str]:
    if result[0] != 0:
        raise OperationFailed(f"cli {' '.join(argv)} exited {result[0]}")
    return result


WORKLOADS = {w.name: w for w in (GaussZonoids3D(), MCBrightness2D(),
                                 MeanBodyChain(), VerifyReports())}
