"""Batch front end: parse body/measure specs, dispatch, emit reports.

Exit codes: 0 success (and inequality pass), 1 configuration or parse
error or numeric failure, 2 inequality-check failure, 3 hypothesis
violation.  Identical command lines with identical seeds produce
byte-identical output: all numbers are serialized with Python's shortest
round-trip float repr.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import sys

import numpy as np

from . import bodies, isotropic, measures
from .bodies import Ball, DegeneracyError, LinearMap
from .covariogram import CovariogramQuery, mu_covariogram
from .inequalities import (INEQUALITY_IDS, ehrhard_bound_value,
                           gaussian_sharpness_sweep, pe_sweep, verify)
from .meanbodies import (inclusion_chain_report, radial_mean_body,
                         spectral_mean_body)
from .measures import ConcavityFamily
from .numerics import (ConfigurationError, DomainError, EvaluationError,
                       PrecisionError, QuadratureFailure)
from .projection import brightness_residual, shifted_zonoid
from .report import Report, RunConfig, direction_grid

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_FAIL = 2
EXIT_HYPOTHESIS = 3


# -- spec parsing --------------------------------------------------------------

def parse_body(spec: str):
    """Body spec: inline shorthand (``simplex:2``, ``cube:3:0.5``,
    ``ball:2:1.5``, ``cross:2``, ``regular_polygon:256``) or ``@file.json``
    with {"type", "vertices", "map", "translate"} fields."""
    if spec.startswith("@"):
        with open(spec[1:], "r", encoding="utf-8") as fh:
            record = json.load(fh)
        return body_from_record(record)
    parts = spec.split(":")
    kind, args = parts[0], parts[1:]
    try:
        if kind == "simplex":
            return bodies.standard_simplex(int(args[0]))
        if kind == "cube":
            hw = float(args[1]) if len(args) > 1 else 1.0
            return bodies.cube(int(args[0]), hw)
        if kind == "cross":
            r = float(args[1]) if len(args) > 1 else 1.0
            return bodies.cross_polytope(int(args[0]), r)
        if kind == "ball":
            r = float(args[1]) if len(args) > 1 else 1.0
            return Ball(int(args[0]), r)
        if kind == "regular_polygon":
            r = float(args[1]) if len(args) > 1 else 1.0
            return bodies.regular_polygon(int(args[0]), r)
    except (IndexError, ValueError) as exc:
        raise ConfigurationError(f"bad body spec {spec!r}: {exc}") from exc
    raise ConfigurationError(f"unknown body type {kind!r} in {spec!r}")


def body_from_record(record: dict):
    if record.get("type") == "ball":
        return Ball(int(record["dimension"]), float(record["radius"]),
                    record.get("center"))
    if "vertices" not in record:
        raise ConfigurationError("body record needs a 'vertices' field")
    body = bodies.build_polytope(np.asarray(record["vertices"], dtype=float))
    if "map" in record:
        body = bodies.apply_linear(body, LinearMap(np.asarray(record["map"],
                                                             dtype=float)))
    if "translate" in record:
        body = body.translate(np.asarray(record["translate"], dtype=float))
    return body


def parse_measure(spec: str, n: int):
    """Measure spec: ``lebesgue``, ``gaussian``, ``radial_power:0.5``,
    ``exp_norm:<body spec>``, or ``@file.json``."""
    if spec.startswith("@"):
        with open(spec[1:], "r", encoding="utf-8") as fh:
            record = json.load(fh)
        kind = record["type"]
        if kind == "exp_norm":
            return measures.exp_norm(body_from_record(record["body"]))
        if kind == "radial_power":
            return measures.radial_power(n, float(record["alpha"]))
        spec = kind
    parts = spec.split(":", 1)
    kind = parts[0]
    if kind == "lebesgue":
        return measures.lebesgue(n)
    if kind == "gaussian":
        return measures.gaussian(n)
    if kind == "radial_power":
        if len(parts) < 2:
            raise ConfigurationError("radial_power needs an alpha: radial_power:a")
        return measures.radial_power(n, _parse_float(parts[1], spec))
    if kind == "exp_norm":
        if len(parts) < 2:
            raise ConfigurationError("exp_norm needs a body: exp_norm:cube:2")
        return measures.exp_norm(parse_body(parts[1]))
    raise ConfigurationError(f"unknown measure type {kind!r}")


def parse_family(spec: str) -> ConcavityFamily:
    if spec == "log":
        return measures.log_family()
    if spec == "gaussian_phi_inverse":
        return measures.gaussian_phi_inverse_family()
    if spec.startswith("power:"):
        return measures.power_family(float(spec.split(":", 1)[1]))
    raise ConfigurationError(f"unknown family {spec!r} "
                             "(log | gaussian_phi_inverse | power:s)")


def parse_map(spec: str, n: int) -> LinearMap:
    """Row-major matrix: 'a,b;c,d' or 'rot:angle' in the plane."""
    if spec.startswith("rot:"):
        if n != 2:
            raise ConfigurationError("rot: shorthand is 2-D only")
        return LinearMap.rotation_2d(_parse_float(spec.split(":", 1)[1], spec))
    rows = [[_parse_float(v, spec) for v in row.split(",")]
            for row in spec.split(";")]
    try:
        matrix = np.asarray(rows, dtype=float)
    except ValueError as exc:   # ragged rows
        raise ConfigurationError(f"bad matrix {spec!r}: {exc}") from exc
    return LinearMap(matrix)


def parse_vector(spec: str) -> np.ndarray:
    return np.asarray([_parse_float(v, spec) for v in spec.split(",")],
                      dtype=float)


def _parse_float(text: str, spec: str) -> float:
    try:
        return float(text)
    except ValueError as exc:
        raise ConfigurationError(f"bad number {text!r} in {spec!r}") from exc


# -- output --------------------------------------------------------------------

_CSV_FIELDS = ["id", "lhs", "rhs", "margin", "tolerance", "pass", "verdict",
               "seed", "samples", "grid", "tol", "witnesses"]


def emit_report(report: Report, fmt: str, out) -> int:
    data = report.to_json_dict()
    if fmt == "json":
        out.write(json.dumps(data, indent=2))
        out.write("\n")
    else:
        writer = csv.DictWriter(out, fieldnames=_CSV_FIELDS, lineterminator="\n")
        writer.writeheader()
        row = {k: data[k] for k in ("id", "lhs", "rhs", "margin",
                                    "tolerance", "verdict")}
        row["pass"] = data["pass"]
        row.update({k: data["config"].get(k) for k in ("seed", "samples",
                                                       "grid", "tol")})
        row["witnesses"] = json.dumps(data["witnesses"])
        writer.writerow(row)
    if report.verdict == "hypothesis_violation":
        return EXIT_HYPOTHESIS
    return EXIT_OK if report.passed else EXIT_FAIL


def emit_json(data, out) -> int:
    out.write(json.dumps(data, indent=2))
    out.write("\n")
    return EXIT_OK


def emit_rows(rows: list[dict], fmt: str, out) -> int:
    if fmt == "json":
        return emit_json(rows, out)
    if rows:
        writer = csv.DictWriter(out, fieldnames=list(rows[0].keys()),
                                lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)
    return EXIT_OK


# -- command handlers: (args with specs resolved, out) -> exit code ------------

def _body(args, out) -> int:
    K = args.K
    if args.action == "transform":
        K = bodies.apply_linear(K, parse_map(args.map, K.n))
    if isinstance(K, Ball):
        return emit_json({"type": "ball", "dimension": K.n,
                          "radius": K.radius,
                          "center": list(K.center),
                          "volume": K.volume}, out)
    return emit_json({
        "type": "polytope", "dimension": K.n,
        "volume": K.volume,
        "vertex_count": len(K.vertices),
        "facet_count": K.facet_count,
        "symmetric": K.is_symmetric(),
        "diameter": K.diameter,
        "vertices": K.vertices.tolist(),
        "facet_normals": K.normals.tolist(),
        "facet_offsets": K.offsets.tolist(),
        "facet_areas": K.areas.tolist(),
    }, out)


def _query(args) -> CovariogramQuery:
    return CovariogramQuery(args.K, args.mu, args.f, mode=args.mode,
                            stream=args.cfg.stream(), N=args.samples,
                            tol=args.cfg.tol)


def _covariogram_eval(args, out) -> int:
    res = mu_covariogram(_query(args), parse_vector(args.x))
    return emit_json({"value": res.value,
                      "error": res.error_estimate,
                      "evaluations": res.evaluations}, out)


def _covariogram_profile(args, out) -> int:
    query = _query(args)
    theta = parse_vector(args.theta)
    theta = theta / np.linalg.norm(theta)
    rho = bodies.radial_many(bodies.difference_body(args.K), theta[None, :])[0]
    radii = [rho * i / args.steps for i in range(args.steps + 1)]
    results = mu_covariogram(query, np.outer(radii, theta))
    rows = [{"r": r, "value": res.value, "error": res.error_estimate}
            for r, res in zip(radii, results)]
    return emit_rows(rows, args.format, out)


def _projbody_build(args, out) -> int:
    K, mu, f = args.K, args.mu, args.f
    zon, off = shifted_zonoid(K, mu, f, args.cfg.stream(), args.samples,
                              args.tol)
    return emit_json({
        "generators": zon.generators.tolist(),
        "weights": zon.weights.tolist(),
        "weight_errors": zon.weight_errors.tolist(),
        "offset": list(off.value),
        "offset_error": off.error_estimate,
        "offset_kind": off.which}, out)


def _projbody_polar_volume(args, out) -> int:
    zon, _ = shifted_zonoid(args.K, args.mu, tol=args.tol)
    value, error = zon.polar_volume()
    return emit_json({"value": value, "error": error}, out)


def _projbody_brightness(args, out) -> int:
    res = brightness_residual(args.K, args.mu, parse_vector(args.theta),
                              mode=args.mode, f=args.f,
                              stream=args.cfg.stream(), N=args.samples,
                              tol=args.tol)
    return emit_json({"residual": res.value,
                      "budget": res.error_estimate,
                      "pass": bool(res.value <= 3.0 * res.error_estimate
                                   + 1e-9)}, out)


def _meanbody_chain(args, out) -> int:
    p_list = [float(p) for p in args.p_list.split(",")]
    grid = direction_grid(args.K.n, min(args.grid, 256), args.cfg)
    report = inclusion_chain_report(args.K, p_list, grid, tol=args.tol)
    return emit_report(report, args.format, out)


def _meanbody_radii(args, out) -> int:
    grid = direction_grid(args.K.n, min(args.grid, 256), args.cfg)
    p = float("inf") if args.p == "inf" else float(args.p)
    result = args.mean_body(args.K, p, grid, tol=args.tol)
    rows = [{"direction": list(d), "radius": float(r)}
            for d, r in zip(grid.directions, result.star.radii)]
    if args.format == "csv":
        rows = [{"radius": r["radius"],
                 **{f"d{i}": v for i, v in enumerate(r["direction"])}}
                for r in rows]
    return emit_rows(rows, args.format, out)


def _verify(args, out) -> int:
    n = args.K.n
    nu = parse_measure(args.nu, n) if args.nu else None
    family = parse_family(args.family) if args.family else None
    report = verify(args.id, args.K, mu=args.mu, nu=nu, f=args.f,
                    family=family, s=args.s, precision=args.cfg)
    return emit_report(report, args.format, out)


def _isotropic_residual(args, out) -> int:
    cert = isotropic.isotropy_residual(args.K, args.mu, args.tol)
    return emit_json({"residual": cert.residual,
                      "threshold": cert.threshold,
                      "isotropic": cert.isotropic,
                      "weights": cert.weights.tolist()}, out)


def _isotropic_minimize(args, out) -> int:
    point, value, converged = isotropic.minimize_I(args.K, args.mu,
                                                   tol=args.tol)
    return emit_json({"matrix": point.matrix.tolist(),
                      "value": value,
                      "converged": converged}, out)


def _isotropic_reverse_iso(args, out) -> int:
    report = isotropic.reverse_isoperimetric(args.K, args.mu,
                                             parse_family(args.family),
                                             mode=args.mode,
                                             stream=args.cfg.stream(),
                                             N=args.samples, cfg=args.cfg)
    return emit_report(report, args.format, out)


def _sweep_pe(args, out) -> int:
    t_list = [float(t) for t in args.t_list.split(",")]
    return emit_rows(pe_sweep(args.K, t_list, args.cfg), args.format, out)


def _sweep_gaussian_sharpness(args, out) -> int:
    r_list = [float(r) for r in args.r_list.split(",")]
    return emit_rows(gaussian_sharpness_sweep(r_list, n=args.n), args.format,
                     out)


def _sweep_ehrhard(args, out) -> int:
    x_list = [float(x) for x in args.x_list.split(",")]
    rows = [{"x": x, "value": ehrhard_bound_value(args.n, x),
             "error": 0.0} for x in x_list]
    return emit_rows(rows, args.format, out)


# -- argument plumbing ----------------------------------------------------------

def _add_common(p: argparse.ArgumentParser, run, measure=False):
    p.set_defaults(run=run)
    p.add_argument("--body", required=True, help="body spec (or @file)")
    if measure:
        p.add_argument("--measure", default="lebesgue",
                       help="measure spec (default lebesgue)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--samples", type=int, default=measures.DEFAULT_MC_SAMPLES)
    p.add_argument("--grid", type=int, default=4096)
    p.add_argument("--tol", type=float, default=1e-8)
    p.add_argument("--format", choices=("json", "csv"), default="json")


@functools.cache   # built once per process; parse_args leaves it unchanged
def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="projbodies")
    sub = top.add_subparsers(dest="command", required=True)

    body = sub.add_parser("body").add_subparsers(dest="action", required=True)
    _add_common(body.add_parser("info"), _body)
    p = body.add_parser("transform")
    _add_common(p, _body)
    p.add_argument("--map", required=True, help="row-major 'a,b;c,d' or rot:angle")

    cov = sub.add_parser("covariogram").add_subparsers(dest="action", required=True)
    p = cov.add_parser("eval")
    _add_common(p, _covariogram_eval, measure=True)
    p.add_argument("--x", required=True, help="translation vector 'x1,x2,...'")
    p.add_argument("--mode", choices=("plain", "polarized", "functional"),
                   default="plain")
    p.add_argument("--f", default=None, help="density spec for functional mode")
    p = cov.add_parser("profile")
    _add_common(p, _covariogram_profile, measure=True)
    p.add_argument("--theta", required=True)
    p.add_argument("--steps", type=int, default=32)
    p.add_argument("--mode", choices=("plain", "polarized", "functional"),
                   default="plain")
    p.add_argument("--f", default=None)

    proj = sub.add_parser("projbody").add_subparsers(dest="action", required=True)
    p = proj.add_parser("build")
    _add_common(p, _projbody_build, measure=True)
    p.add_argument("--f", default=None)
    _add_common(proj.add_parser("polar-volume"), _projbody_polar_volume,
                measure=True)
    p = proj.add_parser("brightness")
    _add_common(p, _projbody_brightness, measure=True)
    p.add_argument("--theta", required=True)
    p.add_argument("--mode", choices=("plain", "polarized", "functional"),
                   default="plain")
    p.add_argument("--f", default=None)

    mean = sub.add_parser("meanbody").add_subparsers(dest="action", required=True)
    for action, fn in (("radial", radial_mean_body),
                       ("spectral", spectral_mean_body)):
        p = mean.add_parser(action)
        _add_common(p, _meanbody_radii)
        p.set_defaults(mean_body=fn)
        p.add_argument("--p", required=True,
                       help="exponent (a float, or 'inf')")
    p = mean.add_parser("chain")
    _add_common(p, _meanbody_chain)
    p.add_argument("--p-list", default="0,1,2")

    p = sub.add_parser("verify")
    p.add_argument("id", choices=INEQUALITY_IDS)
    _add_common(p, _verify, measure=True)
    p.add_argument("--nu", default=None, help="second measure spec")
    p.add_argument("--f", default=None, help="density spec for functional forms")
    p.add_argument("--family", default=None,
                   help="log | gaussian_phi_inverse | power:s")
    p.add_argument("--s", type=float, default=None)

    iso = sub.add_parser("isotropic").add_subparsers(dest="action", required=True)
    _add_common(iso.add_parser("residual"), _isotropic_residual, measure=True)
    _add_common(iso.add_parser("minimize"), _isotropic_minimize, measure=True)
    p = iso.add_parser("reverse-iso")
    _add_common(p, _isotropic_reverse_iso, measure=True)
    p.add_argument("--family", required=True)
    p.add_argument("--mode", choices=("q_form", "f_form"), default="q_form")

    sweep = sub.add_parser("sweep").add_subparsers(dest="action", required=True)
    p = sweep.add_parser("pe")
    _add_common(p, _sweep_pe)
    p.add_argument("--t-list", default="0.5,1,2,4,8,12,16")
    p = sweep.add_parser("gaussian-sharpness")
    p.set_defaults(run=_sweep_gaussian_sharpness)
    p.add_argument("--n", type=int, default=2)
    p.add_argument("--r-list", default="1,2,5,10,20")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--format", choices=("json", "csv"), default="csv")
    p = sweep.add_parser("ehrhard")
    p.set_defaults(run=_sweep_ehrhard)
    p.add_argument("--n", type=int, default=2)
    p.add_argument("--x-list", default="-2,-1,0,1,2")
    p.add_argument("--format", choices=("json", "csv"), default="csv")

    return top


# the commands that take a ``ball:`` body; every other needs a polytope
_BALL_COMMANDS = {"body info", "body transform", "verify zhang_petty"}


def _resolve_specs(args):
    """Parse the body, measure and --f specs and the run config, once."""
    if not hasattr(args, "body"):
        return
    args.K = parse_body(args.body)
    command = f"{args.command} {getattr(args, 'action', None) or args.id}"
    if isinstance(args.K, Ball) and command not in _BALL_COMMANDS:
        raise ConfigurationError(f"{command} needs a polytope body, not a ball")
    n = args.K.n
    args.mu = parse_measure(args.measure, n) if hasattr(args, "measure") else None
    args.f = parse_measure(args.f, n) if getattr(args, "f", None) else None
    args.cfg = RunConfig(seed=args.seed, samples=args.samples, grid=args.grid,
                         tol=args.tol)


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_CONFIG if exc.code not in (0, None) else EXIT_OK
    try:
        _resolve_specs(args)
        return args.run(args, sys.stdout)
    except (ConfigurationError, DomainError, FileNotFoundError, KeyError,
            DegeneracyError, PrecisionError, QuadratureFailure,
            EvaluationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
